#include "streaming/dvs.hpp"

#include <stdexcept>
#include <string>

namespace lon::streaming {

DvsServer::DvsServer(sim::Simulator& sim, sim::Network& net, sim::NodeId node,
                     const lightfield::SphericalLattice& lattice, DvsConfig config,
                     obs::Context* obs)
    : sim_(sim),
      net_(net),
      node_(node),
      config_(config),
      obs_(obs != nullptr ? *obs : obs::global()),
      scope_(obs_.metrics.scope("dvs")),
      metrics_{scope_.counter("dvs.queries"), scope_.counter("dvs.hits"),
               scope_.counter("dvs.misses"),  scope_.counter("dvs.forwarded"),
               scope_.counter("dvs.updates"), scope_.counter("dvs.levels_visited"),
               scope_.counter("dvs.hot_reports")} {
  if (config_.leaf_capacity == 0) throw std::invalid_argument("DvsServer: leaf capacity 0");
  if (config_.shards == 0) throw std::invalid_argument("DvsServer: shard count 0");
  Region whole{0, static_cast<int>(lattice.view_set_rows()), 0,
               static_cast<int>(lattice.view_set_cols())};
  depth_ = 1;
  // Each shard's tree spans the whole grid but holds only ~1/K of the
  // entries, so leaves are sized leaf_capacity * K to keep per-leaf density
  // (and therefore tree depth and per-query hop counts) comparable to the
  // unsharded table. With shards == 1 this builds the exact classic tree.
  shards_.resize(config_.shards);
  for (std::size_t k = 0; k < config_.shards; ++k) {
    Shard& shard = shards_[k];
    shard.depth = 1;
    shard.root =
        build_tree(whole, config_.leaf_capacity * config_.shards, &shard.depth, 1);
    depth_ = std::max(depth_, shard.depth);
    if (config_.shards > 1) {
      const obs::Scope shard_scope(obs_.metrics,
                                   scope_.labels() + ",shard=" + std::to_string(k));
      shard.queries = &shard_scope.counter("dvs.shard.queries");
      shard.hits = &shard_scope.counter("dvs.shard.hits");
      shard.waits = &shard_scope.counter("dvs.shard.waits");
    }
  }
}

std::unique_ptr<DvsServer::Node> DvsServer::build_tree(const Region& region,
                                                       std::size_t leaf_capacity,
                                                       int* depth_out, int depth) {
  auto node = std::make_unique<Node>();
  node->region = region;
  *depth_out = std::max(*depth_out, depth);
  if (region.count() <= leaf_capacity) return node;

  // Split the longer axis in half.
  const int rows = region.row1 - region.row0;
  const int cols = region.col1 - region.col0;
  Region a = region;
  Region b = region;
  if (rows >= cols) {
    const int mid = region.row0 + rows / 2;
    a.row1 = mid;
    b.row0 = mid;
  } else {
    const int mid = region.col0 + cols / 2;
    a.col1 = mid;
    b.col0 = mid;
  }
  node->children.push_back(build_tree(a, leaf_capacity, depth_out, depth + 1));
  node->children.push_back(build_tree(b, leaf_capacity, depth_out, depth + 1));
  return node;
}

DvsServer::Node* DvsServer::descend(const lightfield::ViewSetId& id, int* levels) const {
  Node* node = shards_[shard_of(id)].root.get();
  *levels = 1;
  if (!node->region.contains(id)) return nullptr;
  while (!node->children.empty()) {
    Node* next = nullptr;
    for (const auto& child : node->children) {
      if (child->region.contains(id)) {
        next = child.get();
        break;
      }
    }
    if (next == nullptr) return nullptr;  // cannot happen with a well-formed tree
    node = next;
    ++*levels;
  }
  return node;
}

void DvsServer::install(const lightfield::ViewSetId& id, exnode::ExNode exnode) {
  int levels = 0;
  Node* leaf = descend(id, &levels);
  if (leaf == nullptr) throw std::out_of_range("DvsServer: id outside view-set grid");
  leaf->entries.insert_or_assign(id, std::move(exnode));
}

bool DvsServer::knows(const lightfield::ViewSetId& id) const {
  int levels = 0;
  const Node* leaf = descend(id, &levels);
  return leaf != nullptr && leaf->entries.contains(id);
}

void DvsServer::query_async(sim::NodeId from, const lightfield::ViewSetId& id,
                            bool generate_if_missing, QueryCallback on_done) {
  // The span opens at the caller's side of the hop (while the caller's
  // ambient parent is still live) and covers the full round trip.
  const obs::SpanId span = obs_.trace.begin("dvs.query", sim_.now());
  obs_.trace.arg(span, "view_set", id.key());
  const SimDuration to_server = net_.path_latency(from, node_);
  sim_.after(to_server, [this, from, id, generate_if_missing, span,
                         cb = std::move(on_done)]() mutable {
    metrics_.queries.inc();
    Shard& shard = shards_[shard_of(id)];
    if (shard.queries != nullptr) shard.queries->inc();
    int levels = 0;
    Node* leaf = descend(id, &levels);
    metrics_.levels_visited.inc(static_cast<std::uint64_t>(levels));
    // Serial service: the shard works one query at a time, so a burst to the
    // same shard queues while other shards answer in parallel. shard_service
    // of 0 never waits — classic uncontended-directory timing.
    SimDuration wait = 0;
    if (config_.shard_service > 0) {
      const SimTime now = sim_.now();
      if (shard.busy_until > now) {
        wait = shard.busy_until - now;
        if (shard.waits != nullptr) shard.waits->inc();
      }
      shard.busy_until = now + wait + config_.shard_service;
    }
    const SimDuration lookup =
        wait + static_cast<SimDuration>(levels) * kLevelOverhead;
    const SimDuration back = net_.path_latency(node_, from);

    if (leaf != nullptr) {
      auto it = leaf->entries.find(id);
      if (it != leaf->entries.end()) {
        metrics_.hits.inc();
        if (shard.hits != nullptr) shard.hits->inc();
        QueryResult result;
        result.found = true;
        result.exnode = it->second;
        result.levels = levels;
        sim_.after(lookup + back, [this, span, result, cb] {
          obs_.trace.arg(span, "outcome", "hit");
          obs_.trace.end(span, sim_.now());
          cb(result);
        });
        return;
      }
    }

    if (!generate_if_missing || agent_ == nullptr || leaf == nullptr) {
      metrics_.misses.inc();
      QueryResult result;
      result.levels = levels;
      sim_.after(lookup + back, [this, span, result, cb] {
        obs_.trace.arg(span, "outcome", "miss");
        obs_.trace.end(span, sim_.now());
        cb(result);
      });
      return;
    }

    // Server-agent table: forward for runtime generation. "The DVS then
    // forwards the request to the right server agent for generation and
    // uploading of the view set at runtime. It updates the exNode table with
    // the exNode returned by the server agent."
    metrics_.forwarded.inc();
    sim_.after(lookup, [this, id, levels, back, span, cb = std::move(cb)]() mutable {
      // Ambient parent for the server agent's generate span: the forward is
      // a synchronous call, so the register survives exactly long enough.
      const obs::Tracer::Ambient ambient(obs_.trace, span);
      agent_->generate_async(
          id, [this, id, levels, back, span,
               cb = std::move(cb)](bool ok, const exnode::ExNode& exnode) {
            QueryResult result;
            result.levels = levels;
            if (ok) {
              install(id, exnode);
              metrics_.updates.inc();
              result.found = true;
              result.exnode = exnode;
            } else {
              metrics_.misses.inc();
            }
            sim_.after(back, [this, span, result, cb] {
              obs_.trace.arg(span, "outcome", result.found ? "generated" : "miss");
              obs_.trace.end(span, sim_.now());
              cb(result);
            });
          });
    });
  });
}

void DvsServer::update_async(sim::NodeId from, const lightfield::ViewSetId& id,
                             exnode::ExNode exnode, std::function<void()> on_done) {
  const SimDuration rtt = net_.rtt(from, node_);
  sim_.after(rtt, [this, id, exnode = std::move(exnode),
                   cb = std::move(on_done)]() mutable {
    install(id, std::move(exnode));
    metrics_.updates.inc();
    if (cb) cb();
  });
}

void DvsServer::report_hot_async(sim::NodeId from, const lightfield::ViewSetId& id) {
  // One-way control message; nothing to reply. The relay to the server
  // agent is a local call on the DVS node, charging only the lookup.
  const SimDuration to_server = net_.path_latency(from, node_);
  sim_.after(to_server, [this, id] {
    metrics_.hot_reports.inc();
    if (agent_ == nullptr) return;
    int levels = 0;
    Node* leaf = descend(id, &levels);
    if (leaf == nullptr) return;
    auto it = leaf->entries.find(id);
    if (it == leaf->entries.end()) return;  // nothing to augment yet
    const SimDuration lookup = static_cast<SimDuration>(levels) * kLevelOverhead;
    sim_.after(lookup, [this, id, exnode = it->second] { agent_->note_hot(id, exnode); });
  });
}

}  // namespace lon::streaming
