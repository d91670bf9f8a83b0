#include "simnet/network.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>

namespace lon::sim {

namespace {

constexpr LinkId kNoLink = std::numeric_limits<LinkId>::max();
constexpr SimDuration kUnreachable = std::numeric_limits<SimDuration>::max();
constexpr SimTime kMaxTime = std::numeric_limits<SimTime>::max();
constexpr double kRateEps = 1e-9;
constexpr double kBytesEps = 1e-6;

// Node-local transfers (src == dst) model a memory/loopback copy.
constexpr double kLocalBytesPerSec = 12.5e9;           // ~100 Gb/s
constexpr SimDuration kLocalOverhead = 20 * kMicrosecond;

}  // namespace

Network::Network(Simulator& sim, std::uint64_t jitter_seed)
    : sim_(sim), jitter_rng_(jitter_seed ? jitter_seed : 1), jitter_enabled_(jitter_seed != 0) {}

NodeId Network::add_node(std::string name) {
  nodes_.push_back(std::move(name));
  adjacency_.emplace_back();
  routes_dirty_ = true;
  return static_cast<NodeId>(nodes_.size() - 1);
}

const std::string& Network::node_name(NodeId id) const { return nodes_.at(id); }

LinkId Network::add_link(NodeId a, NodeId b, const LinkConfig& config) {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    throw std::out_of_range("Network::add_link: unknown node");
  }
  if (a == b) throw std::invalid_argument("Network::add_link: self-loop");
  if (config.bandwidth_bps <= 0.0) {
    throw std::invalid_argument("Network::add_link: non-positive bandwidth");
  }
  if (config.latency < 0) {
    throw std::invalid_argument("Network::add_link: negative latency");
  }
  Link link;
  link.a = a;
  link.b = b;
  link.config = config;
  links_.push_back(link);
  const auto id = static_cast<LinkId>(links_.size() - 1);
  adjacency_[a].emplace_back(b, id);
  adjacency_[b].emplace_back(a, id);
  link_members_.resize(2 * links_.size());
  link_changed_.resize(2 * links_.size(), 0);
  link_visited_.resize(2 * links_.size(), 0);
  routes_dirty_ = true;
  return id;
}

void Network::set_link_up(LinkId id, bool up) {
  Link& link = links_.at(id);
  if (link.up == up) return;
  link.up = up;
  routes_dirty_ = true;
  // Flows already routed across the link stall (or resume) at the next
  // solve, which prices a down link at zero capacity; the deferred solve
  // runs at the current instant, so no virtual time passes in between.
  mark_link_changed(dir_link(id, true));
  mark_link_changed(dir_link(id, false));
  request_reallocate();
}

std::optional<LinkId> Network::link_between(NodeId a, NodeId b) const {
  if (a >= nodes_.size()) return std::nullopt;
  for (const auto& [neighbor, link] : adjacency_[a]) {
    if (neighbor == b) return link;
  }
  return std::nullopt;
}

void Network::recompute_routes() const {
  const std::size_t n = nodes_.size();
  next_hop_.assign(n, std::vector<LinkId>(n, kNoLink));
  latency_table_.assign(n, std::vector<SimDuration>(n, kUnreachable));

  // Dijkstra from every source over propagation latency.
  for (NodeId src = 0; src < n; ++src) {
    std::vector<SimDuration> dist(n, kUnreachable);
    std::vector<LinkId> first_link(n, kNoLink);
    using Item = std::pair<SimDuration, NodeId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    dist[src] = 0;
    pq.emplace(0, src);
    while (!pq.empty()) {
      auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u]) continue;
      for (auto [v, link] : adjacency_[u]) {
        if (!links_[link].up) continue;
        const SimDuration nd = d + links_[link].config.latency;
        if (nd < dist[v]) {
          dist[v] = nd;
          first_link[v] = (u == src) ? link : first_link[u];
          pq.emplace(nd, v);
        }
      }
    }
    for (NodeId dst = 0; dst < n; ++dst) {
      latency_table_[src][dst] = dist[dst];
      next_hop_[src][dst] = first_link[dst];
    }
    // next_hop_[src][dst] holds the first link out of src toward dst; rebuild
    // hop-by-hop next hops by walking predecessors is unnecessary because we
    // recompute the full path from each intermediate node's own table.
  }
  routes_dirty_ = false;
}

SimDuration Network::path_latency(NodeId a, NodeId b) const {
  if (routes_dirty_) recompute_routes();
  if (a == b) return 0;
  const SimDuration d = latency_table_.at(a).at(b);
  if (d == kUnreachable) throw std::runtime_error("Network: nodes not connected");
  return d;
}

SimDuration Network::rtt(NodeId a, NodeId b) const { return 2 * path_latency(a, b); }

bool Network::reachable(NodeId a, NodeId b) const {
  if (routes_dirty_) recompute_routes();
  if (a >= nodes_.size() || b >= nodes_.size()) return false;
  return a == b || latency_table_[a][b] != kUnreachable;
}

std::vector<Network::DirLink> Network::route(NodeId src, NodeId dst) const {
  std::vector<DirLink> path;
  NodeId cur = src;
  while (cur != dst) {
    const LinkId link = next_hop_[cur][dst];
    if (link == kNoLink) throw std::runtime_error("Network: nodes not connected");
    const bool forward = links_[link].a == cur;
    path.push_back(dir_link(link, forward));
    cur = forward ? links_[link].b : links_[link].a;
  }
  return path;
}

FlowId Network::start_transfer(NodeId src, NodeId dst, std::uint64_t bytes,
                               const TransferOptions& options, TransferCallback on_done) {
  if (src >= nodes_.size() || dst >= nodes_.size()) {
    throw std::out_of_range("Network::start_transfer: unknown node");
  }
  if (options.weight <= 0.0 || options.streams < 1 || options.window_bytes == 0) {
    throw std::invalid_argument("Network::start_transfer: bad options");
  }
  if (routes_dirty_) recompute_routes();

  const FlowId id = next_flow_id_++;
  const SimTime started = sim_.now();

  // Node-local copies bypass the flow machinery entirely.
  if (src == dst) {
    const auto copy_time =
        static_cast<SimDuration>(static_cast<double>(bytes) / kLocalBytesPerSec * 1e9);
    sim_.after(kLocalOverhead + copy_time, [id, started, bytes, cb = std::move(on_done),
                                            this] {
      cb(TransferResult{id, started, sim_.now(), bytes, false});
    });
    return id;
  }

  const SimDuration nominal_latency = path_latency(src, dst);
  const SimDuration round_trip = 2 * nominal_latency;

  // Per-flow TCP throughput ceiling: streams * window / RTT.
  double cap = std::numeric_limits<double>::infinity();
  if (round_trip > 0) {
    cap = static_cast<double>(options.streams) *
          static_cast<double>(options.window_bytes) / to_seconds(round_trip);
  }

  // Latency jitter is sampled once per flow (per-path) from the seeded RNG.
  SimDuration delivery = nominal_latency;
  if (jitter_enabled_) {
    double factor = 1.0;
    for (const DirLink dl : route(src, dst)) {
      const Link& link = links_[dl / 2];
      if (link.config.jitter_frac > 0.0) {
        factor += link.config.jitter_frac * std::abs(jitter_rng_.normal());
      }
    }
    delivery = static_cast<SimDuration>(static_cast<double>(nominal_latency) * factor);
  }

  Flow flow;
  flow.id = id;
  flow.src = src;
  flow.dst = dst;
  flow.path = route(src, dst);
  flow.remaining = static_cast<double>(bytes);
  flow.bytes = bytes;
  flow.weight = options.weight;
  flow.rate_cap = cap;
  flow.started = started;
  flow.delivery_latency = delivery;
  flow.on_done = std::move(on_done);

  for (const DirLink dl : flow.path) {
    Link& link = links_[dl / 2];
    LinkStats& stats = (dl % 2 == 0) ? link.stats_fwd : link.stats_rev;
    stats.bytes_carried += bytes;
    stats.flows_carried += 1;
  }

  const SimDuration setup = options.handshake ? round_trip : 0;
  if (bytes == 0) {
    sim_.after(setup + delivery, [id, started, cb = std::move(flow.on_done), this] {
      cb(TransferResult{id, started, sim_.now(), 0, false});
    });
    return id;
  }

  // Admit the flow into the fair-share machinery after connection setup.
  sim_.after(setup, [this, id, flow = std::move(flow)]() mutable {
    flow.last_update = sim_.now();
    auto [it, inserted] = flows_.emplace(id, std::move(flow));
    attach_flow(it->second);
    request_reallocate();
  });
  return id;
}

std::size_t Network::cancel_node_flows(NodeId node) {
  std::vector<FlowId> doomed;
  for (const auto& [id, flow] : flows_) {
    if (flow.src == node || flow.dst == node) doomed.push_back(id);
  }
  for (const FlowId id : doomed) cancel(id);
  return doomed.size();
}

bool Network::cancel(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return false;
  TransferResult result{id, it->second.started, sim_.now(), it->second.bytes, true};
  auto cb = std::move(it->second.on_done);
  if (it->second.completion_scheduled) sim_.cancel(it->second.completion_event);
  detach_flow(it->second);
  flows_.erase(it);
  request_reallocate();
  if (cb) cb(result);
  return true;
}

double Network::flow_rate(FlowId id) const {
  auto it = flows_.find(id);
  return it == flows_.end() ? 0.0 : it->second.rate;
}

const LinkStats& Network::link_stats(LinkId link, bool forward) const {
  const Link& l = links_.at(link);
  return forward ? l.stats_fwd : l.stats_rev;
}

void Network::attach_flow(Flow& flow) {
  for (const DirLink dl : flow.path) {
    auto& members = link_members_[dl];
    // Member lists stay sorted by FlowId so weight sums accumulate in the
    // same order as iterating flows_. New flows carry the largest id so far,
    // so this is almost always a push_back.
    if (members.empty() || members.back()->id < flow.id) {
      members.push_back(&flow);
    } else {
      const auto pos = std::lower_bound(
          members.begin(), members.end(), flow.id,
          [](const Flow* f, FlowId id) { return f->id < id; });
      members.insert(pos, &flow);
    }
    mark_link_changed(dl);
  }
}

void Network::detach_flow(const Flow& flow) {
  for (const DirLink dl : flow.path) {
    auto& members = link_members_[dl];
    const auto pos = std::lower_bound(
        members.begin(), members.end(), flow.id,
        [](const Flow* f, FlowId id) { return f->id < id; });
    members.erase(pos);
    mark_link_changed(dl);
  }
}

void Network::mark_link_changed(DirLink dl) {
  if (!link_changed_[dl]) {
    link_changed_[dl] = 1;
    changed_links_.push_back(dl);
  }
}

void Network::request_reallocate() {
  ++realloc_requests_;
  if (realloc_pending_) return;
  realloc_pending_ = true;
  // The deferred solve's sequence number is above every event already queued
  // for this instant, so it runs after all same-instant arrivals and
  // departures and sees the batch as a whole. No virtual time passes.
  sim_.after(0, [this] {
    realloc_pending_ = false;
    reallocate();
  });
}

void Network::reallocate() {
  const SimTime now = sim_.now();
  ++reallocs_;

  // 1. Integrate progress of ALL flows since the last rate change, touched
  //    or not: integration must break at every solve instant so the
  //    piecewise sums accumulate identically no matter which component a
  //    solve was scoped to.
  for (auto& [id, flow] : flows_) {
    const double dt = to_seconds(now - flow.last_update);
    flow.remaining = std::max(0.0, flow.remaining - flow.rate * dt);
    flow.last_update = now;
  }

  // 2. Collect the affected component: the closure of flows and links
  //    reachable from the links whose membership or capacity changed.
  //    Flows outside the closure share no link with it, so their rates are
  //    left untouched (not merely recomputed to the same value).
  std::vector<Flow*> affected;
  std::vector<DirLink> affected_links;
  if (full_resolve_) {
    for (auto& [id, flow] : flows_) {
      affected.push_back(&flow);
      flow.wf_affected = true;
      for (const DirLink dl : flow.path) {
        if (!link_visited_[dl]) {
          link_visited_[dl] = 1;
          affected_links.push_back(dl);
        }
      }
    }
  } else {
    std::vector<DirLink> frontier;
    for (const DirLink dl : changed_links_) {
      if (!link_visited_[dl]) {
        link_visited_[dl] = 1;
        frontier.push_back(dl);
      }
    }
    while (!frontier.empty()) {
      const DirLink dl = frontier.back();
      frontier.pop_back();
      affected_links.push_back(dl);
      for (Flow* f : link_members_[dl]) {
        if (f->wf_affected) continue;
        f->wf_affected = true;
        affected.push_back(f);
        for (const DirLink other : f->path) {
          if (!link_visited_[other]) {
            link_visited_[other] = 1;
            frontier.push_back(other);
          }
        }
      }
    }
    std::sort(affected.begin(), affected.end(),
              [](const Flow* a, const Flow* b) { return a->id < b->id; });
    std::sort(affected_links.begin(), affected_links.end());
  }
  for (const DirLink dl : changed_links_) link_changed_[dl] = 0;
  changed_links_.clear();
  realloc_flows_touched_ += affected.size();

  // 3. Weighted max-min fair allocation with per-flow caps over the affected
  //    component: repeatedly fix either cap-limited flows or the flows
  //    crossing the tightest link. Links and flows are visited in ascending
  //    id order so floating-point accumulation is deterministic.
  std::vector<double> residual(affected_links.size());  // bytes/second
  for (std::size_t i = 0; i < affected_links.size(); ++i) {
    const Link& link = links_[affected_links[i] / 2];
    residual[i] = link.up ? link.config.bandwidth_bps / 8.0 : 0.0;
  }
  // residual is indexed per affected link; map DirLink -> index via the
  // visited scratch (reused as an index marker would alias, so use a local).
  std::unordered_map<DirLink, std::size_t> link_index;
  link_index.reserve(affected_links.size());
  for (std::size_t i = 0; i < affected_links.size(); ++i) {
    link_index.emplace(affected_links[i], i);
  }

  std::size_t unassigned = affected.size();
  while (unassigned > 0) {
    // Tightest link share.
    double best_share = std::numeric_limits<double>::infinity();
    DirLink best_link = 0;
    bool have_link = false;
    for (std::size_t i = 0; i < affected_links.size(); ++i) {
      double weight_sum = 0.0;
      for (const Flow* f : link_members_[affected_links[i]]) {
        if (!f->wf_assigned) weight_sum += f->weight;
      }
      if (weight_sum <= 0.0) continue;
      const double share = residual[i] / weight_sum;
      if (share < best_share) {
        best_share = share;
        best_link = affected_links[i];
        have_link = true;
      }
    }
    // Tightest cap among unassigned flows (normalized by weight).
    double best_cap = std::numeric_limits<double>::infinity();
    for (const Flow* f : affected) {
      if (!f->wf_assigned) best_cap = std::min(best_cap, f->rate_cap / f->weight);
    }

    if (!have_link && !std::isfinite(best_cap)) {
      // No constraining links and no caps (cannot happen for inter-node
      // flows, which always traverse a link); give everything a huge rate.
      for (Flow* f : affected) {
        if (!f->wf_assigned) f->rate = kLocalBytesPerSec;
      }
      break;
    }

    if (best_cap <= best_share + kRateEps) {
      // Fix every flow whose cap binds at this level.
      for (Flow* f : affected) {
        if (f->wf_assigned || f->rate_cap / f->weight > best_cap + kRateEps) continue;
        f->rate = f->rate_cap;
        f->wf_assigned = true;
        --unassigned;
        for (const DirLink dl : f->path) {
          double& r = residual[link_index.at(dl)];
          r = std::max(0.0, r - f->rate);
        }
      }
    } else {
      // Fix flows crossing the bottleneck link at their fair share. A
      // per-flow flag replaces the seed's O(flows^2) std::find scan.
      for (Flow* f : link_members_[best_link]) f->wf_on_bottleneck = true;
      for (Flow* f : affected) {
        if (f->wf_assigned || !f->wf_on_bottleneck) continue;
        f->rate = f->weight * best_share;
        f->wf_assigned = true;
        --unassigned;
        for (const DirLink dl : f->path) {
          double& r = residual[link_index.at(dl)];
          r = std::max(0.0, r - f->rate);
        }
      }
      for (Flow* f : link_members_[best_link]) f->wf_on_bottleneck = false;
    }
  }

  // Clear component scratch.
  for (Flow* f : affected) {
    f->wf_affected = false;
    f->wf_assigned = false;
  }
  for (const DirLink dl : affected_links) link_visited_[dl] = 0;

  // 4. Arm the flows due first. Targets are recomputed for EVERY flow (not
  //    just touched ones) with the same arithmetic the seed used, so
  //    completion instants — including their ±1ns cast edges — are
  //    bit-identical to a full re-solve. Only the flows whose target equals
  //    the earliest one get a timer, armed in FlowId order; every other flow
  //    holds no event. The first of those timers to fire requests a solve
  //    that runs at the same instant, after the rest of this block and
  //    before any later instant, and re-targets every remaining flow, so a
  //    timer for a later target would always be cancelled before it ran.
  //    Leaving it out keeps the (time, seq) order of every event that runs.
  SimTime first_target = kMaxTime;
  due_.clear();
  for (auto& [id, flow] : flows_) {
    if (flow.completion_scheduled) {
      sim_.cancel(flow.completion_event);
      flow.completion_scheduled = false;
    }
    SimTime target = now;  // finished exactly at a reallocation boundary
    if (flow.remaining > kBytesEps) {
      if (flow.rate <= kRateEps) continue;  // starved; a later solve revives it
      const double ns = flow.remaining / flow.rate * 1e9;
      // A target the clock cannot hold (a near-zero weight against a busy
      // link) is treated like a starved flow: it stays unarmed until a
      // later solve re-targets it. The bound keeps the cast and the sum
      // below inside SimTime.
      if (!(ns < static_cast<double>(kMaxTime - now))) continue;
      target = now + static_cast<SimDuration>(ns) + 1;
    }
    if (target > first_target) continue;
    if (target < first_target) {
      first_target = target;
      due_.clear();
    }
    due_.push_back(&flow);
  }
  for (Flow* flow : due_) {
    flow->completion_event =
        sim_.at(first_target, [this, id = flow->id] { complete_flow(id); });
    flow->completion_scheduled = true;
  }
}

void Network::complete_flow(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;
  Flow flow = std::move(it->second);
  detach_flow(flow);
  flows_.erase(it);

  TransferResult result;
  result.id = id;
  result.started = flow.started;
  result.bytes = flow.bytes;
  result.cancelled = false;
  // The final byte still has to propagate to the receiver.
  result.finished = sim_.now() + flow.delivery_latency;
  sim_.after(flow.delivery_latency, [cb = std::move(flow.on_done), result] {
    if (cb) cb(result);
  });
  request_reallocate();
}

}  // namespace lon::sim
