#include "streaming/server_agent.hpp"

#include <stdexcept>

#include "streaming/types.hpp"
#include "util/log.hpp"

namespace lon::streaming {

ServerAgent::ServerAgent(sim::Simulator& sim, sim::Network& net, lors::Lors& lors,
                         DvsServer& dvs, sim::NodeId node,
                         std::shared_ptr<lightfield::ViewSetSource> source,
                         ServerAgentConfig config, obs::Context* obs)
    : sim_(sim),
      net_(net),
      lors_(lors),
      dvs_(dvs),
      node_(node),
      source_(std::move(source)),
      config_(std::move(config)),
      obs_(obs != nullptr ? *obs : obs::global()),
      scope_(obs_.metrics.scope("server")),
      metrics_{scope_.counter("server.requests"),
               scope_.counter("server.generated"),
               scope_.counter("server.upload_failures"),
               scope_.counter("server.hot_reports"),
               scope_.counter("server.augments"),
               scope_.counter("server.augment_failures")} {
  if (source_ == nullptr) throw std::invalid_argument("ServerAgent: null source");
  if (config_.depots.empty()) throw std::invalid_argument("ServerAgent: no depots");
}

SimDuration ServerAgent::generation_cost() const {
  const auto& cfg = source_->lattice().config();
  const double pixels = static_cast<double>(cfg.view_set_span) * cfg.view_set_span *
                        static_cast<double>(cfg.view_resolution) * cfg.view_resolution;
  const double render_s = pixels / (kPixelsPerSecPerProc * kProcessors);
  // Raw pixels are written once and the compressed output once more.
  const double io_s = pixels * 3.0 * 1.2 / kIoBytesPerSec;
  return from_seconds(render_s + io_s);
}

void ServerAgent::generate_async(const lightfield::ViewSetId& id,
                                 GenerateCallback on_done) {
  if (!source_->lattice().valid(id)) {
    sim_.after(0, [cb = std::move(on_done)] { cb(false, exnode::ExNode{}); });
    return;
  }
  metrics_.requests.inc();
  // Parent is whatever the forwarding DVS left ambient; the span covers
  // queue wait as well as the render/upload/update pipeline.
  const obs::SpanId span = obs_.trace.begin("server.generate", sim_.now());
  obs_.trace.arg(span, "view_set", id.key());
  pending_.push_back(Request{id, std::move(on_done), span});
  maybe_start();
}

void ServerAgent::note_hot(const lightfield::ViewSetId& id, const exnode::ExNode& exnode) {
  if (config_.augment_threshold <= 0) return;
  metrics_.hot_reports.inc();
  if (++hot_counts_[id] < config_.augment_threshold) return;
  hot_counts_[id] = 0;
  const SimTime now = sim_.now();
  auto [it, fresh] = augment_not_before_.try_emplace(id, 0);
  if (!fresh && now < it->second) return;  // cooling down — no replica flapping
  // The cooldown gate closes *before* the asynchronous augment runs, so a
  // burst of threshold crossings during the copy triggers exactly one fanout.
  it->second = now + config_.augment_cooldown;
  augment(id, exnode);
}

void ServerAgent::augment(const lightfield::ViewSetId& id, const exnode::ExNode& exnode) {
  const std::vector<std::string>& pool =
      config_.augment_depots.empty() ? config_.depots : config_.augment_depots;
  const std::string& target = pool[augment_rr_++ % pool.size()];

  const obs::SpanId span = obs_.trace.begin("server.augment", sim_.now());
  obs_.trace.arg(span, "view_set", id.key());
  obs_.trace.arg(span, "depot", target);

  lors::AugmentOptions options;
  options.target_depot = target;
  options.lease = kDatabaseLease;
  options.alloc_type = ibp::AllocType::kSoft;
  options.net = config_.net;
  options.parent_span = span;
  lors_.augment_async(
      node_, exnode, options, [this, id, span](const lors::AugmentResult& result) {
        if (result.status != lors::LorsStatus::kOk || result.extents_copied == 0) {
          LON_LOG(kWarn, "server-agent")
              << "augment of " << id.key() << " failed: " << lors::to_string(result.status);
          metrics_.augment_failures.inc();
          obs_.trace.arg(span, "outcome", "failed");
          obs_.trace.end(span, sim_.now());
          return;
        }
        metrics_.augments.inc();
        obs_.trace.arg(span, "outcome", "ok");
        // The DVS learns the widened exNode so subsequent queries resolve to
        // the extra replicas.
        dvs_.update_async(node_, id, result.exnode, [this, span] {
          obs_.trace.end(span, sim_.now());
        });
      });
}

void ServerAgent::maybe_start() {
  // LIFO: the scheduler "chooses the latest request to assign to the
  // generator" — the newest request is what the interactive user wants now.
  if (busy_ || pending_.empty()) return;
  busy_ = true;
  Request request = std::move(pending_.back());
  pending_.pop_back();
  run_one(std::move(request));
}

void ServerAgent::run_one(Request request) {
  // The generator occupies the cluster for the modeled generation time;
  // the actual pixel content is produced by the source.
  sim_.after(generation_cost(), [this, request = std::move(request)]() mutable {
    Bytes compressed = source_->build_compressed(request.id);
    metrics_.generated.inc();

    lors::UploadOptions upload;
    upload.depots = config_.depots;
    upload.replicas = config_.replicas;
    upload.lease = kDatabaseLease;
    upload.net = config_.net;
    // The upload's span chains under server.generate via the ambient
    // register (upload_async opens its span before returning).
    const obs::Tracer::Ambient ambient(obs_.trace, request.span);
    lors_.upload_async(
        node_, std::move(compressed), upload,
        [this, request = std::move(request)](const lors::UploadResult& result) mutable {
          if (result.status != lors::LorsStatus::kOk) {
            LON_LOG(kWarn, "server-agent")
                << "upload of " << request.id.key() << " failed: "
                << lors::to_string(result.status);
            metrics_.upload_failures.inc();
            obs_.trace.arg(request.span, "outcome", "upload_failed");
            obs_.trace.end(request.span, sim_.now());
            request.on_done(false, exnode::ExNode{});
            busy_ = false;
            maybe_start();
            return;
          }
          exnode::ExNode exnode = result.exnode;
          exnode.metadata()["viewset"] = request.id.key();
          // "a copy is sent to the client agent and the pool of server
          // depots, and the DVS is updated" — the DVS update happens here;
          // the requester receives the exNode through the callback chain.
          dvs_.update_async(node_, request.id, exnode,
                            [this, request = std::move(request), exnode]() mutable {
                              obs_.trace.end(request.span, sim_.now());
                              request.on_done(true, exnode);
                              busy_ = false;
                              maybe_start();
                            });
        });
  });
}

}  // namespace lon::streaming
