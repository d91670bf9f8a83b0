#include "streaming/client.hpp"

#include <string>

#include "compress/lfz.hpp"
#include "util/log.hpp"

namespace lon::streaming {

namespace {

/// Decodes a delivered payload and rejects any view set but the requested
/// one. The renderer keys a set by the id in its own header, so a payload
/// naming another id would be installed under that id, and one of another
/// span would index past its block. Resolution is not checked: coarse LOD
/// tiers arrive smaller and the renderer scales them.
lightfield::ViewSet decode_requested(const Bytes& compressed,
                                     const lightfield::ViewSetId& id, int span) {
  lightfield::ViewSet vs = lightfield::ViewSet::decompress(compressed);
  if (vs.id() != id || vs.span() != span) {
    throw DecodeError("delivered " + vs.id().key() + " (span " + std::to_string(vs.span()) +
                      ") for requested " + id.key() + " (span " + std::to_string(span) +
                      ")");
  }
  return vs;
}

}  // namespace

Client::Client(sim::Simulator& sim, sim::Network& net,
               const lightfield::LatticeConfig& lattice, sim::NodeId node,
               ClientAgent& agent, ClientConfig config, obs::Context* obs)
    : sim_(sim),
      net_(net),
      node_(node),
      agent_(agent),
      config_(std::move(config)),
      obs_(obs != nullptr ? *obs : obs::global()),
      scope_(obs_.metrics.scope("client")),
      metrics_{scope_.counter("session.accesses"),
               scope_.counter("session.hits"),
               scope_.counter("session.lan"),
               scope_.counter("session.wan"),
               scope_.histogram("session.total_ns"),
               scope_.histogram("session.comm_ns"),
               scope_.histogram("session.decompress_ns"),
               scope_.histogram("session.comm_hit_ns"),
               scope_.histogram("session.comm_lan_ns"),
               scope_.histogram("session.comm_wan_ns"),
               scope_.counter("session.shed_retries"),
               scope_.histogram("session.shed_wait_ns")},
      shed_rng_(0x51ed0000ULL + static_cast<std::uint64_t>(node)),
      renderer_(lattice) {}

void Client::record_access(const AccessRecord& record) {
  metrics_.accesses.inc();
  metrics_.total_ns.record(record.total());
  metrics_.comm_ns.record(record.comm_latency);
  metrics_.decompress_ns.record(record.decompress_time);
  switch (record.cls) {
    case AccessClass::kAgentHit:
      metrics_.hits.inc();
      metrics_.comm_hit_ns.record(record.comm_latency);
      break;
    case AccessClass::kLanDepot:
      metrics_.lan.inc();
      metrics_.comm_lan_ns.record(record.comm_latency);
      break;
    case AccessClass::kWan:
      metrics_.wan.inc();
      metrics_.comm_wan_ns.record(record.comm_latency);
      break;
  }
}

void Client::set_view(const Spherical& dir, std::function<void(bool)> on_ready) {
  direction_ = dir;
  const auto& lattice = renderer_.lattice();
  const lightfield::ViewSetId id = lattice.view_set_of(dir);

  // Cursor updates flow to the agent (control traffic) to drive prefetch and
  // staging order.
  const SimDuration to_agent = net_.path_latency(node_, agent_.node());
  sim_.after(to_agent, [this, dir] { agent_.notify_cursor(dir); });

  if (renderer_.has_view_set(id)) {
    if (on_ready) on_ready(true);
    return;
  }
  if (pending_.has_value()) {
    if (pending_->id == id) {
      // Already waiting on exactly this set.
      if (on_ready) pending_->callbacks.push_back(std::move(on_ready));
    } else {
      // The user moved on: the newest target supersedes any queued one.
      if (queued_.has_value() && queued_->second) queued_->second(false);
      queued_ = {dir, std::move(on_ready)};
    }
    return;
  }
  begin_request(id, std::move(on_ready));
}

void Client::begin_request(const lightfield::ViewSetId& id, std::function<void(bool)> cb) {
  pending_ = PendingRequest{id, sim_.now(), {}};
  if (cb) pending_->callbacks.push_back(std::move(cb));

  // Root of the access lifeline: everything downstream (agent fetch, DVS
  // query, LoRS download, IBP loads, decompression) nests under this span.
  const obs::SpanId span = obs_.trace.begin("client.request", sim_.now());
  obs_.trace.arg(span, "view_set", id.key());
  pending_->span = span;

  send_request(id, span);
}

void Client::send_request(const lightfield::ViewSetId& id, obs::SpanId span) {
  // Request message travels to the agent; the agent answers with the
  // compressed view set, which then travels back over the LAN.
  const SimDuration to_agent = net_.path_latency(node_, agent_.node());
  sim_.after(to_agent, [this, id, span] {
    agent_.request_view_set(
        id, node_,
        [this](const ClientAgent::Delivery& d) {
          // Payload transfer agent -> client: the compressed bytes.
          auto delivery = std::make_shared<ClientAgent::Delivery>(d);
          sim::TransferOptions opts = config_.lan_net;
          net_.start_transfer(agent_.node(), node_, delivery->payload->size(), opts,
                              [this, delivery](const sim::TransferResult&) {
                                on_delivery(*delivery);
                              });
        },
        span);
  });
}

SimDuration Client::charge_decompress(
    const Bytes& compressed, const lightfield::ViewSetId& id,
    std::shared_ptr<const lightfield::ViewSet>& out) const {
  const auto& cfg = renderer_.lattice().config();
  if (config_.decode) {
    out = std::make_shared<const lightfield::ViewSet>(
        decode_requested(compressed, id, cfg.view_set_span));
  } else {
    // Install the blank set of the right shape, which every non-decoding
    // client shares; the charge is for the bytes a decode *would* produce.
    out = lightfield::ViewSet::blank(cfg.view_set_span, cfg.view_resolution);
  }
  return static_cast<SimDuration>(static_cast<double>(out->pixel_bytes()) /
                                  config_.decompress_bytes_per_sec * 1e9);
}

void Client::on_delivery(const ClientAgent::Delivery& delivery) {
  if (!pending_.has_value()) return;  // stale delivery (should not happen)

  if (delivery.status == DeliveryStatus::kShed &&
      pending_->shed_attempts + 1 < config_.shed_retry.max_attempts) {
    // Overload refusal: back off (jittered, growing per round) and re-ask
    // the same agent. Deliberately *not* the depot-failure path — no
    // failover, no exNode invalidation, no repair: the data is fine, the
    // serving tier is busy. The clock restarts at the re-send so
    // session.total_ns keeps measuring admitted-request latency; the wait
    // itself is visible in session.shed_retries / session.shed_wait_ns.
    const int round = ++pending_->shed_attempts;
    const SimDuration wait = config_.shed_retry.backoff_for(round, shed_rng_);
    metrics_.shed_retries.inc();
    metrics_.shed_wait_ns.record(wait);
    obs_.trace.instant("client.shed_retry", sim_.now(), pending_->span);
    const lightfield::ViewSetId id = pending_->id;
    sim_.after(wait, [this, id] {
      if (!pending_.has_value() || !(pending_->id == id)) return;
      pending_->requested = sim_.now();
      send_request(id, pending_->span);
    });
    return;
  }

  PendingRequest request = std::move(*pending_);
  const Bytes& compressed = *delivery.payload;

  AccessRecord record;
  record.id = request.id;
  record.cls = delivery.cls;
  record.requested = request.requested;
  record.comm_latency = delivery.comm_latency;
  record.compressed_bytes = compressed.size();
  record.copied_bytes = delivery.copied_bytes;
  record.lod = delivery.lod;

  if (compressed.empty()) {
    // The view set could not be obtained anywhere.
    record.delivered = sim_.now();
    accesses_.push_back(record);
    record_access(record);
    obs_.trace.arg(request.span, "outcome", "failed");
    obs_.trace.end(request.span, sim_.now());
    pending_.reset();
    for (auto& cb : request.callbacks) cb(false);
    if (queued_.has_value()) {
      auto [dir, cb] = std::move(*queued_);
      queued_.reset();
      set_view(dir, std::move(cb));
    }
    return;
  }

  std::shared_ptr<const lightfield::ViewSet> vs;
  SimDuration decompress_time = 0;
  bool ok = true;
  try {
    decompress_time = charge_decompress(compressed, request.id, vs);
  } catch (const DecodeError& e) {
    LON_LOG(kError, "client") << "view set decode failed: " << e.what();
    ok = false;
  }
  record.decompress_time = decompress_time;

  // Codec observability: bytes on the wire vs. pixels produced, keyed by the
  // wire format ("lfzc", "lfz2", ...), right next to the client.decompress
  // lifeline below.
  const char* codec = lfz::wire_label(compressed);
  const std::string codec_label = std::string("codec=") + codec;
  obs_.metrics.counter("codec.bytes_in", codec_label).inc(compressed.size());
  if (ok) {
    obs_.metrics.counter("codec.bytes_out", codec_label).inc(vs->pixel_bytes());
    obs_.metrics.gauge("codec.ratio", codec_label)
        .set(static_cast<double>(vs->pixel_bytes()) /
             static_cast<double>(compressed.size()));
  }
  obs_.metrics.histogram("codec.decode_ns", codec_label).record(decompress_time);

  const obs::SpanId decomp_span =
      obs_.trace.begin("client.decompress", sim_.now(), request.span);
  obs_.trace.arg(decomp_span, "bytes", compressed.size());
  obs_.trace.arg(decomp_span, "codec", codec);

  sim_.after(decompress_time,
             [this, record, decomp_span, vs = std::move(vs), ok,
              request = std::move(request)]() mutable {
               obs_.trace.end(decomp_span, sim_.now());
               AccessRecord final = record;
               final.delivered = sim_.now();
               accesses_.push_back(final);
               record_access(final);
               obs_.trace.arg(request.span, "outcome",
                              ok ? to_string(final.cls) : "decode_error");
               obs_.trace.end(request.span, sim_.now());
               if (ok) install_view_set(request.id, std::move(vs));
               pending_.reset();
               for (auto& cb : request.callbacks) cb(ok);
               if (queued_.has_value()) {
                 auto [dir, cb] = std::move(*queued_);
                 queued_.reset();
                 set_view(dir, std::move(cb));
               }
             });
}

void Client::install_view_set(const lightfield::ViewSetId& id,
                              std::shared_ptr<const lightfield::ViewSet> vs) {
  renderer_.add_view_set(id, std::move(vs));
  resident_.push_back(id);
  while (resident_.size() > static_cast<std::size_t>(std::max(1, config_.keep_view_sets))) {
    renderer_.remove_view_set(resident_.front());
    resident_.pop_front();
  }
}

render::ImageRGB8 Client::render_frame() const {
  const auto& lattice = renderer_.lattice();
  if (renderer_.can_render(direction_)) {
    return renderer_.render(direction_, config_.display_resolution);
  }
  // Snap to the nearest sample inside the resident view set (views at the
  // window edge clamp rather than fail — the paper's client shows the
  // nearest available sample view).
  const auto [row, col] = lattice.nearest_sample(direction_);
  const Spherical snapped = lattice.sample_direction(row, col);
  if (renderer_.can_render(snapped)) {
    return renderer_.render(snapped, config_.display_resolution);
  }
  return render::ImageRGB8(config_.display_resolution, config_.display_resolution);
}

}  // namespace lon::streaming
