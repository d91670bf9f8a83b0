// The client — the graphical console the user interacts with.
//
// "The client process appears as the graphical interface interacting with
// the user. It takes user input and renders the desired view, if that view
// is within the current view set that is locally stored. Otherwise, it asks
// the client agent to request new view sets and waits for the agent to
// update it. The view sets received by the client are then decompressed."
//
// The client and agent are distinct machines on a LAN: every delivery pays
// the agent-to-client transfer. Decompression is real lfz work; the virtual
// time charged for it is either the measured wall time of that work
// (benchmarks, figure 8) or a modeled bytes/rate cost (deterministic tests).
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "lightfield/renderer.hpp"
#include "streaming/client_agent.hpp"
#include "streaming/types.hpp"

namespace lon::streaming {

struct ClientConfig {
  std::size_t display_resolution = 200;  ///< client frame size
  int keep_view_sets = 1;                ///< decompressed sets held locally
  enum class Timing { kModeled, kMeasured };
  Timing timing = Timing::kModeled;
  /// Modeled decompression throughput, in *uncompressed output* bytes/s.
  /// 30 MB/s lands the 200^2..500^2 view sets in the paper's 0.15-1.8 s band.
  double decompress_bytes_per_sec = 30e6;
  /// When false, delivered bytes are not actually decoded (the shared blank
  /// view set of the lattice's shape is installed and decompression time is
  /// modeled from the view-set geometry). For communication-latency studies
  /// over filler databases.
  bool decode = true;
  sim::TransferOptions lan_net;          ///< client <-> agent transfers

  /// Retry discipline for kShed deliveries: the serving tier refused under
  /// load, so the client waits out a jittered backoff and asks again —
  /// crucially *without* touching the depot-failure machinery (no failover,
  /// no exNode repair: nothing is broken, the system is busy). max_attempts
  /// counts total tries; the default gives three backed-off retries.
  lors::RetryPolicy shed_retry{.max_attempts = 4, .base_backoff = 100 * kMillisecond};
};

class Client {
 public:
  Client(sim::Simulator& sim, sim::Network& net, const lightfield::LatticeConfig& lattice,
         sim::NodeId node, ClientAgent& agent, ClientConfig config,
         obs::Context* obs = nullptr);

  /// Points the view at `dir`. If the containing view set is locally loaded
  /// the call completes immediately; otherwise it requests the view set from
  /// the agent and completes (in virtual time) once the set is decompressed
  /// and renderable. Calling again while a request is pending supersedes any
  /// earlier queued target (the user moved on).
  void set_view(const Spherical& dir, std::function<void(bool ok)> on_ready = {});

  /// Renders the current view (table lookups only). Falls back to the
  /// nearest loaded sample view when interpolation would need a neighbour
  /// set that is not resident.
  [[nodiscard]] render::ImageRGB8 render_frame() const;

  [[nodiscard]] const Spherical& view_direction() const { return direction_; }
  [[nodiscard]] const std::vector<AccessRecord>& accesses() const { return accesses_; }
  [[nodiscard]] const lightfield::Renderer& renderer() const { return renderer_; }
  [[nodiscard]] bool request_pending() const { return pending_.has_value(); }

 private:
  struct PendingRequest {
    lightfield::ViewSetId id;
    SimTime requested = 0;
    std::vector<std::function<void(bool)>> callbacks;
    obs::SpanId span = 0;  ///< client.request — root of the access lifeline
    int shed_attempts = 0; ///< tries answered with kShed so far
  };

  struct Metrics {
    obs::Counter& accesses;
    obs::Counter& hits;
    obs::Counter& lan;
    obs::Counter& wan;
    obs::LatencyHistogram& total_ns;
    obs::LatencyHistogram& comm_ns;
    obs::LatencyHistogram& decompress_ns;
    obs::LatencyHistogram& comm_hit_ns;
    obs::LatencyHistogram& comm_lan_ns;
    obs::LatencyHistogram& comm_wan_ns;
    obs::Counter& shed_retries;          ///< session.shed_retries
    obs::LatencyHistogram& shed_wait_ns; ///< session.shed_wait_ns (per backoff)
  };

  void begin_request(const lightfield::ViewSetId& id, std::function<void(bool)> cb);
  /// Sends (or re-sends) the pending request to the agent.
  void send_request(const lightfield::ViewSetId& id, obs::SpanId span);
  void on_delivery(const ClientAgent::Delivery& delivery);
  /// Mirrors the AccessRecord into the session.* registry metrics.
  void record_access(const AccessRecord& record);
  void install_view_set(const lightfield::ViewSetId& id,
                        std::shared_ptr<const lightfield::ViewSet> vs);

  /// Decodes `compressed` into `out` and returns the virtual time to charge.
  /// Without decode, `out` is the process-wide blank set of the lattice's
  /// shape. Throws DecodeError on a corrupt payload, and on a view set whose
  /// id is not `id` or whose span is not the lattice's.
  [[nodiscard]] SimDuration charge_decompress(
      const Bytes& compressed, const lightfield::ViewSetId& id,
      std::shared_ptr<const lightfield::ViewSet>& out) const;

  sim::Simulator& sim_;
  sim::Network& net_;
  sim::NodeId node_;
  ClientAgent& agent_;
  ClientConfig config_;
  obs::Context& obs_;
  obs::Scope scope_;
  Metrics metrics_;

  Rng shed_rng_;  ///< jitter stream for shed-retry backoff, seeded from the node id
  lightfield::Renderer renderer_;
  std::deque<lightfield::ViewSetId> resident_;  // eviction order (FIFO)
  Spherical direction_;
  std::optional<PendingRequest> pending_;
  std::optional<std::pair<Spherical, std::function<void(bool)>>> queued_;
  std::vector<AccessRecord> accesses_;
};

}  // namespace lon::streaming
