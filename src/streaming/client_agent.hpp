// The client agent — paper section 3.5.
//
// "Since the client agent handles communication and caching on behalf of the
// client, the client only requires a low amount of computing and storage
// capability. ... the client agent maintains a cache of both view sets and
// the exNodes of view sets recently downloaded or pre-fetched."
//
// Request path for a view set, in order:
//   1. the agent's own memory cache (a *hit*);
//   2. a depot on the client's LAN, if the view set has been prestaged there;
//   3. the wide area network (LoRS multi-stream download from the server
//      depots named by the exNode, obtained from the DVS).
//
// Two anticipation mechanisms run on top:
//   * quadrant prefetch (figure 4): the cursor's quadrant within the current
//     view set selects the three neighbouring view sets to pull into the
//     agent cache;
//   * aggressive two-stage prestaging (figure 5): while the WAN is
//     otherwise idle, third-party copies stage *every* view set onto LAN
//     depots, ordered by angular proximity to the cursor and reordered as it
//     moves, without the data ever passing through the agent.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lbone/lbone.hpp"
#include "lightfield/lattice.hpp"
#include "lors/lors.hpp"
#include "obs/obs.hpp"
#include "policy/eviction.hpp"
#include "policy/latency.hpp"
#include "policy/lod.hpp"
#include "policy/motion.hpp"
#include "policy/prefetch.hpp"
#include "streaming/admission.hpp"
#include "streaming/cache.hpp"
#include "streaming/dvs.hpp"
#include "streaming/types.hpp"

namespace lon::streaming {

class SiteCache;

/// Modeled cost of serving a view set out of the agent's memory cache —
/// the ~1e-4 s "hit" line of figure 12.
inline constexpr SimDuration kAgentHitLatency = 100 * kMicrosecond;

/// Replicas closer than this count as "on the client's LAN" when classifying
/// where an access was served from.
inline constexpr SimDuration kLanThreshold = 5 * kMillisecond;

/// Graceful-degradation ladder. Under sustained deadline misses the agent
/// descends one rung at a time, shrinking how much work each interaction
/// costs; sustained on-time deliveries climb back up. Order matters and is
/// tested: LAN-only restriction comes before dropping resolution, which
/// comes before suppressing anticipation entirely.
enum class DegradeLevel {
  kFull,        ///< normal operation
  kLanOnly,     ///< prefetch only what is already on LAN depots
  kCoarseLod,   ///< serve WAN demand misses from the coarse-resolution database
  kDemandOnly,  ///< no prefetch, no staging: demand traffic only
};

[[nodiscard]] const char* to_string(DegradeLevel level);

/// How a delivery concluded. kShed is an explicit overload refusal by the
/// agent's own admission control: the payload is empty but the request is
/// retryable and must not be treated as a depot failure.
enum class DeliveryStatus { kOk, kFailed, kShed };

struct ClientAgentConfig {
  std::uint64_t cache_bytes = 512ull << 20;  ///< agent view-set cache budget

  bool prefetch = true;                      ///< master prefetch switch

  // --- Policy engine --------------------------------------------------------

  /// Which sets to prefetch: the paper's quadrant policy (figure 4) or the
  /// motion-model-driven predictive scheduler. Ignored when !prefetch.
  policy::PrefetchStrategy prefetch_strategy = policy::PrefetchStrategy::kQuadrant;
  /// Cache replacement: LRU (paper), angular distance, or the hybrid that
  /// protects the demand working set from prefetch pollution.
  policy::EvictionStrategy eviction = policy::EvictionStrategy::kLru;
  policy::FetchLatencyEstimator::Config latency;  ///< WAN latency prior
  /// Concurrent prefetch fetches allowed (0 = unlimited, the legacy
  /// behaviour of issuing every quadrant target).
  std::size_t prefetch_max_inflight = 0;
  /// Byte budget for in-flight prefetches, charged at the EWMA of observed
  /// payload sizes (0 = unlimited).
  std::uint64_t prefetch_max_bytes = 0;

  bool staging = false;                      ///< aggressive prestaging (figure 5)
  std::vector<std::string> lan_depots;       ///< staging targets (round-robin)
  int staging_concurrency = 4;               ///< third-party copies in flight
  enum class StagingOrder { kProximity, kFifo };
  StagingOrder staging_order = StagingOrder::kProximity;
  /// Ablation of the paper's suggested improvement: "suppressing prefetching
  /// while processing a miss may reduce this effect."
  bool pause_staging_on_miss = false;
  SimDuration staging_lease = 24 * 3600 * kSecond;

  sim::TransferOptions wan_net{.weight = 1.0, .streams = 4};
  sim::TransferOptions lan_net{.weight = 1.0, .streams = 2};
  sim::TransferOptions staging_net{.weight = 1.0, .streams = 4};

  // --- Self-healing ---------------------------------------------------------

  /// Per-download retry discipline handed to LoRS (rounds over the replica
  /// set with backoff). Distinct from max_refetch, which re-*resolves*.
  lors::RetryPolicy retry;
  /// After a download fails outright, how many times the agent invalidates
  /// its cached exNode and re-resolves through the DVS before giving up —
  /// the cure for stale exNodes (expired leases, revoked soft allocations).
  int max_refetch = 2;
  /// Keep staged (soft, leased) copies alive: periodically extend every
  /// staged view set's allocations. Off by default; enable for long sessions
  /// where the staging lease is shorter than the visualization.
  bool lease_refresh = false;
  SimDuration lease_refresh_interval = 0;  ///< 0 = staging_lease / 4
  /// When a staged copy turns out dead (failed download or failed refresh),
  /// queue the view set for prestaging again.
  bool restage_on_failure = true;
  /// Cooperative site cache shared by every co-sited agent (null = none).
  /// With it, staging first consults the shared index (adopting copies a
  /// neighbour already staged), restages of the same view set coalesce into
  /// one WAN fetch, and lease expiry invalidates all agents atomically.
  SiteCache* site_cache = nullptr;

  // --- Concurrency ----------------------------------------------------------

  /// Pool for batched stripe verification inside LoRS downloads
  /// (lors::DownloadOptions::pool). Null = serial verification.
  ThreadPool* pool = nullptr;

  // --- Overload protection --------------------------------------------------

  /// Admission control over the demand path: bounded in-service demand
  /// fetches, per-client fair-share token buckets (keyed by the requesting
  /// client's node id) and deadline triage against the latency estimator.
  /// Disabled by default — legacy behaviour admits everything.
  AdmissionConfig admission;
  /// The client's time-to-need: an interactive deadline for one access.
  /// Feeds both admission triage and the degradation ladder. 0 = none.
  SimDuration deadline = 0;
  /// Master switch for the graceful-degradation ladder.
  bool degrade = false;
  int degrade_after_misses = 3;  ///< consecutive deadline misses per downgrade
  int upgrade_after_hits = 8;    ///< consecutive on-time deliveries per upgrade
  /// Shed/degrade events on one view set before the agent reports it hot to
  /// the DVS (which relays to the server agent for replica augmentation).
  /// 0 = no reporting.
  int hot_report_threshold = 0;

  // --- Continuous LOD streaming ---------------------------------------------

  /// One coarse tier of the scene: the same lattice geometry published at a
  /// lower view resolution, with its own DVS namespace (see
  /// lightfield::MultiDatabase::lod_ladder). Tier k serves lod k+1.
  struct LodTier {
    DvsServer* dvs = nullptr;
    std::size_t resolution = 0;
  };
  /// Coarse tiers, finest first. With the ladder (`degrade`) the kCoarseLod
  /// rung uses the coarsest tier; with `lod_streaming` the policy selector
  /// picks a tier per demand access. Empty = single-resolution delivery.
  std::vector<LodTier> lod_tiers;
  /// Per-access LOD selection: when the latency estimator predicts a
  /// full-resolution fetch would miss `deadline`, serve the finest coarse
  /// tier that fits instead — degrade resolution, never fluidity.
  bool lod_streaming = false;
  /// After a coarse demand serve, fetch the full-resolution bytes in the
  /// background and swap them into the cache (progressive refinement).
  bool lod_refine = true;
};

class ClientAgent {
 public:
  ClientAgent(sim::Simulator& sim, sim::Network& net, ibp::Fabric& fabric,
              lors::Lors& lors, DvsServer& dvs,
              const lightfield::SphericalLattice& lattice, sim::NodeId node,
              ClientAgentConfig config, obs::Context* obs = nullptr);
  ~ClientAgent();

  [[nodiscard]] sim::NodeId node() const { return node_; }
  [[nodiscard]] const ClientAgentConfig& config() const { return config_; }

  /// Delivery of a view set to a requesting client. `comm_latency` is the
  /// data-access time as measured at the agent (figure 12); `cls` says where
  /// the bytes came from. Empty payload = the view set could not be obtained.
  struct Delivery {
    std::shared_ptr<const Bytes> payload;  ///< compressed bytes (never null)
    AccessClass cls = AccessClass::kWan;
    SimDuration comm_latency = 0;
    /// kShed = overload refusal (retry with backoff); kFailed = the view set
    /// could not be obtained. Either way the payload is empty.
    DeliveryStatus status = DeliveryStatus::kOk;
    /// Payload bytes physically copied to produce this delivery: 0 for a
    /// cache hit (the slab is handed over by reference), one pass over the
    /// compressed payload for a cold fetch. Feeds AccessRecord.copied_bytes
    /// and the bytes-copied-per-access perf gate.
    std::uint64_t copied_bytes = 0;
    /// Which tier served this delivery: 0 = full resolution, k >= 1 = the
    /// k-th coarse tier, a substitute for the canonical view set (LOD
    /// streaming pick or the kCoarseLod rung).
    int lod = 0;
  };
  using RichDeliverCallback = std::function<void(const Delivery&)>;

  /// Demand request from a client (invoked at agent time — the client models
  /// its own network legs). Triggers the access path above. `parent_span`
  /// carries the client's request span across the client->agent hop so the
  /// whole lifeline nests in one trace.
  void request_view_set(const lightfield::ViewSetId& id, RichDeliverCallback on_done,
                        obs::SpanId parent_span = 0);
  /// Variant carrying the requesting client's identity, which keys the
  /// per-client fair-share token bucket. The identity-less overload charges
  /// everything to one aggregate bucket (the agent's own node).
  void request_view_set(const lightfield::ViewSetId& id, sim::NodeId requester,
                        RichDeliverCallback on_done, obs::SpanId parent_span = 0);

  /// Cursor update from the client: drives quadrant prefetch and reorders
  /// the prestaging queue by proximity.
  void notify_cursor(const Spherical& dir);

  /// Begins aggressive prestaging of the entire database (no-op unless
  /// config.staging). "As soon as visualization of a dataset begins,
  /// aggressive prestaging to the LAN depot is initiated, and continues
  /// uninterrupted until the entire dataset has been localized."
  void start_staging();

  /// Variant that first discovers staging depots through the L-Bone — "we
  /// use the L-Bone tools to dynamically identify appropriate depots to
  /// serve as the network caches" (paper section 2.2). Picks up to `count`
  /// nearby depots that can each hold roughly 1/count of the database for
  /// `lease`, replacing config.lan_depots. Enables staging if disabled.
  /// Returns how many depots were selected (0 = staging cannot start).
  std::size_t start_staging(const lbone::Directory& directory, std::size_t count,
                            std::uint64_t database_bytes, SimDuration lease);

  /// Stops the lease-refresh daemon (started automatically by start_staging
  /// when config.lease_refresh is set). Safe to call when not running.
  void stop_lease_refresh();

  [[nodiscard]] bool staging_complete() const {
    return unstaged_.empty() && staging_inflight_ == 0;
  }
  [[nodiscard]] bool is_staged(const lightfield::ViewSetId& id) const {
    return staged_.contains(id);
  }
  /// This agent's value of one of its registry counters ("agent.hits",
  /// "prefetch.useful", ...). Throws std::invalid_argument on a name the
  /// agent never registered. Run-wide totals: Registry::counter_total.
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;
  [[nodiscard]] const ViewSetCache& cache() const { return cache_; }
  /// Prefetch fetches currently in flight (for budget tests).
  [[nodiscard]] std::size_t prefetch_inflight() const { return prefetch_inflight_; }
  [[nodiscard]] const policy::CursorMotionModel& motion_model() const { return motion_; }
  /// Current rung of the graceful-degradation ladder.
  [[nodiscard]] DegradeLevel degrade_level() const { return level_; }
  /// Demand fetches currently in service (the admission queue depth).
  [[nodiscard]] int demand_inflight() const { return demand_inflight_; }
  /// WAN demand downloads in flight right now (also the registry gauge
  /// agent.demand_wan_active). Balance invariant: zero whenever the agent is
  /// idle — every increment in download() must be matched across the
  /// shed/retry/coarse completion paths.
  [[nodiscard]] int demand_wan_active() const { return demand_wan_active_; }

 private:
  struct Waiter {
    RichDeliverCallback cb;
    SimTime arrived = 0;
    bool demand = false;  ///< prefetches pass a null callback
    obs::SpanId parent = 0;
  };
  struct Inflight {
    std::vector<Waiter> waiters;
    AccessClass cls = AccessClass::kWan;
    int attempts = 0;  ///< end-to-end re-resolutions consumed so far
    obs::SpanId span = 0;  ///< agent.fetch span covering the whole fetch
    SimTime started = 0;   ///< when the fetch began (feeds the latency EWMA)
    bool prefetch_origin = false;  ///< started by the prefetcher
    bool demand_joined = false;    ///< a demand request later joined it
    std::uint64_t prefetch_charge = 0;  ///< bytes charged to the prefetch budget
    int lod = 0;                   ///< tier being fetched (0 = full resolution)
    bool refinement = false;       ///< background full-res upgrade of a coarse serve
    /// The flight resolved through a staged/site copy. On a failed retry the
    /// agent drops that copy exactly once (see the drop_staged plumbing) —
    /// this is what keeps agent.restaged from double-counting one incident.
    bool from_staged = false;
  };

  struct Metrics {
    obs::Counter& requests;
    obs::Counter& hits;
    obs::Counter& lan_accesses;
    obs::Counter& wan_accesses;
    obs::Counter& prefetches;
    obs::Counter& staged;
    obs::Counter& staging_failures;
    obs::Counter& refetches;
    obs::Counter& invalidations;
    obs::Counter& restaged;
    obs::Counter& lease_refreshes;
    obs::Counter& predictions;           ///< policy.predictions
    obs::Counter& prefetch_bytes;        ///< prefetch.bytes
    obs::Counter& prefetch_useful;       ///< prefetch.useful
    obs::Counter& prefetch_useful_bytes; ///< prefetch.useful_bytes
    obs::Counter& pollution_evictions;   ///< cache.pollution_evictions
    obs::Counter& rejected_prefetch;     ///< cache.rejected_prefetch
    obs::Counter& demand_shed;           ///< agent.demand_shed
    obs::Counter& shed_queue_full;       ///< agent.shed_queue_full
    obs::Counter& shed_no_tokens;        ///< agent.shed_no_tokens
    obs::Counter& shed_deadline;         ///< agent.shed_deadline
    obs::Counter& downgrades;            ///< agent.downgrades
    obs::Counter& upgrades;              ///< agent.upgrades
    obs::Counter& degrade_lan_only;      ///< agent.degrade_lan_only
    obs::Counter& degrade_lod;           ///< agent.degrade_lod
    obs::Counter& degrade_demand_only;   ///< agent.degrade_demand_only
    obs::Counter& hot_reports;           ///< agent.hot_reports
    obs::Counter& lod_coarse_serves;     ///< agent.lod_coarse_serves
    obs::Counter& lod_refinements;       ///< agent.lod_refinements
    obs::Counter& lod_refined;           ///< agent.lod_refined
    /// agent.payload_copy_bytes: payload bytes physically copied on the
    /// demand path. A warm cache hit adds zero; a cold fetch adds exactly one
    /// pass over its compressed payload.
    obs::Counter& payload_copy_bytes;
    obs::Counter& restage_coalesced;     ///< agent.restage_coalesced
    obs::Counter& site_hits;             ///< agent.site_hits
    obs::Counter& site_adopted;          ///< agent.site_adopted
    obs::Counter& stage_wan_bytes;       ///< agent.stage_wan_bytes
    obs::Gauge& demand_wan_active;       ///< agent.demand_wan_active
  };

  /// Starts (or joins) a fetch of `id`; cb may be null for prefetch.
  void fetch(const lightfield::ViewSetId& id, RichDeliverCallback cb, bool demand,
             obs::SpanId parent = 0);

  /// Resolves the exNode (staged > cached > DVS) then downloads. A demand
  /// flight that would go to the WAN first asks choose_lod() whether a
  /// coarse tier should serve instead (`allow_coarse` breaks recursion when
  /// the coarse lookup itself missed).
  void resolve_and_download(const lightfield::ViewSetId& id, bool allow_coarse = true);

  /// Number of coarse tiers configured.
  [[nodiscard]] int max_lod() const {
    return static_cast<int>(config_.lod_tiers.size());
  }

  /// Which tier a fresh demand fetch of `id` should target right now: the
  /// ladder forces the coarsest tier at kCoarseLod and below; otherwise,
  /// with lod_streaming on, the selector fits the latency prediction into
  /// the remaining deadline budget. 0 = full resolution.
  [[nodiscard]] int choose_lod(const lightfield::ViewSetId& id, SimTime started) const;

  /// Tries to serve the flight for `id` from coarse tier `lod` (>= 1).
  /// Returns true if a coarse lookup was dispatched (it owns the flight).
  bool try_lod(const lightfield::ViewSetId& id, int lod);

  /// Kicks a background full-resolution fetch of `id` that will swap the
  /// coarse cache entry for the real bytes (no-op if one is already in
  /// flight, the full bytes are cached, or refinement is disabled).
  void start_refinement(const lightfield::ViewSetId& id);

  /// Feeds the degradation ladder one deadline outcome.
  void observe_deadline(bool miss);

  /// Counts shed/degrade pressure on `id`; past the threshold the DVS is
  /// told the view set is hot (fire-and-forget, triggers augmentation).
  void note_pressure(const lightfield::ViewSetId& id);

  /// Answers a demand request with an explicit kShed delivery.
  void deliver_shed(const lightfield::ViewSetId& id, AdmissionDecision reason,
                    RichDeliverCallback cb, obs::SpanId parent);

  /// Where a download of this exNode will be served from: LAN if the best
  /// reachable replica across all extents is within kLanThreshold.
  [[nodiscard]] AccessClass classify(const exnode::ExNode& exnode) const;

  /// Best latency-class guess for fetching `id` right now (staged/known
  /// exNode → classify; unknown → WAN). Feeds the predictive scoring.
  [[nodiscard]] policy::FetchClass fetch_class_of(const lightfield::ViewSetId& id) const;

  /// Issues prefetches chosen by the policy, within the inflight/byte budget.
  void run_prefetch(const Spherical& dir);

  /// Mirrors the cache's pollution/rejection counters into the obs registry.
  void sync_cache_metrics();

  void download(const lightfield::ViewSetId& id, const exnode::ExNode& exnode,
                AccessClass cls);

  /// Completes a fetch: `data` is the pooled download slab (aliased into the
  /// cache and deliveries, never copied), `copied_bytes` the payload bytes
  /// physically copied obtaining it (LoRS landing passes).
  void finish_fetch(const lightfield::ViewSetId& id, std::shared_ptr<Bytes> data,
                    std::uint64_t copied_bytes);

  /// Drops every cached belief about `id`. With drop_staged (the default)
  /// the staged entry and any shared site copy go too, and the id is queued
  /// for prestaging again; a retry whose flight never touched the staged
  /// copy passes false so a healthy (possibly just-restaged) replica is not
  /// destroyed — and restaged not double-counted — for a WAN-side failure.
  void invalidate(const lightfield::ViewSetId& id, bool drop_staged = true);

  /// Queues `id` for prestaging again (deduplicated against the queue).
  void queue_restage(const lightfield::ViewSetId& id);

  /// Site-cache fanout: a shared copy of `id` expired or died; drop the
  /// derived local state and requeue staging.
  void on_site_invalidate(const lightfield::ViewSetId& id);

  // Lease-refresh daemon.
  void start_lease_refresh();
  void lease_refresh_tick(SimDuration interval);

  // Staging machinery.
  void staging_pump();
  void stage_one(const lightfield::ViewSetId& id);
  [[nodiscard]] std::optional<std::size_t> pick_next_stage() const;

  sim::Simulator& sim_;
  sim::Network& net_;
  ibp::Fabric& fabric_;
  lors::Lors& lors_;
  DvsServer& dvs_;
  const lightfield::SphericalLattice& lattice_;
  sim::NodeId node_;
  ClientAgentConfig config_;
  obs::Context& obs_;
  obs::Scope scope_;
  Metrics metrics_;

  ViewSetCache cache_;
  std::unordered_map<lightfield::ViewSetId, exnode::ExNode, lightfield::ViewSetIdHash>
      exnode_cache_;
  std::unordered_map<lightfield::ViewSetId, Inflight, lightfield::ViewSetIdHash> inflight_;

  // Staging state.
  bool staging_active_ = false;
  std::vector<lightfield::ViewSetId> unstaged_;
  std::unordered_map<lightfield::ViewSetId, exnode::ExNode, lightfield::ViewSetIdHash>
      staged_;
  int staging_inflight_ = 0;
  std::unordered_set<lightfield::ViewSetId, lightfield::ViewSetIdHash>
      staging_ids_;  ///< view sets with a staging attempt in flight
  std::size_t staging_rr_ = 0;  ///< round-robin over LAN depots
  int demand_wan_active_ = 0;
  std::optional<sim::TimerId> refresh_timer_;
  std::optional<std::size_t> site_listener_;  ///< token in the site cache

  // Overload-protection state.
  AdmissionController admission_;
  DegradeLevel level_ = DegradeLevel::kFull;
  int miss_streak_ = 0;     ///< consecutive deadline misses at this rung
  int hit_streak_ = 0;      ///< consecutive on-time deliveries at this rung
  int demand_inflight_ = 0; ///< demand fetches in service (admission queue)
  std::unordered_map<lightfield::ViewSetId, int, lightfield::ViewSetIdHash>
      pressure_;  ///< shed/degrade events per id, toward hot_report_threshold

  lightfield::ViewSetId cursor_vs_{0, 0};

  // Policy engine state.
  policy::CursorMotionModel motion_;
  policy::FetchLatencyEstimator latency_;
  policy::LodSelector lod_selector_;
  std::vector<double> lod_cost_ratios_;  ///< per-tier cost vs a full fetch
  std::unique_ptr<policy::PrefetchPolicy> prefetch_policy_;
  std::size_t prefetch_inflight_ = 0;
  std::uint64_t prefetch_bytes_inflight_ = 0;
  double payload_bytes_ewma_ = 0.0;  ///< prefetch budget charge estimate
  std::uint64_t synced_pollution_ = 0;  ///< cache counters already mirrored
  std::uint64_t synced_rejected_ = 0;
};

}  // namespace lon::streaming
