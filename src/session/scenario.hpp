// Composable adversarial scenarios — the SLO harness.
//
// A Scenario is one named, fully-scripted run: an ExperimentConfig plus a
// per-client cursor script and start offset. run_scenario assembles the
// session::System, publishes the database, and drives every script to
// completion; it is the only driver (run_experiment is its one-client
// wrapper). The canned builders below compose the robustness machinery of
// the earlier PRs (faults + retries + repair, admission + degradation +
// augmentation, staging leases, site caching) into deterministic stress
// runs whose virtual-time metrics ci/perf_gate.py hard-fails on.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "session/experiment.hpp"

namespace lon::session {

struct ScenarioClient {
  CursorScript script;
  SimDuration start = 0;  ///< offset from script start (stagger)
};

struct Scenario {
  std::string name;
  ExperimentConfig base;  ///< topology, faults, overload knobs, client knobs
  std::vector<ScenarioClient> clients;
  /// Pump prestaging to completion before the first client starts — the
  /// "warm site cache" half of the cold/warm pair.
  bool warm_site_cache = false;
  /// The interactivity SLO this scenario is judged against. Reported with
  /// the results; the enforcement lives in ci/perf_gate.py.
  SimDuration slo_deadline = kSecond;
  /// After the last script step completes, keep pumping the simulator until
  /// the event queue drains — lets background refinements (and any other
  /// tail work) land so the run's counters balance. Duration still measures
  /// first start to last script completion.
  bool drain = false;
};

struct ScenarioResult {
  std::string name;

  struct PerClient {
    std::vector<streaming::AccessRecord> accesses;
    AccessSummary summary;
    std::size_t failed_accesses = 0;
    std::size_t delivered = 0;  ///< accesses that actually produced a view
    /// From this client's own obs histogram ("component=client,inst=i").
    double p50_total_s = 0.0;
    double p99_total_s = 0.0;
  };
  std::vector<PerClient> clients;

  std::size_t total_accesses = 0;
  std::size_t failed_accesses = 0;
  double mean_total_s = 0.0;
  double p99_worst_s = 0.0;  ///< worst per-client p99
  double p99_mean_s = 0.0;   ///< mean of per-client p99s
  /// Demand requests the agent refused over all it saw — the shed rate.
  double shed_fraction = 0.0;
  /// Starvation check: the worst-off client's delivered count.
  std::size_t min_client_delivered = 0;

  fault::FaultStats fault_stats;
  SimTime duration = 0;  ///< first client start to last completion
  bool staging_complete = false;
  double db_compressed_bytes = 0;  ///< published (full-resolution) database size
  double db_uncompressed_bytes = 0;

  // Simulator-core cost counters (deterministic). The registry holds the
  // same values as sim.events_executed / net.reallocs /
  // net.realloc_flows_touched, next to sim.events_scheduled.
  std::uint64_t sim_events = 0;     ///< events executed
  std::uint64_t net_reallocs = 0;   ///< max-min solves run
  std::uint64_t net_realloc_flows_touched = 0;  ///< flows re-rated, summed
  double wall_s = 0.0;  ///< host wall-clock of the run — NOT deterministic

  /// Every counter of the run (agent.*, lors.*, ibp.*, sim.*, ...), summed
  /// across instances with obs->metrics.counter_total(name).
  std::shared_ptr<obs::Context> obs;
};

/// Runs one scenario to completion on the virtual clock. Deterministic:
/// same scenario, same result, bit for bit.
ScenarioResult run_scenario(const Scenario& scenario);

// --- Canned adversarial scenarios ---------------------------------------------
//
// Each composes the machinery of several PRs; bench_scenarios reports them
// and ci/perf_gate.py enforces their SLOs. Callers may tweak the returned
// Scenario (the chaos-soak test flips on real content + decoding).

/// N concurrent viewers on `base`'s topology: client i replays the standard
/// seeded walk of `accesses` steps with seed `seed + i`, starting i * `stagger`
/// after the first, so the scripts interleave rather than move in lockstep.
Scenario multi_client(const ExperimentConfig& base, int clients, std::size_t accesses,
                      std::uint64_t seed, SimDuration stagger);

/// Flash crowd: `clients` viewers pile onto one freshly published object
/// over the WAN within a couple of seconds. With `admission` the agent
/// sheds the excess (clients retry with backoff), walks the degradation
/// ladder, and reports hot view sets for replica augmentation; without it
/// every request queues on the trunk and latency collapses.
Scenario flash_crowd(int clients, bool admission);

/// Teleport-heavy browsing under a fault plan: depot crash + request-drop
/// + corruption windows while every client repeatedly jumps across the
/// sphere (worst case for prefetch), with retries, failover and repair on.
Scenario teleport_under_faults(int clients = 4);

/// Lease-expiry wave: aggressive prestaging with a staging lease short
/// enough to expire mid-playback and no refresher — the agent must detect
/// the evictions and re-resolve against the WAN copies.
Scenario lease_expiry_wave(int clients = 4);

/// Cold vs. warm site cache: the same browse either races prestaging
/// (cold) or starts after it completes (warm). The clients sit behind
/// several co-sited agents sharing one cooperative SiteCache index, so the
/// warm half measures site-wide sharing, not per-client staging luck.
Scenario site_cache(bool warm, int clients = 4);

/// Co-sited flash crowd: `clients` viewers spread round-robin over
/// clients/10 co-sited agents, all prestaging the same database over one
/// WAN trunk (the restage stampede). With `site` the cooperative SiteCache
/// coalesces the staging to one WAN copy per view set; without it every
/// agent restages independently — the control. Both rows run the sharded
/// DVS directory.
Scenario co_sited_crowd(bool site, int clients = 100);

/// PDA-class constrained link (PR 7): two viewers pan across a fresh WAN
/// publish behind a last-mile trunk so thin that a full-resolution view set
/// cannot arrive inside the 1 s interactivity deadline. With `lod_streaming`
/// the policy engine serves the finest coarse tier that fits and refines to
/// full resolution in the background — degrading resolution, never fluidity;
/// without it (the control) every access blows the deadline.
Scenario pda_link(bool lod_streaming);

}  // namespace lon::session
