// End-to-end remote-visualization experiments — paper section 4.2/4.3.
//
// "We ran tests for three cases as follows:
//   1. LFD stored in LAN, driven by client agent pre-fetch.
//   2. LFD stored remotely in California and streamed by pre-fetching
//      initiated by client agent.
//   3. LFD stored remotely in California, aggressively pre-staged on a local
//      depot in LAN and pre-fetched by client agent from the LAN depot."
//
// Topology (the paper's actual configuration, section 4.3): the view sets
// are striped across three depots in "California" behind a shared 100 Mb/s
// WAN trunk (~35 ms one way), and — in case 3 — prestaged across four depots
// attached to the client agent by a 1 Gb/s LAN. Client and client agent are
// distinct machines on that LAN. In all three cases the same quadrant
// prefetch policy runs on the client agent.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "lightfield/lattice.hpp"
#include "session/cursor.hpp"
#include "session/metrics.hpp"
#include "streaming/client.hpp"
#include "streaming/client_agent.hpp"
#include "streaming/types.hpp"

namespace lon::session {

enum class Case {
  kLanData = 1,         ///< case 1: database already on the LAN depots
  kWanStreaming = 2,    ///< case 2: WAN + prefetch only
  kWanWithLanDepot = 3, ///< case 3: WAN + aggressive LAN-depot prestaging
};

[[nodiscard]] const char* to_string(Case c);

struct ExperimentConfig {
  lightfield::LatticeConfig lattice = lightfield::LatticeConfig::paper(200);
  Case which = Case::kWanWithLanDepot;

  // Workload.
  SimDuration dwell = 2 * kSecond;   ///< user pause between movements
  std::size_t accesses = 58;         ///< view-set requests the script generates
  std::uint64_t seed = 2003;
  /// When set, replaces the standard seeded walk (dwell/accesses/seed are
  /// then ignored) — how the policy bench replays its scripted cursor walks.
  std::optional<CursorScript> script;

  // Content policy: only the view sets the scripts touch are rendered; the
  // rest are published as size-matched filler. all_filler publishes filler
  // for everything and skips client-side decoding entirely — for
  // communication-latency-only studies (set client.decode = false too).
  bool all_filler = false;

  // Client behaviour.
  streaming::ClientConfig client;

  /// Agent behaviour: cache, prefetch policy, staging discipline, retries,
  /// admission, the degradation ladder and LOD streaming. System overwrites
  /// the fields the topology owns on every agent it builds: `staging` (set by
  /// the case), `lan_depots`, `lod_tiers`, `site_cache` and `pool`.
  streaming::ClientAgentConfig agent;

  // Topology.
  double wan_bandwidth_bps = 100e6;
  SimDuration wan_latency = 35 * kMillisecond;
  double wan_jitter = 0.05;
  double lan_bandwidth_bps = 1e9;
  SimDuration lan_latency = 50 * kMicrosecond;
  int wan_depot_count = 3;   ///< "striped across three depots in California"
  int lan_depot_count = 4;   ///< "striped across four depots ... by a 1Gb/s LAN"
  double depot_disk_bps = 80e6;
  std::uint64_t net_seed = 7;  ///< 0 disables jitter entirely
  /// Debug: force every max-min solve to cover the whole flow graph instead
  /// of only the affected component. Results must be identical either way;
  /// differential tests flip this to prove it.
  bool full_network_resolve = false;

  // Robustness / fault injection. The defaults reproduce the fault-free
  // runs exactly: no faults, no deadlines, no repair.
  int publish_replicas = 1;          ///< copies of each block across the WAN depots
  fault::FaultPlan faults;           ///< event times relative to script start
  ibp::FabricTimeouts timeouts;      ///< 0 = no per-operation deadlines

  // --- Cooperative site cache / sharded DVS ---------------------------------

  /// Client agents behind the one LAN switch; clients are assigned to them
  /// round-robin. 1 (default) is the historical single-agent topology.
  int site_agents = 1;
  /// Share one cooperative SiteCache index across all co-sited agents:
  /// staged copies are discoverable site-wide and concurrent restages of
  /// the same view set coalesce into a single WAN fetch.
  bool site_cache = false;
  /// DVS directory shards (lookup tables partitioned by ViewSetId hash).
  std::size_t dvs_shards = 1;
  /// Serial per-query service time a DVS shard charges (0 = uncontended).
  SimDuration dvs_shard_service = 0;
  /// > 0: the publisher runs a repair sweep this often, probing a slice of
  /// the database's exNodes and re-replicating extents that lost replicas
  /// to crashed depots back up to publish_replicas (healed exNodes are
  /// re-installed into the DVS).
  SimDuration repair_interval = 0;
  std::size_t repair_batch = 4;      ///< exNodes probed per sweep

  // Concurrency. The default reproduces the serial seed behaviour exactly.
  /// CPU pool for the agents' batched LoRS stripe verification. Virtual
  /// results do not depend on it.
  ThreadPool* pool = nullptr;

  /// Coarse tiers of the scene (view resolutions), published next to the
  /// full database, each in its own DVS namespace. The agent's ladder
  /// (`agent.degrade`) serves the coarsest at its kCoarseLod rung; with
  /// `agent.lod_streaming` it picks the finest tier that fits the deadline.
  std::vector<std::size_t> lod_resolutions;

  /// Run the server-side generator/augmenter behind the DVS: one LIFO
  /// generator that renders DVS misses and never refuses one, and fans hot
  /// view sets out to the LAN depots.
  bool server_agent = false;
  int augment_threshold = 0;      ///< hot reports before fanning replicas out
  SimDuration augment_cooldown = 60 * kSecond;  ///< per-view-set augment hysteresis
};

/// One client's view of a run (run_experiment drives exactly one). Agent
/// and layer counters live in `obs->metrics`; read them with counter_total.
struct ExperimentResult {
  std::vector<streaming::AccessRecord> accesses;
  AccessSummary summary;
  bool staging_complete = false;
  SimTime script_duration = 0;         ///< virtual time from first to last access
  double db_compressed_bytes = 0;      ///< published database size
  double db_uncompressed_bytes = 0;
  std::size_t failed_accesses = 0;     ///< view requests that never delivered
  /// The run's private observability context: every component reported into
  /// `obs->metrics`, and `obs->trace` (enabled for experiments) holds the
  /// full span tree — export it with write_chrome_trace / write_jsonl.
  std::shared_ptr<obs::Context> obs;
};

/// Builds the full system for one case, publishes the database, replays the
/// orchestrated cursor script (each movement waits for the view it needs,
/// then dwells), and returns the access trace. A one-client run_scenario.
ExperimentResult run_experiment(const ExperimentConfig& config);

}  // namespace lon::session
