#include "session/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "session/system.hpp"
#include "util/log.hpp"

namespace lon::session {

ScenarioResult run_scenario(const Scenario& scenario) {
  if (scenario.clients.empty()) {
    throw std::invalid_argument("run_scenario: no clients");
  }
  const auto wall_start = std::chrono::steady_clock::now();
  const ExperimentConfig& config = scenario.base;
  const int n_clients = static_cast<int>(scenario.clients.size());
  System sys(config, n_clients);

  std::vector<const CursorScript*> script_ptrs;
  script_ptrs.reserve(scenario.clients.size());
  for (const ScenarioClient& sc : scenario.clients) script_ptrs.push_back(&sc.script);
  const PublishResult& published = sys.publish(config, script_ptrs);

  sys.make_agent(config);
  sys.make_server_agent(config);
  sys.make_clients(config);
  sim::Simulator& sim = sys.sim;

  SimTime script_start = sim.now();
  sys.start_staging();
  if (scenario.warm_site_cache) {
    // Warm half of the cold/warm pair: let prestaging finish — on every
    // co-sited agent — before the first viewer arrives, so the site's LAN
    // replicas (and the shared index) are already in place.
    while (!sys.staging_complete() && sim.step()) {
    }
    script_start = sim.now();
  }

  fault::FaultInjector injector(sim, sys.net, sys.fabric, sys.obs.get());
  sys.arm_faults(injector, config.faults, script_start);
  sys.start_repair(config);

  // One driver per client: each replays its own script, waiting until every
  // view is renderable, then dwelling — the orchestrated operator never
  // abandons a pending view, which keeps the access count exact. Starts
  // follow the per-client offsets so the scripts interleave in virtual time.
  struct Driver {
    std::size_t step = 0;
    std::size_t failed = 0;
  };
  std::vector<Driver> drivers(scenario.clients.size());
  int remaining = n_clients;
  std::vector<std::function<void()>> advance(scenario.clients.size());
  for (int i = 0; i < n_clients; ++i) {
    const auto ci = static_cast<std::size_t>(i);
    advance[ci] = [&, ci] {
      Driver& d = drivers[ci];
      const CursorScript& script = scenario.clients[ci].script;
      if (d.step >= script.size()) {
        --remaining;
        return;
      }
      const CursorStep step = script.steps()[d.step++];
      sys.clients[ci]->set_view(step.direction, [&, ci, step](bool ok) {
        if (!ok) {
          ++drivers[ci].failed;
          LON_LOG(kWarn, "scenario")
              << "client " << ci << " view request failed; continuing";
        }
        sim.after(step.dwell, advance[ci]);
      });
    };
    sim.after(scenario.clients[ci].start, advance[ci]);
  }
  while (remaining > 0 && sim.step()) {
  }
  const SimTime script_end = sim.now();
  if (scenario.drain) {
    // Let tail work — background LOD refinements above all — run to
    // completion so the end-of-run counters balance (refined == started).
    while (sim.step()) {
    }
  }

  ScenarioResult result;
  result.name = scenario.name;
  double latency_sum = 0.0;
  double p99_sum = 0.0;
  result.min_client_delivered = static_cast<std::size_t>(-1);
  for (int i = 0; i < n_clients; ++i) {
    const auto ci = static_cast<std::size_t>(i);
    ScenarioResult::PerClient pc;
    pc.accesses = sys.clients[ci]->accesses();
    pc.summary = summarize(pc.accesses);
    pc.failed_accesses = drivers[ci].failed;
    pc.delivered = pc.accesses.size() - std::min(pc.accesses.size(), pc.failed_accesses);
    // Clients are constructed in index order, so client i owns the registry
    // instance labelled inst=i.
    const std::string labels = "component=client,inst=" + std::to_string(i);
    if (const obs::LatencyHistogram* h =
            sys.obs->metrics.find_histogram("session.total_ns", labels)) {
      pc.p50_total_s = h->p50() / 1e9;
      pc.p99_total_s = h->p99() / 1e9;
    }
    result.total_accesses += pc.accesses.size();
    result.failed_accesses += pc.failed_accesses;
    latency_sum += pc.summary.mean_total_s * static_cast<double>(pc.accesses.size());
    result.p99_worst_s = std::max(result.p99_worst_s, pc.p99_total_s);
    p99_sum += pc.p99_total_s;
    result.min_client_delivered = std::min(result.min_client_delivered, pc.delivered);
    result.clients.push_back(std::move(pc));
  }
  result.mean_total_s = result.total_accesses > 0
                            ? latency_sum / static_cast<double>(result.total_accesses)
                            : 0.0;
  result.p99_mean_s = p99_sum / static_cast<double>(n_clients);
  obs::Registry& metrics = sys.obs->metrics;
  const std::uint64_t requests = metrics.counter_total("agent.requests");
  result.shed_fraction =
      requests > 0 ? static_cast<double>(metrics.counter_total("agent.demand_shed")) /
                         static_cast<double>(requests)
                   : 0.0;
  result.fault_stats = injector.stats();
  result.duration = script_end - script_start;
  result.staging_complete = sys.staging_complete();
  result.db_compressed_bytes = static_cast<double>(published.compressed_bytes);
  result.db_uncompressed_bytes = static_cast<double>(published.uncompressed_bytes);

  // Simulator-core cost, surfaced both on the result and through the obs
  // registry (bench JSON, the gate's exact matches, artifact dumps).
  result.sim_events = sim.executed();
  result.net_reallocs = sys.net.reallocs();
  result.net_realloc_flows_touched = sys.net.realloc_flows_touched();
  result.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                wall_start)
                      .count();
  metrics.counter("sim.events_executed", "component=simnet").inc(result.sim_events);
  metrics.counter("sim.events_scheduled", "component=simnet").inc(sim.scheduled());
  metrics.counter("sim.events_cancelled", "component=simnet").inc(sim.cancelled());
  metrics.counter("net.reallocs", "component=simnet").inc(result.net_reallocs);
  metrics.counter("net.realloc_requests", "component=simnet")
      .inc(sys.net.realloc_requests());
  metrics.counter("net.realloc_flows_touched", "component=simnet")
      .inc(result.net_realloc_flows_touched);

  result.obs = std::move(sys.obs);
  return result;
}

namespace {

/// Small lattice every scenario shares: 8x16 = 128 view sets, enough spread
/// for distinct browse paths while publication stays fast.
lightfield::LatticeConfig scenario_lattice() {
  lightfield::LatticeConfig lattice;
  lattice.angular_step_deg = 7.5;
  lattice.view_set_span = 3;
  lattice.view_resolution = 200;
  return lattice;
}

/// Latency-study content policy: transfer/staging shape is faithful,
/// clients skip decode, everything stays deterministic in virtual time.
void filler_content(ExperimentConfig& base) {
  base.all_filler = true;
  base.client.decode = false;
  base.client.timing = streaming::ClientConfig::Timing::kModeled;
}

}  // namespace

Scenario multi_client(const ExperimentConfig& base, int clients, std::size_t accesses,
                      std::uint64_t seed, SimDuration stagger) {
  Scenario s;
  s.name = "multi-client";
  s.base = base;
  const lightfield::SphericalLattice lattice(base.lattice);
  for (int i = 0; i < clients; ++i) {
    ScenarioClient sc;
    sc.script = CursorScript::standard(lattice, base.dwell, accesses,
                                       seed + static_cast<std::uint64_t>(i));
    sc.start = static_cast<SimDuration>(i) * stagger;
    s.clients.push_back(std::move(sc));
  }
  return s;
}

Scenario flash_crowd(int clients, bool admission) {
  Scenario s;
  s.name = admission ? "flash_crowd/admission" : "flash_crowd/no_admission";
  s.base.lattice = scenario_lattice();
  s.base.which = Case::kWanStreaming;  // fresh publish: nothing on the LAN yet
  filler_content(s.base);
  s.base.dwell = 250 * kMillisecond;
  // A modest trunk: the whole crowd's initial miss storm is several times
  // what it can move inside the deadline, so the run lives or dies on how
  // the excess is handled.
  s.base.wan_bandwidth_bps = 50e6;
  // A shed costs one backoff round before the retry; give clients enough
  // rounds that nobody starves even at the back of the crowd.
  s.base.client.shed_retry.max_attempts = 8;
  s.base.client.shed_retry.base_backoff = 250 * kMillisecond;
  s.slo_deadline = kSecond;

  if (admission) {
    s.base.agent.admission.enabled = true;
    s.base.agent.admission.max_queue = 4;
    s.base.agent.admission.tokens_per_sec = 2.0;
    s.base.agent.admission.token_burst = 4.0;
    // The queue bound is the protection here: the storm keeps the WAN
    // latency estimate above the deadline for most of the run, so triage
    // would re-shed every retry until clients starve. The ladder (below)
    // handles deadline pressure by shrinking the work instead.
    s.base.agent.admission.deadline_triage = false;
    s.base.agent.deadline = s.slo_deadline;
    // The full ladder: LAN-only -> coarse tier -> demand-only, plus hot
    // reporting so the server agent fans busy view sets onto the LAN depots.
    s.base.agent.degrade = true;
    s.base.lod_resolutions = {100};
    s.base.agent.hot_report_threshold = 4;
    s.base.server_agent = true;
    s.base.augment_threshold = 2;
    s.base.augment_cooldown = 10 * kSecond;
  }

  // Every viewer arrives within a couple of seconds and browses its *own*
  // region of the freshly published object (a short pan along a latitude
  // band, spread across the whole grid). The shared agent cache therefore
  // cannot collapse the initial storm: the first wave of demand is almost
  // entirely distinct view sets, far beyond what the WAN trunk can deliver
  // inside the deadline.
  const lightfield::SphericalLattice lattice(s.base.lattice);
  const int vs_rows = static_cast<int>(lattice.view_set_rows());
  const int vs_cols = static_cast<int>(lattice.view_set_cols());
  const int vs_count = vs_rows * vs_cols;
  for (int i = 0; i < clients; ++i) {
    std::vector<CursorStep> steps;
    // 37 is coprime with the 128-set grid: the first grid-many clients all
    // start on distinct view sets.
    const int start = (i * 37) % vs_count;
    const int row = start / vs_cols;
    const int col0 = start % vs_cols;
    for (int k = 0; k < 6; ++k) {
      const lightfield::ViewSetId id{row, (col0 + k) % vs_cols};
      steps.push_back({lattice.view_set_center(id), s.base.dwell});
    }
    ScenarioClient sc;
    sc.script = CursorScript(std::move(steps));
    sc.start = static_cast<SimDuration>(i) * (20 * kMillisecond);
    s.clients.push_back(std::move(sc));
  }
  return s;
}

Scenario teleport_under_faults(int clients) {
  Scenario s;
  s.name = "teleport_faults";
  s.base.lattice = scenario_lattice();
  s.base.which = Case::kWanWithLanDepot;
  filler_content(s.base);
  s.base.dwell = 500 * kMillisecond;
  s.base.publish_replicas = 2;
  s.base.timeouts = {.control = 500 * kMillisecond, .data = 5 * kSecond};
  s.base.agent.retry.max_attempts = 4;
  s.base.agent.retry.base_backoff = 250 * kMillisecond;
  s.base.repair_interval = 5 * kSecond;
  // Depot crash + lossy window + silent corruption, all mid-browse.
  s.base.faults.crashes.push_back(
      {.depot = "ca-0", .at = 5 * kSecond, .restart_after = 10 * kSecond});
  s.base.faults.drops.push_back(
      {.at = 8 * kSecond, .duration = 5 * kSecond, .prob = 0.3, .depot = "ca-1"});
  s.base.faults.corruptions.push_back(
      {.at = 3 * kSecond, .duration = 3 * kSecond, .prob = 1.0, .depot = {}});

  const lightfield::SphericalLattice lattice(s.base.lattice);
  for (int i = 0; i < clients; ++i) {
    ScenarioClient sc;
    // Each client teleports along its own latitude band — the prefetch
    // worst case, and every jump lands on unstaged WAN data.
    sc.script = CursorScript::teleport(lattice, s.base.dwell, /*segment=*/4,
                                       /*steps_per_set=*/2, /*jumps=*/3,
                                       /*row=*/1 + (i % 4));
    sc.start = static_cast<SimDuration>(i) * (250 * kMillisecond);
    s.clients.push_back(std::move(sc));
  }
  return s;
}

Scenario lease_expiry_wave(int clients) {
  Scenario s;
  s.name = "lease_expiry";
  s.base.lattice = scenario_lattice();
  s.base.which = Case::kWanWithLanDepot;
  filler_content(s.base);
  s.base.dwell = 500 * kMillisecond;
  // Leases this short expire in waves while playback is still running; with
  // no refresher the agent must notice the evictions and fail back to the
  // WAN copies (then restage). The agent cache is kept far smaller than the
  // database so demand keeps going back to the staged LAN replicas — where
  // it runs into the expired allocations. Playback starts only after the
  // whole database is staged (warm): every lease is then ticking from
  // roughly the same instant, so they expire in a wave mid-browse instead
  // of being refreshed just-in-time by proximity-ordered staging.
  s.warm_site_cache = true;
  s.base.agent.staging_lease = 4 * kSecond;
  s.base.agent.lease_refresh = false;
  s.base.agent.cache_bytes = 4ull << 20;
  s.base.agent.max_refetch = 4;
  s.base.agent.retry.max_attempts = 3;
  s.base.agent.retry.base_backoff = 100 * kMillisecond;

  const lightfield::SphericalLattice lattice(s.base.lattice);
  for (int i = 0; i < clients; ++i) {
    ScenarioClient sc;
    sc.script = CursorScript::standard(lattice, s.base.dwell, 24,
                                       700 + static_cast<std::uint64_t>(i));
    sc.start = static_cast<SimDuration>(i) * (250 * kMillisecond);
    s.clients.push_back(std::move(sc));
  }
  return s;
}

Scenario pda_link(bool lod_streaming) {
  Scenario s;
  s.name = lod_streaming ? "pda_link/lod" : "pda_link/full";
  s.base.lattice = scenario_lattice();
  s.base.which = Case::kWanStreaming;  // nothing on the LAN: every miss is WAN
  filler_content(s.base);
  s.base.dwell = 2 * kSecond;
  // A PDA-class last-mile trunk: a full-resolution view set needs several
  // seconds to cross it, so full-only delivery cannot make the 1 s deadline.
  // The coarse tiers (1/4 and 1/16 of the full payload) fit with room to
  // spare even when a background refinement shares the link.
  s.base.wan_bandwidth_bps = 2.5e6;
  s.base.wan_latency = 120 * kMillisecond;
  s.base.wan_jitter = 0.0;
  // No prefetch: on this link speculative transfers would only steal
  // bandwidth from the demand path; fluidity comes from the LOD ladder.
  s.base.agent.prefetch = false;
  s.slo_deadline = kSecond;
  s.base.agent.deadline = s.slo_deadline;
  // Seed the WAN latency estimate above the deadline so the policy engine
  // degrades the very first access instead of blowing the SLO to learn.
  s.base.agent.latency.wan_prior = 3 * kSecond;
  if (lod_streaming) {
    s.base.lod_resolutions = {64, 32};
    s.base.agent.lod_streaming = true;
    s.base.agent.lod_refine = true;
  }
  // Run the simulator dry after the last step: background refinements must
  // finish so the gate can check refined == refinements started.
  s.drain = true;

  // Two viewers pan out along their own latitude band and back. The return
  // leg revisits view sets whose background refinement has had a full dwell
  // to land — those accesses must be full-resolution cache hits, proving the
  // coarse copy was swapped out rather than served stale.
  const lightfield::SphericalLattice lattice(s.base.lattice);
  const int vs_cols = static_cast<int>(lattice.view_set_cols());
  for (int i = 0; i < 2; ++i) {
    std::vector<CursorStep> steps;
    const int row = 2 + i * 3;
    const int col0 = i * (vs_cols / 2);
    for (int k = 0; k < 6; ++k) {
      const lightfield::ViewSetId id{row, (col0 + k) % vs_cols};
      steps.push_back({lattice.view_set_center(id), s.base.dwell});
    }
    for (int k = 4; k >= 0; --k) {
      const lightfield::ViewSetId id{row, (col0 + k) % vs_cols};
      steps.push_back({lattice.view_set_center(id), s.base.dwell});
    }
    ScenarioClient sc;
    sc.script = CursorScript(std::move(steps));
    sc.start = static_cast<SimDuration>(i) * (500 * kMillisecond);
    s.clients.push_back(std::move(sc));
  }
  return s;
}

Scenario site_cache(bool warm, int clients) {
  Scenario s;
  s.name = warm ? "site_cache/warm" : "site_cache/cold";
  s.base.lattice = scenario_lattice();
  s.base.which = Case::kWanWithLanDepot;
  filler_content(s.base);
  s.base.dwell = kSecond;
  s.warm_site_cache = warm;
  // Warm the *site*, not one lucky agent: the clients are spread over
  // several co-sited agents sharing one SiteCache index, so the warm half
  // measures cross-client sharing of staged replicas, and the cold half
  // races demand against coalesced (single-flight) staging.
  s.base.site_agents = std::max(2, clients / 2);
  s.base.site_cache = true;

  const lightfield::SphericalLattice lattice(s.base.lattice);
  for (int i = 0; i < clients; ++i) {
    ScenarioClient sc;
    sc.script = CursorScript::standard(lattice, s.base.dwell, 8,
                                       900 + static_cast<std::uint64_t>(i));
    sc.start = static_cast<SimDuration>(i) * (250 * kMillisecond);
    s.clients.push_back(std::move(sc));
  }
  return s;
}

Scenario co_sited_crowd(bool site, int clients) {
  Scenario s;
  s.name = site ? "co_sited/site" : "co_sited/control";
  s.base.lattice = scenario_lattice();
  s.base.which = Case::kWanWithLanDepot;  // aggressive prestaging on
  filler_content(s.base);
  s.base.dwell = 400 * kMillisecond;
  s.base.wan_bandwidth_bps = 50e6;
  // The crowd shares one LAN site behind several client agents, and every
  // agent prestages the whole database: without the cooperative index the
  // site pays the WAN staging bill `site_agents` times over — the restage
  // stampede this pair of rows measures.
  s.base.site_agents = std::max(2, clients / 10);
  s.base.site_cache = site;
  // The sharded directory runs on both rows (the 100-user query fan-in is
  // identical either way), so the pair isolates the site cache's effect.
  s.base.dvs_shards = 4;
  s.base.dvs_shard_service = 200 * kMicrosecond;

  const lightfield::SphericalLattice lattice(s.base.lattice);
  for (int i = 0; i < clients; ++i) {
    ScenarioClient sc;
    sc.script = CursorScript::standard(lattice, s.base.dwell, 12,
                                       1300 + static_cast<std::uint64_t>(i));
    sc.start = static_cast<SimDuration>(i) * (50 * kMillisecond);
    s.clients.push_back(std::move(sc));
  }
  return s;
}

}  // namespace lon::session
