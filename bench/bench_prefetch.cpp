// Policy bench: prefetch scheduling and cache replacement head-to-head.
//
// Replays deterministic scripted cursor walks (smooth pan, reversal,
// teleport, figure-12-style browse) through case 2 — the WAN-streaming
// configuration where prefetch quality is the whole game — once per policy,
// and reports the demand hit rate, wasted-prefetch bytes and p99 demand
// latency for each. The virtual-time results are exactly reproducible, so
// ci/perf_gate.py gates on them:
//
//   * predictive must beat the paper's quadrant policy on the smooth-pan
//     and reversal walks (that is what the motion model buys);
//   * wasted-prefetch bytes stay bounded against the committed baseline;
//   * demand p99 must not regress.
//
// A second block compares eviction policies under a cache small enough to
// thrash: hybrid must protect the demand working set from prefetch
// pollution that plain LRU lets through.
//
// Flags:
//   --smoke   smaller configuration for the CI perf gate (fast, deterministic)
//   --json    machine-readable output (one JSON object) for ci/perf_gate.py
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "session/experiment.hpp"

namespace {

using namespace lon;

struct Scenario {
  std::string script;                ///< smooth_pan | reversal | teleport | browse
  policy::PrefetchStrategy strategy = policy::PrefetchStrategy::kQuadrant;
  policy::EvictionStrategy eviction = policy::EvictionStrategy::kLru;
  std::uint64_t cache_bytes = 512ull << 20;  ///< small = the eviction stress rows
};

struct Row {
  Scenario scenario;
  std::size_t accesses = 0;
  double hit_rate = 0.0;
  double mean_s = 0.0;
  double p99_s = 0.0;
  std::uint64_t wasted_bytes = 0;  ///< prefetched bytes no demand ever used
  std::size_t failed = 0;
  std::map<std::string, std::uint64_t> counters;  ///< Registry::counter_totals
};

session::CursorScript make_script(const lightfield::SphericalLattice& lattice,
                                  const std::string& name, SimDuration dwell,
                                  bool smoke) {
  using session::CursorScript;
  // Scale the walks with the lattice: one lap of the view-set ring for the
  // pans so every demand fetch is a first visit.
  const auto ring = lattice.view_set_cols();
  if (name == "smooth_pan") return CursorScript::smooth_pan(lattice, dwell, ring);
  if (name == "reversal")
    return CursorScript::reversal(lattice, dwell, ring / 2);
  if (name == "teleport")
    return CursorScript::teleport(lattice, dwell, ring / 2 - 1, 4, smoke ? 2 : 3);
  // "browse": the paper's figure-12 style orchestrated walk.
  return CursorScript::standard(lattice, dwell, smoke ? 24 : 58);
}

Row run_scenario(const Scenario& s, bool smoke) {
  // Case 2: WAN database, no LAN prestaging — every miss pays the trunk.
  session::ExperimentConfig cfg =
      smoke ? bench::small_config(200, session::Case::kWanStreaming)
            : bench::paper_config(200, session::Case::kWanStreaming);

  // Communication-latency study over filler content: transfer shape is
  // faithful, clients skip decode, results are deterministic virtual time.
  cfg.all_filler = true;
  cfg.client.decode = false;
  cfg.client.timing = streaming::ClientConfig::Timing::kModeled;

  // The user moves fast enough that the quadrant policy's half-set lead
  // time loses the race against the ~100 ms WAN fetch, while a trajectory
  // extrapolated two sets ahead wins it.
  const SimDuration dwell = 35 * kMillisecond;
  cfg.dwell = dwell;

  cfg.agent.prefetch_strategy = s.strategy;
  cfg.agent.eviction = s.eviction;
  cfg.agent.cache_bytes = s.cache_bytes;
  // Give the predictive scheduler an explicit budget so the bench also
  // exercises the inflight cap; quadrant issues at most 3 anyway.
  cfg.agent.prefetch_max_inflight = 4;

  lightfield::SphericalLattice lattice(cfg.lattice);
  cfg.script = make_script(lattice, s.script, dwell, smoke);

  const session::ExperimentResult result = session::run_experiment(cfg);

  Row row;
  row.scenario = s;
  row.accesses = result.accesses.size();
  row.failed = result.failed_accesses;
  row.mean_s = result.summary.mean_total_s;

  std::vector<double> totals;
  totals.reserve(result.accesses.size());
  for (const auto& rec : result.accesses) totals.push_back(to_seconds(rec.total()));
  std::sort(totals.begin(), totals.end());
  if (!totals.empty())
    row.p99_s = totals[(totals.size() - 1) * 99 / 100];

  row.counters = result.obs->metrics.counter_totals();
  const std::uint64_t requests = row.counters.at("agent.requests");
  row.hit_rate = requests > 0 ? static_cast<double>(row.counters.at("agent.hits")) /
                                    static_cast<double>(requests)
                              : 0.0;
  const std::uint64_t prefetch_bytes = row.counters.at("prefetch.bytes");
  row.wasted_bytes =
      prefetch_bytes - std::min(row.counters.at("prefetch.useful_bytes"), prefetch_bytes);
  return row;
}

const char* eviction_label(policy::EvictionStrategy e) { return policy::to_string(e); }

std::string row_name(const Row& r) {
  return r.scenario.script + "/" + policy::to_string(r.scenario.strategy) +
         (r.scenario.cache_bytes < (512ull << 20)
              ? std::string("/") + eviction_label(r.scenario.eviction)
              : std::string());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }

  std::vector<Scenario> scenarios;
  // Prefetch policy head-to-head on every scripted walk, roomy cache.
  for (const char* script : {"smooth_pan", "reversal", "teleport", "browse"}) {
    for (const auto strategy :
         {policy::PrefetchStrategy::kQuadrant, policy::PrefetchStrategy::kPredictive}) {
      scenarios.push_back(Scenario{script, strategy,
                                   policy::EvictionStrategy::kLru, 512ull << 20});
    }
  }
  // Eviction stress: cache sized for ~6 filler view sets, predictive
  // prefetch pressure — does the policy protect the demand working set?
  const std::uint64_t tight = 1ull << 20;
  for (const auto eviction :
       {policy::EvictionStrategy::kLru, policy::EvictionStrategy::kHybrid}) {
    scenarios.push_back(Scenario{"reversal", policy::PrefetchStrategy::kPredictive,
                                 eviction, tight});
  }

  std::vector<Row> rows;
  rows.reserve(scenarios.size());
  for (const Scenario& s : scenarios) rows.push_back(run_scenario(s, smoke));

  if (json) {
    std::printf("{\"bench\":\"prefetch\",\"mode\":\"%s\",\"results\":[",
                smoke ? "smoke" : "full");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::printf(
          "%s{\"name\":\"%s\",\"script\":\"%s\",\"policy\":\"%s\","
          "\"eviction\":\"%s\",\"accesses\":%zu,\"hit_rate\":%.4f,"
          "\"mean_s\":%.6f,\"p99_s\":%.6f,\"wasted_bytes\":%llu,\"failed\":%zu,",
          i == 0 ? "" : ",", row_name(r).c_str(), r.scenario.script.c_str(),
          policy::to_string(r.scenario.strategy),
          eviction_label(r.scenario.eviction), r.accesses, r.hit_rate, r.mean_s,
          r.p99_s, static_cast<unsigned long long>(r.wasted_bytes), r.failed);
      bench::print_counters_json(r.counters);
      std::printf("}");
    }
    std::printf("]}\n");
    return 0;
  }

  lon::bench::print_header(
      "Policy engine: prefetch scheduling and cache replacement (case 2)",
      "section 3.4's quadrant prefetch vs a trajectory-extrapolating scheduler");
  std::printf("%-34s %9s %9s %10s %10s %12s %8s %7s\n", "scenario", "accesses",
              "hit-rate", "mean (s)", "p99 (s)", "wasted (B)", "rejected",
              "failed");
  for (const Row& r : rows) {
    std::printf("%-34s %9zu %9.3f %10.4f %10.4f %12llu %8llu %7zu\n",
                row_name(r).c_str(), r.accesses, r.hit_rate, r.mean_s, r.p99_s,
                static_cast<unsigned long long>(r.wasted_bytes),
                bench::counter(r.counters, "cache.rejected_prefetch"), r.failed);
  }
  return 0;
}
