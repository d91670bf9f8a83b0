// Shared helpers for the figure-reproduction benchmark binaries.
//
// Each bench binary regenerates one table or figure from the paper's
// evaluation (section 4) and prints the same rows/series the paper reports,
// plus a summary block comparing against the paper's qualitative claims.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "session/experiment.hpp"

namespace lon::bench {

/// The paper's experimental configuration at a given sample-view resolution:
/// 72x144 lattice at 2.5 degrees, 6x6 view sets (12x24 grid), view sets
/// striped over 3 WAN depots, 4 LAN depots for staging, 100 Mb/s / ~35 ms
/// WAN, 1 Gb/s LAN, 58 orchestrated view-set accesses.
inline session::ExperimentConfig paper_config(std::size_t resolution,
                                              session::Case which) {
  session::ExperimentConfig cfg;
  cfg.lattice = lightfield::LatticeConfig::paper(resolution);
  cfg.which = which;
  cfg.accesses = 58;
  cfg.dwell = 2 * kSecond;
  cfg.client.display_resolution = resolution;
  cfg.client.timing = streaming::ClientConfig::Timing::kMeasured;
  return cfg;
}

/// A scaled-down configuration for quick ablation sweeps (4x8 view sets).
inline session::ExperimentConfig small_config(std::size_t resolution,
                                              session::Case which) {
  session::ExperimentConfig cfg;
  cfg.lattice.angular_step_deg = 15.0;
  cfg.lattice.view_set_span = 3;
  cfg.lattice.view_resolution = resolution;
  cfg.which = which;
  cfg.accesses = 30;
  cfg.dwell = 2 * kSecond;
  cfg.client.display_resolution = resolution;
  cfg.client.timing = streaming::ClientConfig::Timing::kModeled;
  return cfg;
}

/// Run-wide total of one registry counter ("agent.hits", "lors.retries"),
/// summed over every instance, typed for printf's %llu.
inline unsigned long long counter(const obs::Context& obs, const std::string& name) {
  return obs.metrics.counter_total(name);
}

/// One entry of a Registry::counter_totals map, typed the same way; throws
/// std::out_of_range on a name the run never registered.
inline unsigned long long counter(const std::map<std::string, std::uint64_t>& totals,
                                  const std::string& name) {
  return totals.at(name);
}

/// Prints a run's counter totals (Registry::counter_totals) as one JSON
/// member, `"counters":{"agent.demand_shed":N,...}`: every counter under its
/// registry name, so the bench rows and ci/perf_gate.py spell a counter the
/// way the layer that increments it does.
inline void print_counters_json(const std::map<std::string, std::uint64_t>& totals) {
  std::printf("\"counters\":{");
  const char* sep = "";
  for (const auto& [name, total] : totals) {
    std::printf("%s\"%s\":%llu", sep, obs::json_escape(name).c_str(),
                static_cast<unsigned long long>(total));
    sep = ",";
  }
  std::printf("}");
}

/// Dumps a run's observability artifacts next to the bench output when
/// LON_OBS_DIR is set: `<dir>/<label>.metrics.jsonl` (flat registry dump)
/// and `<dir>/<label>.trace.json` (Chrome trace_event — load in
/// chrome://tracing or Perfetto). No-op, returning false, when the
/// environment variable is absent so normal runs stay side-effect free.
inline bool write_observability(const session::ExperimentResult& result,
                                const std::string& label) {
  const char* dir = std::getenv("LON_OBS_DIR");
  if (dir == nullptr || result.obs == nullptr) return false;
  const std::string base = std::string(dir) + "/" + label;
  {
    std::ofstream os(base + ".metrics.jsonl");
    if (!os) return false;
    result.obs->metrics.write_jsonl(os);
  }
  {
    std::ofstream os(base + ".trace.json");
    if (!os) return false;
    result.obs->trace.write_chrome_trace(os);
  }
  std::printf("# observability: %s.{metrics.jsonl,trace.json}\n", base.c_str());
  return true;
}

inline void print_header(const std::string& title, const std::string& paper_claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("==============================================================\n");
}

}  // namespace lon::bench
