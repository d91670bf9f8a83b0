// Ablation: the quadrant prefetch policy (paper figure 4).
//
// Case 2 (WAN streaming) with prefetch on vs off: prefetch is the only
// latency-hiding mechanism in case 2, so disabling it must push mean and
// tail latencies up. Also sweeps the user's movement rate (dwell) to expose
// the Quality Guaranteed Rate effect: fast movement outruns WAN prefetch.
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace lon;
  bench::print_header("Ablation: quadrant prefetch policy (case 2)",
                      "prefetch hides WAN latency only when the user moves "
                      "slower than the QGR");

  std::printf("%-10s %-8s %12s %12s %8s %8s\n", "prefetch", "dwell", "mean (s)",
              "max (s)", "hits", "wan");
  for (const bool prefetch : {true, false}) {
    for (const double dwell_s : {0.05, 0.5, 4.0}) {
      session::ExperimentConfig cfg =
          bench::small_config(200, session::Case::kWanStreaming);
      cfg.wan_bandwidth_bps = 50e6;  // make WAN fetches cost a visible fraction
      cfg.agent.prefetch = prefetch;
      cfg.dwell = from_seconds(dwell_s);
      const session::ExperimentResult result = session::run_experiment(cfg);
      std::printf("%-10s %6.2f s %10.3f s %10.3f s %8zu %8zu\n",
                  prefetch ? "on" : "off", dwell_s, result.summary.mean_total_s,
                  result.summary.max_total_s, result.summary.hits,
                  result.summary.wan);
    }
  }
  std::printf("\n(slow dwell + prefetch converts WAN fetches into agent hits;\n"
              " fast dwell outruns the prefetcher regardless)\n");
  return 0;
}
