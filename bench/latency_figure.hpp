// Shared driver for figures 9-11: client-observed latency per view-set
// access for cases 1/2/3 at one sample-view resolution.
#pragma once

#include <cstdio>

#include "bench_common.hpp"
#include "session/metrics.hpp"

namespace lon::bench {

inline void run_latency_figure(std::size_t resolution, const char* figure,
                               const char* paper_claim) {
  print_header(std::string(figure) + ": client latency per access at " +
                   std::to_string(resolution) + "x" + std::to_string(resolution),
               paper_claim);

  for (const session::Case which :
       {session::Case::kLanData, session::Case::kWanStreaming,
        session::Case::kWanWithLanDepot}) {
    session::ExperimentConfig cfg = paper_config(resolution, which);
    const session::ExperimentResult result = session::run_experiment(cfg);
    write_observability(result, std::string(figure) + "-" + session::to_string(which));

    std::printf("\n# %s — seconds per access\n", session::to_string(which));
    for (std::size_t n = 0; n < result.accesses.size(); ++n) {
      std::printf("%zu\t%.4f\n", n + 1, to_seconds(result.accesses[n].total()));
    }
    std::printf("# summary: ");
    std::printf(
        "mean=%.3fs phase2_mean=%.3fs max=%.3fs initial_phase=%zu "
        "wan_rate_initial=%.2f hit_rate_initial=%.2f hits=%zu lan=%zu wan=%zu "
        "staged=%llu\n",
        result.summary.mean_total_s, result.summary.mean_total_phase2_s,
        result.summary.max_total_s, result.summary.initial_phase,
        result.summary.wan_rate_initial, result.summary.hit_rate_initial,
        result.summary.hits, result.summary.lan, result.summary.wan,
        counter(*result.obs, "agent.staged"));
  }
}

}  // namespace lon::bench
