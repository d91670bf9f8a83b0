// Ablation: aggressive two-stage prestaging (paper figure 5 and section 4.3).
//
// Case 3 sweeps: staging order (cursor-proximity vs FIFO), staging
// concurrency, and the paper's suggested improvement of suppressing staging
// while a demand miss is in flight.
#include <cstdio>

#include "bench_common.hpp"

namespace {

void report(const char* label, const lon::session::ExperimentResult& result) {
  std::printf("%-34s %10.3f s %10.3f s %7zu %8.2f %6llu\n", label,
              result.summary.mean_total_s, result.summary.mean_total_phase2_s,
              result.summary.initial_phase, result.summary.wan_rate_initial,
              lon::bench::counter(*result.obs, "agent.staged"));
}

}  // namespace

int main() {
  using namespace lon;
  bench::print_header("Ablation: aggressive prestaging design choices (case 3)",
                      "proximity order shortens the initial phase; pausing "
                      "staging on miss trades staging progress for miss speed");

  std::printf("%-34s %12s %12s %8s %8s %7s\n", "variant", "mean", "phase2-mean",
              "phase", "wan-rate", "staged");

  // A mid-scale configuration where staging the whole database takes a
  // sizeable fraction of the session, so the initial phase is visible:
  // 8x16 = 128 view sets, 300^2 views, 8 Mb/s WAN (the 500^2-over-100Mb/s
  // regime of figure 11, scaled down).
  auto base = [] {
    session::ExperimentConfig cfg =
        bench::small_config(300, session::Case::kWanWithLanDepot);
    cfg.lattice.angular_step_deg = 7.5;
    cfg.accesses = 40;
    cfg.wan_bandwidth_bps = 8e6;
    return cfg;
  };

  {
    session::ExperimentConfig cfg = base();
    report("proximity order (paper)", session::run_experiment(cfg));
  }
  {
    session::ExperimentConfig cfg = base();
    cfg.agent.staging_order = streaming::ClientAgentConfig::StagingOrder::kFifo;
    report("fifo order", session::run_experiment(cfg));
  }
  {
    session::ExperimentConfig cfg = base();
    cfg.agent.pause_staging_on_miss = true;
    report("pause staging on miss", session::run_experiment(cfg));
  }
  for (const int concurrency : {1, 2, 8}) {
    session::ExperimentConfig cfg = base();
    cfg.agent.staging_concurrency = concurrency;
    char label[64];
    std::snprintf(label, sizeof label, "staging concurrency %d", concurrency);
    report(label, session::run_experiment(cfg));
  }
  {
    session::ExperimentConfig cfg = base();
    cfg.which = session::Case::kWanStreaming;  // no staging at all
    report("no staging (case 2 baseline)", session::run_experiment(cfg));
  }
  return 0;
}
