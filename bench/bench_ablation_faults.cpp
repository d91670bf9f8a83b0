// Ablation: browsing under depot failures — what each self-healing layer buys.
//
// The paper's WAN streaming runs assume depots stay up; IBP's service model
// does not ("it may be necessary to assume that storage can be permanently
// lost"). This bench injects periodic depot crashes at increasing rates into
// the case-2 configuration (every access exercises the WAN) and compares
// delivery with the recovery machinery off and on: per-operation deadlines
// plus replica failover only, + download retry rounds with backoff, + the
// publisher's periodic repair sweeps that re-replicate extents stranded on
// crashed depots.
#include <cctype>
#include <cstdio>
#include <string>

#include "bench_common.hpp"

namespace {

using namespace lon;

/// Crashes per minute spread round-robin over the three WAN depots, each
/// depot down for 12 s at a time, scheduled across the first two minutes.
fault::FaultPlan crash_plan(double per_minute) {
  fault::FaultPlan plan;
  if (per_minute <= 0) return plan;
  const auto period = static_cast<SimDuration>(60.0 / per_minute * kSecond);
  int k = 0;
  for (SimTime at = 5 * kSecond; at < 120 * kSecond; at += period, ++k) {
    plan.crashes.push_back({.depot = "ca-" + std::to_string(k % 3),
                            .at = at,
                            .restart_after = 12 * kSecond});
  }
  return plan;
}

session::ExperimentConfig base(double crashes_per_minute) {
  session::ExperimentConfig cfg =
      bench::small_config(300, session::Case::kWanStreaming);
  cfg.accesses = 30;
  cfg.publish_replicas = 2;  // a lone replica set cannot survive any crash
  cfg.timeouts = {.control = 500 * kMillisecond, .data = 5 * kSecond};
  cfg.faults = crash_plan(crashes_per_minute);
  return cfg;
}

void report(const char* label, double rate, const session::ExperimentResult& r) {
  std::string slug = "faults-" + std::string(label) + "-" + std::to_string(rate);
  for (char& c : slug) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '.') c = '-';
  }
  bench::write_observability(r, slug);
  const double duration_s = to_seconds(r.script_duration);
  const double frame_rate =
      duration_s > 0 ? static_cast<double>(r.summary.total) / duration_s : 0.0;
  std::printf("%-26s %6.1f %9.3f %9.3f %9.3f %7zu %5llu %5llu %5llu %5llu\n",
              label, rate, frame_rate, r.summary.mean_total_s,
              r.summary.mean_comm_wan_s, r.failed_accesses,
              bench::counter(*r.obs, "ibp.timeouts"),
              bench::counter(*r.obs, "lors.failovers"),
              bench::counter(*r.obs, "lors.retries"),
              bench::counter(*r.obs, "lors.replicas_repaired"));
}

}  // namespace

/// Two depots die for good, 50 s apart. The placement rule puts both
/// replicas of a third of the blocks on exactly that pair, so without repair
/// the second death strands them; with sweeps running, the first death is
/// already re-replicated onto the survivors by the time the second lands.
fault::FaultPlan permanent_loss_plan() {
  fault::FaultPlan plan;
  plan.crashes.push_back({.depot = "ca-0", .at = 10 * kSecond, .restart_after = 0});
  plan.crashes.push_back({.depot = "ca-1", .at = 60 * kSecond, .restart_after = 0});
  return plan;
}

int main() {
  bench::print_header(
      "Ablation: delivery under depot crashes (case 2 + fault injection)",
      "not in the paper — IBP assumes depots fail; deadlines + failover keep "
      "misses bounded, retry rides out crash windows, repair restores "
      "replication so later crashes find spares");

  std::printf("%-26s %6s %9s %9s %9s %7s %5s %5s %5s %5s\n", "variant",
              "cr/min", "views/s", "mean", "wan-comm", "failed", "tmo", "fo",
              "rtry", "repd");

  report("fault-free baseline", 0.0, session::run_experiment(base(0.0)));

  for (const double rate : {2.0, 6.0}) {
    {
      session::ExperimentConfig cfg = base(rate);
      report("failover only", rate, session::run_experiment(cfg));
    }
    {
      session::ExperimentConfig cfg = base(rate);
      cfg.agent.retry.max_attempts = 4;
      cfg.agent.retry.base_backoff = 250 * kMillisecond;
      report("+ retry", rate, session::run_experiment(cfg));
    }
    {
      session::ExperimentConfig cfg = base(rate);
      cfg.agent.retry.max_attempts = 4;
      cfg.agent.retry.base_backoff = 250 * kMillisecond;
      cfg.repair_interval = 5 * kSecond;
      cfg.repair_batch = 8;
      report("+ retry + repair", rate, session::run_experiment(cfg));
    }
  }

  std::printf("--- two permanent depot losses, 50 s apart ---\n");
  {
    session::ExperimentConfig cfg = base(0.0);
    cfg.faults = permanent_loss_plan();
    cfg.agent.retry.max_attempts = 4;
    cfg.agent.retry.base_backoff = 250 * kMillisecond;
    report("loss, no repair", 0.0, session::run_experiment(cfg));
  }
  {
    session::ExperimentConfig cfg = base(0.0);
    cfg.faults = permanent_loss_plan();
    cfg.agent.retry.max_attempts = 4;
    cfg.agent.retry.base_backoff = 250 * kMillisecond;
    cfg.repair_interval = 5 * kSecond;
    cfg.repair_batch = 8;
    report("loss, repair sweeps", 0.0, session::run_experiment(cfg));
  }
  return 0;
}
