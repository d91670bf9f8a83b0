// Extension bench: scalability in the number of users.
//
// The paper's future work: "systematic testing of the scalability of our
// system, both in terms of the number of users and the complexity of the
// visualization process", and section 3.5's claim that "a client agent can
// serve multiple clients, especially in a mobile environment".
//
// N clients share one client agent (case 3: WAN database + LAN staging) via
// session::multi_client + run_scenario; each browses its own orchestrated path. As N
// grows, the shared agent cache and the prestaged LAN replicas absorb more
// of the load; per-client latency should degrade sub-linearly. Per-client
// p50/p99 come from each client's own obs histogram.
//
// Flags:
//   --smoke   smaller configuration for the CI perf gate (fast, deterministic)
//   --json    machine-readable output (one JSON object) for ci/perf_gate.py
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "session/scenario.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace lon;

struct Row {
  int users = 0;
  std::size_t accesses = 0;
  double mean_total_s = 0.0;
  double p99_worst_s = 0.0;   ///< worst per-client p99
  double p99_mean_s = 0.0;    ///< mean of per-client p99s
  double hit_rate = 0.0;
  double virtual_duration_s = 0.0;
  std::size_t failed = 0;
  bool admission = false;     ///< overload protection on (the large-N rows)
  double p99_vs_1user = 0.0;  ///< p99-mean degradation relative to the 1-user row
  std::size_t min_delivered = 0;  ///< worst-off client's deliveries
  double wall_s = 0.0;            ///< host wall-clock, setup included (informational)
  std::map<std::string, std::uint64_t> counters;  ///< Registry::counter_totals
};

Row run_users(int n_clients, std::size_t accesses_per_client, bool admission = false) {
  session::ExperimentConfig base;
  // The large-N rows run with overload protection on: at crowd scale the
  // unprotected configuration is exactly the collapse bench_scenarios
  // demonstrates, while the protected one should keep p99 degradation flat.
  if (admission) {
    base.agent.admission.enabled = true;
    base.agent.admission.max_queue = 8;
    base.agent.admission.tokens_per_sec = 2.0;
    base.agent.admission.token_burst = 4.0;
    base.agent.admission.deadline_triage = false;
    base.client.shed_retry.max_attempts = 8;
    base.client.shed_retry.base_backoff = 250 * kMillisecond;
  }

  // Latency study over a filler database: transfer/staging shape is
  // faithful, clients skip decode. Virtual-time results are deterministic.
  lightfield::LatticeConfig lattice;
  lattice.angular_step_deg = 7.5;  // 8x16 = 128 view sets
  lattice.view_set_span = 3;
  lattice.view_resolution = 200;
  base.lattice = lattice;
  base.which = session::Case::kWanWithLanDepot;
  base.all_filler = true;
  base.client.decode = false;
  base.client.timing = streaming::ClientConfig::Timing::kModeled;
  // The shared pool carries stripe verification; virtual results are
  // identical with or without it (the bench doubles as a determinism check).
  base.pool = &ThreadPool::shared();

  const session::ScenarioResult result = session::run_scenario(session::multi_client(
      base, n_clients, accesses_per_client, /*seed=*/100, 250 * kMillisecond));

  Row row;
  row.users = n_clients;
  row.admission = admission;
  row.virtual_duration_s = to_seconds(result.duration);
  row.failed = result.failed_accesses;
  row.accesses = result.total_accesses;
  row.mean_total_s = result.mean_total_s;
  row.p99_worst_s = result.p99_worst_s;
  row.p99_mean_s = result.p99_mean_s;
  row.counters = result.obs->metrics.counter_totals();
  const std::uint64_t requests = row.counters.at("agent.requests");
  row.hit_rate = requests > 0 ? static_cast<double>(row.counters.at("agent.hits")) /
                                    static_cast<double>(requests)
                              : 0.0;
  row.min_delivered = result.min_client_delivered;
  row.wall_s = result.wall_s;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }

  const std::vector<int> user_counts = smoke ? std::vector<int>{1, 4, 8}
                                             : std::vector<int>{1, 2, 4, 8};
  const std::size_t accesses = smoke ? 8 : 25;
  // Crowd-scale row: far past the paper's "multiple clients", with overload
  // protection on. Runs with fewer accesses per client so the full run stays
  // tractable; p99 degradation vs. the 1-user row is the reported figure.
  const int crowd_users = smoke ? 100 : 1000;
  const std::size_t crowd_accesses = smoke ? 6 : 8;

  std::vector<Row> rows;
  rows.reserve(user_counts.size() + 1);
  for (const int n : user_counts) rows.push_back(run_users(n, accesses));
  rows.push_back(run_users(crowd_users, crowd_accesses, /*admission=*/true));

  // p99-mean degradation relative to the single-user row.
  const double base_p99 = rows.front().p99_mean_s;
  for (Row& r : rows) {
    r.p99_vs_1user = base_p99 > 0.0 ? r.p99_mean_s / base_p99 : 0.0;
  }

  if (json) {
    std::printf("{\"bench\":\"scalability_users\",\"mode\":\"%s\",\"results\":[",
                smoke ? "smoke" : "full");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::printf(
          "%s{\"users\":%d,\"accesses\":%zu,\"mean_total_s\":%.6f,"
          "\"p99_worst_s\":%.6f,\"p99_mean_s\":%.6f,\"hit_rate\":%.4f,"
          "\"virtual_duration_s\":%.3f,\"failed\":%zu,"
          "\"admission\":%s,\"p99_vs_1user\":%.4f,"
          "\"min_delivered\":%zu,\"wall_s\":%.3f,",
          i == 0 ? "" : ",", r.users, r.accesses, r.mean_total_s, r.p99_worst_s,
          r.p99_mean_s, r.hit_rate, r.virtual_duration_s, r.failed,
          r.admission ? "true" : "false", r.p99_vs_1user, r.min_delivered, r.wall_s);
      bench::print_counters_json(r.counters);
      std::printf("}");
    }
    std::printf("]}\n");
    return 0;
  }

  bench::print_header(
      "Extension: one client agent serving N concurrent users (case 3)",
      "future work in the paper; sharing should make per-user cost sublinear");
  std::printf("%8s %10s %12s %12s %12s %10s %8s %8s %8s %6s %10s\n", "users",
              "accesses", "mean (s)", "p99-worst", "p99-mean", "hit-rate", "lan",
              "wan", "failed", "adm", "p99-vs-1");
  for (const Row& r : rows) {
    std::printf("%8d %10zu %12.3f %12.3f %12.3f %10.2f %8llu %8llu %8zu %6s %10.2f\n",
                r.users, r.accesses, r.mean_total_s, r.p99_worst_s, r.p99_mean_s,
                r.hit_rate, bench::counter(r.counters, "agent.lan_accesses"),
                bench::counter(r.counters, "agent.wan_accesses"), r.failed,
                r.admission ? "on" : "off", r.p99_vs_1user);
  }

  // Scheduler-cost section: how hard the discrete-event core worked. The
  // event and solve counts are deterministic; wall time is host-dependent,
  // includes system build and publish, and is informational only.
  std::printf("\nScheduler cost (calendar-queue core, incremental max-min):\n");
  std::printf("%8s %14s %10s %14s %10s\n", "users", "sim-events", "reallocs",
              "flows-touched", "wall (s)");
  for (const Row& r : rows) {
    std::printf("%8d %14llu %10llu %14llu %10.3f\n", r.users,
                bench::counter(r.counters, "sim.events_executed"),
                bench::counter(r.counters, "net.reallocs"),
                bench::counter(r.counters, "net.realloc_flows_touched"), r.wall_s);
  }
  return 0;
}
