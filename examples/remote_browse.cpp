// remote_browse: the full system end to end — a remote visualization session
// over simulated Logistical Networking (paper sections 3.3-3.6, 4.2-4.3).
//
//   $ ./remote_browse [case] [accesses]
//       case: 1 = data in LAN, 2 = data in WAN, 3 = WAN + LAN-depot staging
//
// Publishes a light-field database onto IBP depots, then replays an
// orchestrated browsing session through the client / client-agent pipeline,
// printing a per-access trace (where each view set came from and what it
// cost) and the session summary.
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "session/experiment.hpp"

int main(int argc, char** argv) {
  using namespace lon;
  const int which = argc > 1 ? std::atoi(argv[1]) : 3;
  const std::size_t accesses = argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 25;
  if (which < 1 || which > 3) {
    std::fprintf(stderr, "usage: %s [1|2|3] [accesses]\n", argv[0]);
    return 1;
  }

  session::ExperimentConfig cfg;
  cfg.lattice.angular_step_deg = 15.0;  // 4x8 view sets — demo scale
  cfg.lattice.view_set_span = 3;
  cfg.lattice.view_resolution = 160;
  cfg.which = static_cast<session::Case>(which);
  cfg.accesses = accesses;
  cfg.dwell = 2 * kSecond;
  cfg.client.display_resolution = 160;
  cfg.client.timing = streaming::ClientConfig::Timing::kModeled;

  std::printf("running %s with %zu view-set accesses over the simulated WAN...\n\n",
              session::to_string(cfg.which), accesses);
  const session::ExperimentResult result = session::run_experiment(cfg);

  std::printf("%-4s %-8s %-10s %10s %12s %12s\n", "n", "viewset", "served-by",
              "comm (s)", "decomp (s)", "total (s)");
  for (std::size_t n = 0; n < result.accesses.size(); ++n) {
    const auto& a = result.accesses[n];
    std::printf("%-4zu %-8s %-10s %10.4f %12.4f %12.4f\n", n + 1, a.id.key().c_str(),
                streaming::to_string(a.cls), to_seconds(a.comm_latency),
                to_seconds(a.decompress_time), to_seconds(a.total()));
  }

  std::printf("\n");
  session::print_summary(std::cout, to_string(cfg.which), result.summary);
  std::printf("database: %.1f MB compressed (%.1fx); %llu/%zu view sets prestaged\n",
              result.db_compressed_bytes / 1e6,
              result.db_uncompressed_bytes / result.db_compressed_bytes,
              static_cast<unsigned long long>(
                  result.obs->metrics.counter_total("agent.staged")),
              lightfield::SphericalLattice(cfg.lattice).view_set_count());
  std::printf("virtual session time: %.1f s\n", to_seconds(result.script_duration));
  return 0;
}
