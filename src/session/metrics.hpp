// Access-trace analysis: the quantities reported in the paper's section 4.3.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "streaming/types.hpp"

namespace lon::session {

struct AccessSummary {
  std::size_t total = 0;
  std::size_t hits = 0;
  std::size_t lan = 0;
  std::size_t wan = 0;

  double hit_rate = 0.0;        ///< hits / total
  double wan_rate = 0.0;        ///< wan / total

  /// "Initial phase": accesses up to and including the last WAN access
  /// ("After that phase, there are no accesses to the WAN"). 0 when the run
  /// never touched the WAN.
  std::size_t initial_phase = 0;
  double wan_rate_initial = 0.0;  ///< WAN accesses / initial-phase accesses
  double hit_rate_initial = 0.0;

  double mean_total_s = 0.0;        ///< mean client-observed latency
  double mean_total_phase2_s = 0.0; ///< same, after the initial phase
  double mean_comm_s = 0.0;         ///< mean agent data-access latency
  double mean_comm_hit_s = 0.0;
  double mean_comm_lan_s = 0.0;
  double mean_comm_wan_s = 0.0;
  double mean_decompress_s = 0.0;
  double max_total_s = 0.0;
};

[[nodiscard]] AccessSummary summarize(const std::vector<streaming::AccessRecord>& records);

/// Prints "n<TAB>seconds" rows — one latency series of figures 9-11.
void print_latency_series(std::ostream& os, const std::string& label,
                          const std::vector<streaming::AccessRecord>& records);

/// Prints "n<TAB>seconds<TAB>class" rows — the communication latency of
/// figure 12 (log-scale in the paper; we print raw seconds).
void print_comm_series(std::ostream& os, const std::string& label,
                       const std::vector<streaming::AccessRecord>& records);

/// One-paragraph summary block (used by the benches).
void print_summary(std::ostream& os, const std::string& label, const AccessSummary& s);

}  // namespace lon::session
