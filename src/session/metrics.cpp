#include "session/metrics.hpp"

#include <algorithm>
#include <ostream>

namespace lon::session {

using streaming::AccessClass;
using streaming::AccessRecord;

AccessSummary summarize(const std::vector<AccessRecord>& records) {
  AccessSummary s;
  s.total = records.size();
  if (records.empty()) return s;

  std::size_t last_wan = 0;
  bool any_wan = false;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].cls == AccessClass::kWan) {
      last_wan = i;
      any_wan = true;
    }
  }
  s.initial_phase = any_wan ? last_wan + 1 : 0;

  double sum_total = 0.0, sum_comm = 0.0, sum_decomp = 0.0;
  double sum_total_p2 = 0.0;
  double sum_hit = 0.0, sum_lan = 0.0, sum_wan = 0.0;
  std::size_t hits_initial = 0, wan_initial = 0;

  for (std::size_t i = 0; i < records.size(); ++i) {
    const AccessRecord& r = records[i];
    const double total_s = to_seconds(r.total());
    const double comm_s = to_seconds(r.comm_latency);
    sum_total += total_s;
    sum_comm += comm_s;
    sum_decomp += to_seconds(r.decompress_time);
    s.max_total_s = std::max(s.max_total_s, total_s);
    switch (r.cls) {
      case AccessClass::kAgentHit:
        ++s.hits;
        sum_hit += comm_s;
        break;
      case AccessClass::kLanDepot:
        ++s.lan;
        sum_lan += comm_s;
        break;
      case AccessClass::kWan:
        ++s.wan;
        sum_wan += comm_s;
        break;
    }
    if (i < s.initial_phase) {
      if (r.cls == AccessClass::kAgentHit) ++hits_initial;
      if (r.cls == AccessClass::kWan) ++wan_initial;
    } else {
      sum_total_p2 += total_s;
    }
  }

  const auto n = static_cast<double>(s.total);
  s.hit_rate = static_cast<double>(s.hits) / n;
  s.wan_rate = static_cast<double>(s.wan) / n;
  if (s.initial_phase > 0) {
    s.wan_rate_initial =
        static_cast<double>(wan_initial) / static_cast<double>(s.initial_phase);
    s.hit_rate_initial =
        static_cast<double>(hits_initial) / static_cast<double>(s.initial_phase);
  }
  s.mean_total_s = sum_total / n;
  s.mean_comm_s = sum_comm / n;
  s.mean_decompress_s = sum_decomp / n;
  const std::size_t phase2 = s.total - s.initial_phase;
  s.mean_total_phase2_s = phase2 > 0 ? sum_total_p2 / static_cast<double>(phase2) : 0.0;
  s.mean_comm_hit_s = s.hits > 0 ? sum_hit / static_cast<double>(s.hits) : 0.0;
  s.mean_comm_lan_s = s.lan > 0 ? sum_lan / static_cast<double>(s.lan) : 0.0;
  s.mean_comm_wan_s = s.wan > 0 ? sum_wan / static_cast<double>(s.wan) : 0.0;
  return s;
}

void print_latency_series(std::ostream& os, const std::string& label,
                          const std::vector<AccessRecord>& records) {
  os << "# " << label << ": client-observed latency per view-set access\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    os << (i + 1) << '\t' << to_seconds(records[i].total()) << '\n';
  }
}

void print_comm_series(std::ostream& os, const std::string& label,
                       const std::vector<AccessRecord>& records) {
  os << "# " << label << ": communication latency per view-set access (class)\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    os << (i + 1) << '\t' << to_seconds(records[i].comm_latency) << '\t'
       << streaming::to_string(records[i].cls) << '\n';
  }
}

void print_summary(std::ostream& os, const std::string& label, const AccessSummary& s) {
  os << "== " << label << " ==\n"
     << "  accesses=" << s.total << " hits=" << s.hits << " lan=" << s.lan
     << " wan=" << s.wan << '\n'
     << "  hit_rate=" << s.hit_rate << " wan_rate=" << s.wan_rate << '\n'
     << "  initial_phase=" << s.initial_phase
     << " (wan_rate=" << s.wan_rate_initial << ", hit_rate=" << s.hit_rate_initial
     << ")\n"
     << "  mean_total=" << s.mean_total_s << "s (phase2=" << s.mean_total_phase2_s
     << "s, max=" << s.max_total_s << "s)\n"
     << "  mean_comm: hit=" << s.mean_comm_hit_s << "s lan=" << s.mean_comm_lan_s
     << "s wan=" << s.mean_comm_wan_s << "s\n"
     << "  mean_decompress=" << s.mean_decompress_s << "s\n";
}

}  // namespace lon::session
