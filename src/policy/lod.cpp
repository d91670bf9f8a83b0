#include "policy/lod.hpp"

namespace lon::policy {

int LodSelector::pick(SimDuration full_estimate, SimDuration budget,
                      const std::vector<double>& cost_ratios) const {
  if (cost_ratios.empty()) return 0;
  if (budget <= 0) return static_cast<int>(cost_ratios.size());
  const double limit = static_cast<double>(budget) * kHeadroom;
  const double full = static_cast<double>(full_estimate);
  if (full <= limit) return 0;
  for (std::size_t k = 0; k < cost_ratios.size(); ++k) {
    if (full * cost_ratios[k] <= limit) return static_cast<int>(k) + 1;
  }
  return static_cast<int>(cost_ratios.size());
}

std::vector<double> LodSelector::cost_ratios(
    std::size_t full_resolution, const std::vector<std::size_t>& tier_resolutions) {
  std::vector<double> ratios;
  ratios.reserve(tier_resolutions.size());
  for (std::size_t res : tier_resolutions) {
    if (full_resolution == 0) {
      ratios.push_back(1.0);
      continue;
    }
    const double f = static_cast<double>(res) / static_cast<double>(full_resolution);
    ratios.push_back(f * f);
  }
  return ratios;
}

}  // namespace lon::policy
