// Per-access level-of-detail selection for continuous LOD streaming.
//
// The degradation ladder (PR 6) only reaches for the coarse tier after a
// streak of deadline misses has already hurt the user. The selector here is
// proactive: before dispatching a demand fetch it compares the
// FetchLatencyEstimator's prediction for a full-resolution fetch against the
// time remaining until the view is needed, and — when full resolution cannot
// make it — picks the *finest* coarse tier whose predicted cost still fits.
// Coarse tiers cost less in proportion to their pixel count, so a tier at
// half the view resolution is modelled at one quarter of the full fetch.
//
// lod 0 is full resolution; lod k (k >= 1) is the k-th coarse tier, finest
// first. Returning 0 means "full resolution fits — do not degrade".
#pragma once

#include <cstddef>
#include <vector>

#include "util/time.hpp"

namespace lon::policy {

class LodSelector {
 public:
  /// A tier is only chosen if its predicted fetch fits within this fraction
  /// of the remaining budget — headroom for decode + delivery.
  static constexpr double kHeadroom = 0.8;

  /// Picks the LOD for a demand fetch. `full_estimate` is the latency
  /// estimator's prediction for a full-resolution fetch of this access
  /// class, `budget` the time remaining until the interactivity deadline,
  /// and `cost_ratios[k]` the predicted cost of tier k+1 relative to a
  /// full-resolution fetch (finest first, each in (0, 1)).
  ///
  /// Returns 0 when full resolution fits (or no budget/tiers are
  /// configured), the finest tier that fits otherwise, and the coarsest
  /// tier when nothing fits — degrade resolution, never fluidity.
  [[nodiscard]] int pick(SimDuration full_estimate, SimDuration budget,
                         const std::vector<double>& cost_ratios) const;

  /// Relative fetch-cost of each coarse tier: payload bytes scale with the
  /// pixel count, i.e. (tier_resolution / full_resolution)^2.
  [[nodiscard]] static std::vector<double> cost_ratios(
      std::size_t full_resolution, const std::vector<std::size_t>& tier_resolutions);
};

}  // namespace lon::policy
