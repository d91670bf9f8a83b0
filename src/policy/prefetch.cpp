#include "policy/prefetch.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace lon::policy {
namespace {

using lightfield::ViewSetId;
using lightfield::ViewSetIdHash;

/// Residency-filtered, budget-truncated copy of `ids` in the given order.
std::vector<ViewSetId> filter_to_budget(const std::vector<ViewSetId>& ids,
                                        const PrefetchContext& ctx) {
  std::vector<ViewSetId> out;
  for (const auto& id : ids) {
    if (out.size() >= ctx.budget) break;
    if (ctx.is_resident && ctx.is_resident(id)) continue;
    out.push_back(id);
  }
  return out;
}

std::vector<ViewSetId> quadrant_targets(const PrefetchContext& ctx) {
  return filter_to_budget(ctx.lattice->prefetch_targets(ctx.cursor_vs, ctx.quadrant), ctx);
}

class NonePolicy final : public PrefetchPolicy {
 public:
  std::vector<ViewSetId> targets(const PrefetchContext&) const override { return {}; }
};

class QuadrantPolicy final : public PrefetchPolicy {
 public:
  std::vector<ViewSetId> targets(const PrefetchContext& ctx) const override {
    return quadrant_targets(ctx);
  }
};

class PredictivePolicy final : public PrefetchPolicy {
 public:
  std::vector<ViewSetId> targets(const PrefetchContext& ctx) const override {
    const auto* motion = ctx.motion;
    // No trajectory yet (first samples, or a teleport just reset the model):
    // the positional policy is the best available signal, and falling back to
    // it bounds wasted prefetch during discontinuities.
    if (motion == nullptr || !motion->has_estimate() ||
        motion->speed() < kMinSpeedRadPerSec) {
      return quadrant_targets(ctx);
    }

    const auto& lattice = *ctx.lattice;
    // Half the angular width of a view set: once the cursor is within this of
    // a set's center, the set is effectively needed *now*.
    const double half_window = deg2rad(lattice.config().angular_step_deg) *
                               lattice.config().view_set_span * 0.5;

    struct Scored {
      ViewSetId id;
      double score;
    };
    std::vector<Scored> scored;
    std::unordered_set<ViewSetId, ViewSetIdHash> seen;
    seen.insert(ctx.cursor_vs);

    // Estimate the closing speed towards each candidate by extrapolating the
    // trajectory a short probe interval and differencing the distances.
    constexpr SimDuration kProbe = 100 * kMillisecond;
    const double probe_s = to_seconds(kProbe);
    const Spherical here = motion->position();
    const Spherical probe = motion->predict(kProbe);
    const double horizon_s = to_seconds(ctx.horizon);

    const int rows = static_cast<int>(lattice.view_set_rows());
    const int cols = static_cast<int>(lattice.view_set_cols());
    for (int dr = -kRing; dr <= kRing; ++dr) {
      for (int dc = -kRing; dc <= kRing; ++dc) {
        if (dr == 0 && dc == 0) continue;
        const int row = ctx.cursor_vs.row + dr;
        if (row < 0 || row >= rows) continue;  // theta clamps
        int col = (ctx.cursor_vs.col + dc) % cols;
        if (col < 0) col += cols;  // phi wraps
        const ViewSetId id{row, col};
        if (!seen.insert(id).second) continue;  // wrap duplicate on tiny grids
        if (ctx.is_resident && ctx.is_resident(id)) continue;

        const Spherical center = lattice.view_set_center(id);
        const double dist_now = angular_distance(here, center);
        const double closing = (dist_now - angular_distance(probe, center)) / probe_s;
        double t_need;
        if (dist_now <= half_window) {
          t_need = 0.0;  // trajectory already inside the set's window
        } else if (closing <= 1e-9) {
          continue;  // moving away or tangential: never needed on this path
        } else {
          t_need = (dist_now - half_window) / closing;
        }
        if (t_need > horizon_s) continue;

        const double latency_s =
            ctx.fetch_estimate ? to_seconds(ctx.fetch_estimate(id)) : 0.0;
        // Urgency: how much of the remaining lead time the fetch itself will
        // consume. A set whose fetch takes longer than the time until it is
        // needed scores above 1 — fetch it first.
        scored.push_back({id, latency_s / (t_need + kTieBreakerS)});
      }
    }

    std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
      if (a.score != b.score) return a.score > b.score;
      if (a.id.row != b.id.row) return a.id.row < b.id.row;
      return a.id.col < b.id.col;
    });

    std::vector<ViewSetId> out;
    for (const auto& s : scored) {
      if (out.size() >= ctx.budget) break;
      out.push_back(s.id);
    }
    // A moving cursor with nothing scored (everything on-path is resident or
    // out of horizon) still benefits from the positional baseline.
    if (out.empty()) return quadrant_targets(ctx);
    return out;
  }

 private:
  /// Candidate neighbourhood: view sets within 2 grid steps of the cursor's.
  static constexpr int kRing = 2;
  /// Below this angular speed the trajectory direction is numerically
  /// meaningless; treat as stationary.
  static constexpr double kMinSpeedRadPerSec = 1e-4;
  /// Added to time-to-need so already-due sets get a large finite score and
  /// equal-urgency sets break ties deterministically.
  static constexpr double kTieBreakerS = 0.05;
};

}  // namespace

const char* to_string(PrefetchStrategy s) {
  switch (s) {
    case PrefetchStrategy::kNone:
      return "none";
    case PrefetchStrategy::kQuadrant:
      return "quadrant";
    case PrefetchStrategy::kPredictive:
      return "predictive";
  }
  return "unknown";
}

std::unique_ptr<PrefetchPolicy> make_prefetch_policy(PrefetchStrategy s) {
  switch (s) {
    case PrefetchStrategy::kNone:
      return std::make_unique<NonePolicy>();
    case PrefetchStrategy::kPredictive:
      return std::make_unique<PredictivePolicy>();
    case PrefetchStrategy::kQuadrant:
      break;
  }
  return std::make_unique<QuadrantPolicy>();
}

}  // namespace lon::policy
