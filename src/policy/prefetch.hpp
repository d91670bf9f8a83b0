// Prefetch scheduling policies for the client agent.
//
// Two strategies share one interface: the paper's positional quadrant policy
// (figure 4 — the 3 view sets adjacent to the cursor's corner quadrant) and a
// predictive policy that extrapolates the cursor trajectory from the motion
// model and ranks candidates by urgency: how soon the cursor will need a set
// versus how long a fetch of it takes. The agent asks the policy *what* to
// fetch; the agent itself enforces the inflight/byte budget and issues the
// fetches, so both policies stay pure ranking functions over lattice state.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "lightfield/lattice.hpp"
#include "policy/latency.hpp"
#include "policy/motion.hpp"
#include "util/time.hpp"

namespace lon::policy {

enum class PrefetchStrategy {
  kNone,        ///< prefetch disabled
  kQuadrant,    ///< paper figure 4: 3 corner-quadrant neighbours
  kPredictive,  ///< trajectory extrapolation + time-to-need scoring
};

[[nodiscard]] const char* to_string(PrefetchStrategy s);

/// Everything a policy may consult when ranking candidates. The residency
/// and latency callbacks keep the policy decoupled from the agent's cache
/// and estimator types.
struct PrefetchContext {
  const lightfield::SphericalLattice* lattice = nullptr;
  const CursorMotionModel* motion = nullptr;
  Spherical cursor{};                 ///< latest raw cursor direction
  lightfield::ViewSetId cursor_vs{};  ///< view set containing the cursor
  int quadrant = 0;                   ///< cursor's quadrant within that set
  SimTime now = 0;
  /// How far ahead (virtual time) prefetching is allowed to look.
  SimDuration horizon = 2 * kSecond;
  /// Upper bound on how many targets the agent will act on this round.
  std::size_t budget = 3;
  /// True if the set is already cached or being fetched (skip it).
  std::function<bool(const lightfield::ViewSetId&)> is_resident;
  /// Estimated latency of fetching one view set right now.
  std::function<SimDuration(const lightfield::ViewSetId&)> fetch_estimate;
};

class PrefetchPolicy {
 public:
  virtual ~PrefetchPolicy() = default;

  /// Targets to fetch, most urgent first, already filtered for residency and
  /// truncated to `ctx.budget`.
  [[nodiscard]] virtual std::vector<lightfield::ViewSetId> targets(
      const PrefetchContext& ctx) const = 0;
};

[[nodiscard]] std::unique_ptr<PrefetchPolicy> make_prefetch_policy(PrefetchStrategy s);

}  // namespace lon::policy
