// Continuous LOD streaming (PR 7): (id, lod)-scoped cache keying, the
// per-access LOD selector, and progressive refinement end to end on the
// PDA-class constrained link — plus the demand_wan_active counter balance
// the coarse/shed/retry paths must preserve.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "policy/lod.hpp"
#include "session/experiment.hpp"
#include "session/scenario.hpp"
#include "streaming/cache.hpp"

namespace lon {
namespace {

using lightfield::ViewSetId;
using streaming::AccessClass;
using streaming::ViewSetCache;

/// Run-wide total of one registry counter, summed over every instance.
std::uint64_t total(const std::shared_ptr<obs::Context>& obs, const std::string& name) {
  return obs->metrics.counter_total(name);
}

// --- (id, lod) cache keying ---------------------------------------------------

TEST(LodCache, CoarseBytesNeverServeTheFullResolutionKey) {
  ViewSetCache cache(1 << 20);
  const ViewSetId id{1, 2};
  ASSERT_TRUE(cache.put(id, Bytes(64, 7), /*prefetched=*/false, /*lod=*/1));
  EXPECT_TRUE(cache.contains(id, 1));
  EXPECT_FALSE(cache.contains(id, 0));
  // The regression this PR fixes: a full-resolution lookup must miss, not
  // silently hand back the coarse substitute.
  EXPECT_EQ(cache.get(id), nullptr);
  EXPECT_NE(cache.get(id, nullptr, true, 1), nullptr);
}

TEST(LodCache, TiersOfOneViewSetCoexist) {
  ViewSetCache cache(1 << 20);
  const ViewSetId id{0, 0};
  ASSERT_TRUE(cache.put(id, Bytes(512, 1), false, 0));
  ASSERT_TRUE(cache.put(id, Bytes(128, 2), false, 1));
  ASSERT_TRUE(cache.put(id, Bytes(32, 3), false, 2));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.get(id, nullptr, true, 0)->size(), 512u);
  EXPECT_EQ(cache.get(id, nullptr, true, 1)->size(), 128u);
  EXPECT_EQ(cache.get(id, nullptr, true, 2)->size(), 32u);
}

TEST(LodCache, BestCoarseLodReturnsTheFinestCachedTier) {
  ViewSetCache cache(1 << 20);
  const ViewSetId id{3, 4};
  EXPECT_EQ(cache.best_coarse_lod(id, 3), 0);
  ASSERT_TRUE(cache.put(id, Bytes(32, 0), false, 2));
  EXPECT_EQ(cache.best_coarse_lod(id, 3), 2);
  ASSERT_TRUE(cache.put(id, Bytes(128, 0), false, 1));
  EXPECT_EQ(cache.best_coarse_lod(id, 3), 1);
  // A full-resolution entry is not a "coarse" tier.
  ViewSetCache full_only(1 << 20);
  ASSERT_TRUE(full_only.put(id, Bytes(512, 0), false, 0));
  EXPECT_EQ(full_only.best_coarse_lod(id, 3), 0);
}

TEST(LodCache, EraseCoarseDropsEveryTierButKeepsFullRes) {
  ViewSetCache cache(1 << 20);
  const ViewSetId id{5, 6};
  const ViewSetId other{5, 7};
  ASSERT_TRUE(cache.put(id, Bytes(512, 0), false, 0));
  ASSERT_TRUE(cache.put(id, Bytes(128, 0), false, 1));
  ASSERT_TRUE(cache.put(id, Bytes(32, 0), false, 2));
  ASSERT_TRUE(cache.put(other, Bytes(128, 0), false, 1));
  EXPECT_EQ(cache.erase_coarse(id, 3), 2u);
  EXPECT_TRUE(cache.contains(id, 0));
  EXPECT_FALSE(cache.contains(id, 1));
  EXPECT_FALSE(cache.contains(id, 2));
  // Other ids' tiers are untouched, and the byte accounting balances.
  EXPECT_TRUE(cache.contains(other, 1));
  EXPECT_EQ(cache.bytes_used(), 512u + 128u);
  EXPECT_EQ(cache.erase_coarse(id, 3), 0u);
}

// --- LOD selector -------------------------------------------------------------

TEST(LodSelector, FullResolutionWhenItFitsOrNothingIsConfigured) {
  const policy::LodSelector sel;
  const std::vector<double> ratios{0.25, 0.0625};
  // No tiers configured: always full resolution.
  EXPECT_EQ(sel.pick(10 * kSecond, kSecond, {}), 0);
  // Prediction inside the (headroom-scaled) budget: no reason to degrade.
  EXPECT_EQ(sel.pick(500 * kMillisecond, kSecond, ratios), 0);
}

TEST(LodSelector, PicksTheFinestTierThatFits) {
  const policy::LodSelector sel;
  const std::vector<double> ratios{0.25, 0.0625};
  // Full needs 2 s against an 800 ms effective budget; tier 1 is predicted
  // at 500 ms and fits — the finest acceptable tier wins.
  EXPECT_EQ(sel.pick(2 * kSecond, kSecond, ratios), 1);
  // Full at 4 s: tier 1 (1 s) no longer fits, tier 2 (250 ms) does.
  EXPECT_EQ(sel.pick(4 * kSecond, kSecond, ratios), 2);
}

TEST(LodSelector, CoarsestTierWhenNothingFits) {
  const policy::LodSelector sel;
  const std::vector<double> ratios{0.25, 0.0625};
  EXPECT_EQ(sel.pick(100 * kSecond, kSecond, ratios), 2);
  // Deadline already blown: the cheapest possible delivery.
  EXPECT_EQ(sel.pick(kSecond, 0, ratios), 2);
  EXPECT_EQ(sel.pick(kSecond, -kSecond, ratios), 2);
}

TEST(LodSelector, CostRatiosScaleWithPixelCount) {
  const std::vector<double> ratios =
      policy::LodSelector::cost_ratios(200, {100, 50});
  ASSERT_EQ(ratios.size(), 2u);
  EXPECT_NEAR(ratios[0], 0.25, 1e-12);
  EXPECT_NEAR(ratios[1], 0.0625, 1e-12);
}

// --- PDA-class constrained link: the tentpole, end to end ---------------------

TEST(LodStreaming, PdaLinkHoldsEveryAccessInsideTheDeadline) {
  const session::Scenario scenario = session::pda_link(/*lod_streaming=*/true);
  const double slo_s = to_seconds(scenario.slo_deadline);
  const session::ScenarioResult r = session::run_scenario(scenario);
  EXPECT_EQ(r.failed_accesses, 0u);
  std::size_t misses = 0, coarse = 0;
  for (const auto& pc : r.clients) {
    for (const auto& a : pc.accesses) {
      if (to_seconds(a.total()) > slo_s) ++misses;
      if (a.lod > 0) ++coarse;
    }
  }
  // Degrade resolution, never fluidity: zero deadline misses, a nonzero
  // number of coarse serves, and every background refinement reaching full
  // resolution before the run drains.
  EXPECT_EQ(misses, 0u);
  EXPECT_GT(coarse, 0u);
  EXPECT_GT(total(r.obs, "agent.lod_coarse_serves"), 0u);
  EXPECT_GT(total(r.obs, "agent.lod_refined"), 0u);
  EXPECT_EQ(total(r.obs, "agent.lod_refined"), total(r.obs, "agent.lod_refinements"));
}

TEST(LodStreaming, FullResolutionControlMissesTheDeadline) {
  const session::Scenario scenario = session::pda_link(/*lod_streaming=*/false);
  const double slo_s = to_seconds(scenario.slo_deadline);
  const session::ScenarioResult r = session::run_scenario(scenario);
  EXPECT_EQ(r.failed_accesses, 0u);
  std::size_t misses = 0;
  for (const auto& pc : r.clients) {
    for (const auto& a : pc.accesses) {
      if (to_seconds(a.total()) > slo_s) ++misses;
      EXPECT_EQ(a.lod, 0);
    }
  }
  EXPECT_GT(misses, 0u);
  EXPECT_EQ(total(r.obs, "agent.lod_coarse_serves"), 0u);
  EXPECT_EQ(total(r.obs, "agent.lod_refinements"), 0u);
}

TEST(LodStreaming, RevisitAfterRefinementServesFullResolutionBytes) {
  // The pda_link scripts pan out six steps and back five: every return-leg
  // access revisits a view set whose background refinement has had a full
  // dwell to land. Those accesses must be full-resolution cache hits — the
  // post-upgrade regression this PR's cache keying exists to prevent is a
  // demand access silently served the stale coarse substitute.
  const session::ScenarioResult r =
      session::run_scenario(session::pda_link(/*lod_streaming=*/true));
  for (const auto& pc : r.clients) {
    ASSERT_EQ(pc.accesses.size(), 11u);
    std::uint64_t max_coarse_bytes = 0;
    auto min_full_bytes = std::numeric_limits<std::uint64_t>::max();
    for (const auto& a : pc.accesses) {
      if (a.lod > 0) {
        max_coarse_bytes = std::max(max_coarse_bytes, a.compressed_bytes);
      } else {
        min_full_bytes = std::min(min_full_bytes, a.compressed_bytes);
      }
    }
    for (std::size_t i = 6; i < pc.accesses.size(); ++i) {
      EXPECT_EQ(pc.accesses[i].lod, 0) << "return-leg access " << i;
      EXPECT_EQ(pc.accesses[i].cls, AccessClass::kAgentHit) << i;
    }
    // Full-resolution payloads are an order of magnitude larger than the
    // coarse tiers; equal sizes would mean coarse bytes leaked through.
    EXPECT_GT(min_full_bytes, max_coarse_bytes);
  }
}

TEST(LodStreaming, PdaRunsAreDeterministic) {
  const session::ScenarioResult a = session::run_scenario(session::pda_link(true));
  const session::ScenarioResult b = session::run_scenario(session::pda_link(true));
  EXPECT_EQ(a.mean_total_s, b.mean_total_s);
  EXPECT_EQ(a.p99_worst_s, b.p99_worst_s);
  EXPECT_EQ(total(a.obs, "agent.lod_coarse_serves"),
            total(b.obs, "agent.lod_coarse_serves"));
  EXPECT_EQ(total(a.obs, "agent.lod_refined"), total(b.obs, "agent.lod_refined"));
  EXPECT_EQ(a.duration, b.duration);
}

// --- degradation-ladder coexistence -------------------------------------------

TEST(LodLadder, LadderCoarseServesAreScopedAndLabelled) {
  // Ladder mode (PR 6): a 1 ns deadline walks the agent down to the coarse
  // rung; every coarse serve must be labelled with its lod and carry the
  // coarse tier's bytes — never cached at, or served from, the full key.
  session::ExperimentConfig cfg;
  cfg.lattice.angular_step_deg = 15.0;
  cfg.lattice.view_set_span = 3;
  cfg.lattice.view_resolution = 64;
  cfg.which = session::Case::kWanStreaming;
  cfg.all_filler = true;
  cfg.client.decode = false;
  cfg.client.timing = streaming::ClientConfig::Timing::kModeled;
  cfg.dwell = 200 * kMillisecond;
  cfg.accesses = 10;
  cfg.agent.degrade = true;
  cfg.agent.degrade_after_misses = 1;
  cfg.agent.upgrade_after_hits = 100;
  cfg.agent.deadline = 1;
  cfg.lod_resolutions = {32};

  const session::ExperimentResult result = session::run_experiment(cfg);
  EXPECT_EQ(result.failed_accesses, 0u);
  EXPECT_GT(total(result.obs, "agent.degrade_lod"), 0u);
  // Ladder mode does not refine in the background (lod_streaming off).
  EXPECT_EQ(total(result.obs, "agent.lod_refinements"), 0u);
  std::uint64_t max_coarse_bytes = 0;
  auto min_full_bytes = std::numeric_limits<std::uint64_t>::max();
  std::size_t coarse = 0;
  for (const auto& a : result.accesses) {
    if (a.lod > 0) {
      ++coarse;
      max_coarse_bytes = std::max(max_coarse_bytes, a.compressed_bytes);
    } else if (a.compressed_bytes > 0) {
      min_full_bytes = std::min(min_full_bytes, a.compressed_bytes);
    }
  }
  EXPECT_GT(coarse, 0u);
  EXPECT_GT(min_full_bytes, max_coarse_bytes);
}

// --- demand_wan_active balance ------------------------------------------------

TEST(LodStreaming, DemandWanCounterBalancesAfterEveryScenario) {
  // The WAN-concurrency gauge must return to zero however a download ends:
  // clean finish, coarse redirect, retry after a failure, or shed. A leak
  // here starves (or floods) the admission path for the rest of the session.
  // Each of these scenarios runs a single agent: registry instance 0.
  const auto wan_active = [](const session::ScenarioResult& r) {
    const obs::Gauge* g =
        r.obs->metrics.find_gauge("agent.demand_wan_active", "component=agent,inst=0");
    return g != nullptr ? g->value() : -1.0;
  };
  EXPECT_EQ(wan_active(session::run_scenario(session::pda_link(true))), 0.0);
  EXPECT_EQ(wan_active(session::run_scenario(session::flash_crowd(8, /*admission=*/true))),
            0.0);
  EXPECT_EQ(wan_active(session::run_scenario(session::teleport_under_faults(2))), 0.0);
}

}  // namespace
}  // namespace lon
