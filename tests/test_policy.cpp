// Client policy engine (ISSUE 5): cursor motion model, per-class latency
// estimator, eviction policies, the predictive prefetch scheduler, and the
// end-to-end guarantees the perf gate enforces — predictive beats the
// paper's quadrant policy on scripted walks, hybrid eviction shields the
// demand working set from prefetch pollution, and the prefetch budget holds
// under a saturated WAN.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lightfield/procedural.hpp"
#include "policy/eviction.hpp"
#include "policy/latency.hpp"
#include "policy/motion.hpp"
#include "policy/prefetch.hpp"
#include "session/cursor.hpp"
#include "session/experiment.hpp"
#include "streaming/cache.hpp"
#include "streaming/client_agent.hpp"
#include "streaming/dvs.hpp"

namespace lon::policy {
namespace {

using lightfield::ViewSetId;

lightfield::LatticeConfig small_config(std::size_t resolution = 24) {
  lightfield::LatticeConfig cfg;
  cfg.angular_step_deg = 15.0;  // 12 x 24 lattice
  cfg.view_set_span = 3;        // 4 x 8 = 32 view sets
  cfg.view_resolution = resolution;
  return cfg;
}

// --- motion model ------------------------------------------------------------

TEST(Motion, WrapAngleFoldsIntoHalfOpenRange) {
  EXPECT_DOUBLE_EQ(wrap_angle(0.0), 0.0);
  EXPECT_NEAR(wrap_angle(kPi + 0.1), -kPi + 0.1, 1e-12);
  EXPECT_NEAR(wrap_angle(-kPi - 0.1), kPi - 0.1, 1e-12);
  EXPECT_NEAR(wrap_angle(2 * kPi + 0.3), 0.3, 1e-12);
}

TEST(Motion, ConstantPanYieldsItsVelocity) {
  CursorMotionModel motion;
  for (int i = 0; i < 4; ++i) {
    motion.observe({1.2, 0.5 + 0.1 * i}, static_cast<SimTime>(i) * 100 * kMillisecond);
  }
  ASSERT_TRUE(motion.has_estimate());
  EXPECT_NEAR(motion.phi_velocity(), 1.0, 1e-9);   // 0.1 rad / 100 ms
  EXPECT_NEAR(motion.theta_velocity(), 0.0, 1e-9);
  EXPECT_NEAR(motion.speed(), 1.0, 1e-9);
  const Spherical ahead = motion.predict(kSecond);
  EXPECT_NEAR(ahead.phi, 0.8 + 1.0, 1e-9);
  EXPECT_NEAR(ahead.theta, 1.2, 1e-9);
}

TEST(Motion, PhiVelocityIsWrapAwareAtTheSeam) {
  CursorMotionModel motion;
  motion.observe({1.2, 2 * kPi - 0.05}, 0);
  motion.observe({1.2, 0.05}, 100 * kMillisecond);  // crossed the 2pi seam
  ASSERT_TRUE(motion.has_estimate());
  // +0.1 rad across the seam, not -6.18 rad backwards.
  EXPECT_NEAR(motion.phi_velocity(), 1.0, 1e-9);
}

TEST(Motion, TeleportResetsTheEstimate) {
  CursorMotionModel motion;
  motion.observe({1.2, 0.5}, 0);
  motion.observe({1.2, 0.6}, 100 * kMillisecond);
  ASSERT_TRUE(motion.has_estimate());
  motion.observe({1.2, 0.6 + kPi}, 200 * kMillisecond);  // > kTeleportRad jump
  EXPECT_FALSE(motion.has_estimate());
  // Two compatible samples after the jump re-arm the model.
  motion.observe({1.2, 0.6 + kPi + 0.1}, 300 * kMillisecond);
  EXPECT_TRUE(motion.has_estimate());
}

TEST(Motion, IdleGapResetsTheEstimate) {
  CursorMotionModel motion;
  motion.observe({1.2, 0.5}, 0);
  motion.observe({1.2, 0.6}, 100 * kMillisecond);
  ASSERT_TRUE(motion.has_estimate());
  motion.observe({1.2, 0.7}, 100 * kMillisecond + CursorMotionModel::kMaxGap + kSecond);
  EXPECT_FALSE(motion.has_estimate());
}

TEST(Motion, ReversalFlipsTheVelocitySign) {
  CursorMotionModel motion;
  SimTime t = 0;
  double phi = 1.0;
  for (int i = 0; i < 4; ++i) {
    motion.observe({1.2, phi += 0.1}, t += 100 * kMillisecond);
  }
  ASSERT_GT(motion.phi_velocity(), 0.0);
  for (int i = 0; i < 4; ++i) {
    motion.observe({1.2, phi -= 0.1}, t += 100 * kMillisecond);
  }
  EXPECT_LT(motion.phi_velocity(), 0.0);
}

TEST(Motion, PredictClampsThetaInsideThePoles) {
  CursorMotionModel motion;
  motion.observe({0.3, 1.0}, 0);
  motion.observe({0.1, 1.0}, 100 * kMillisecond);  // racing toward the pole
  ASSERT_TRUE(motion.has_estimate());
  const Spherical ahead = motion.predict(10 * kSecond);
  EXPECT_GT(ahead.theta, 0.0);
  EXPECT_LT(ahead.theta, kPi);
}

// --- latency estimator -------------------------------------------------------

TEST(Latency, PriorsServeBeforeAnySample) {
  FetchLatencyEstimator est;
  EXPECT_EQ(est.estimate(FetchClass::kLan), 20 * kMillisecond);
  EXPECT_EQ(est.estimate(FetchClass::kWan), 800 * kMillisecond);
  EXPECT_EQ(est.samples(FetchClass::kWan), 0u);
}

TEST(Latency, FirstSampleReplacesThePriorThenBlends) {
  FetchLatencyEstimator est;
  est.observe(FetchClass::kWan, 100 * kMillisecond);
  EXPECT_EQ(est.estimate(FetchClass::kWan), 100 * kMillisecond);
  est.observe(FetchClass::kWan, 200 * kMillisecond);
  // alpha = 0.3: 0.3 * 200 + 0.7 * 100 = 130 ms.
  EXPECT_EQ(est.estimate(FetchClass::kWan), 130 * kMillisecond);
  // The LAN class is untouched.
  EXPECT_EQ(est.estimate(FetchClass::kLan), 20 * kMillisecond);
}

// --- eviction policies -------------------------------------------------------

CacheEntryInfo entry(const ViewSetId& id, std::uint64_t last_use, bool prefetched,
                     bool demand_used, double distance) {
  return CacheEntryInfo{id, 100, last_use, prefetched, demand_used, distance};
}

TEST(Eviction, HybridSacrificesPollutionFirst) {
  const auto policy = make_eviction_policy(EvictionStrategy::kHybrid);
  const std::vector<CacheEntryInfo> entries = {
      entry({0, 0}, 1, false, true, 2.0),   // old, far demand entry
      entry({0, 1}, 9, true, false, 0.4),   // fresh unused prefetch (polluter)
      entry({0, 2}, 5, false, true, 0.2),
  };
  const auto pick = policy->pick_victim(entries, {{9, 9}, 100, false, 0.0});
  ASSERT_TRUE(pick.has_value());
  // LRU would kill {0,0}, the oldest and farthest. The polluter goes.
  EXPECT_EQ(entries[*pick].id, (ViewSetId{0, 1}));
}

TEST(Eviction, HybridProtectsAPureDemandWorkingSet) {
  const auto policy = make_eviction_policy(EvictionStrategy::kHybrid);
  const std::vector<CacheEntryInfo> entries = {
      entry({0, 0}, 1, false, true, 0.5),
      entry({0, 1}, 2, false, true, 0.3),
  };
  // Speculative insert vs all-demand residents: rejected outright.
  EXPECT_FALSE(policy->pick_victim(entries, {{9, 9}, 100, true, 0.1}).has_value());
  // Demand insert may still trim LRU-style.
  const auto pick = policy->pick_victim(entries, {{9, 9}, 100, false, 0.1});
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(entries[*pick].id, (ViewSetId{0, 0}));
}

TEST(Eviction, HybridKeepsTheHotterUnusedPrefetch) {
  const auto policy = make_eviction_policy(EvictionStrategy::kHybrid);
  const std::vector<CacheEntryInfo> entries = {
      entry({0, 0}, 5, false, true, 0.1),
      entry({0, 1}, 2, true, false, 0.2),  // unused prefetch just ahead
  };
  // Incoming prefetch is *farther* than the resident one: admission refused
  // rather than churning the more imminent target.
  EXPECT_FALSE(policy->pick_victim(entries, {{9, 9}, 100, true, 1.5}).has_value());
}

// --- cache + policy integration ---------------------------------------------

TEST(PolicyCache, HybridEvictsPolluterBeforeDemandEntries) {
  streaming::ViewSetCache cache(100);
  cache.configure(nullptr, make_eviction_policy(EvictionStrategy::kHybrid));
  ASSERT_TRUE(cache.put({0, 3}, Bytes(40), /*prefetched=*/true));
  ASSERT_TRUE(cache.put({0, 0}, Bytes(40), /*prefetched=*/false));
  // Touch the prefetched entry on the non-demand path: {0,0} is now LRU but
  // still the demand working set.
  EXPECT_NE(cache.get({0, 3}, nullptr, /*demand=*/false), nullptr);
  ASSERT_TRUE(cache.put({0, 1}, Bytes(40), /*prefetched=*/false));
  EXPECT_TRUE(cache.contains({0, 0}));    // demand entry survived
  EXPECT_FALSE(cache.contains({0, 3}));   // the polluter paid
  EXPECT_EQ(cache.pollution_evictions(), 1u);
}

TEST(PolicyCache, HybridRejectsPrefetchIntoDemandWorkingSet) {
  streaming::ViewSetCache cache(100);
  cache.configure(nullptr, make_eviction_policy(EvictionStrategy::kHybrid));
  ASSERT_TRUE(cache.put({0, 0}, Bytes(50)));
  ASSERT_TRUE(cache.put({0, 1}, Bytes(50)));
  EXPECT_NE(cache.get({0, 0}), nullptr);
  EXPECT_NE(cache.get({0, 1}), nullptr);
  EXPECT_FALSE(cache.put({0, 4}, Bytes(50), /*prefetched=*/true));
  EXPECT_EQ(cache.rejected_inserts(), 1u);
  EXPECT_TRUE(cache.contains({0, 0}));
  EXPECT_TRUE(cache.contains({0, 1}));
  EXPECT_EQ(cache.bytes_used(), 100u);   // rejected insert left no residue
  // A demand insert is never locked out.
  EXPECT_TRUE(cache.put({0, 2}, Bytes(50)));
}

// --- prefetch policies -------------------------------------------------------

struct PolicyHarness {
  lightfield::SphericalLattice lattice{small_config()};
  CursorMotionModel motion;
  PrefetchContext ctx;

  /// Two samples panning +phi inside view set {2,3} at ~2 rad/s. The second
  /// sample stays short of the set's +phi edge (the far half of the span).
  void pan_in_row2() {
    const Spherical c0 = lattice.view_set_center({2, 3});
    const double step = deg2rad(lattice.config().angular_step_deg);
    const Spherical c1{c0.theta, c0.phi + 0.75 * step};
    motion.observe(c0, kSecond);
    motion.observe(c1, kSecond + 100 * kMillisecond);
    ctx.lattice = &lattice;
    ctx.motion = &motion;
    ctx.cursor = c1;
    ctx.cursor_vs = lattice.view_set_of(c1);
    ctx.quadrant = lattice.quadrant_of(c1);
    ctx.now = kSecond + 100 * kMillisecond;
    ctx.horizon = 2 * kSecond;
    ctx.budget = 3;
    ctx.is_resident = [](const ViewSetId&) { return false; };
    ctx.fetch_estimate = [](const ViewSetId&) { return 100 * kMillisecond; };
  }
};

TEST(PrefetchPolicy, QuadrantMatchesThePaperTargets) {
  PolicyHarness h;
  h.pan_in_row2();
  const auto policy = make_prefetch_policy(PrefetchStrategy::kQuadrant);
  const auto expected = h.lattice.prefetch_targets(h.ctx.cursor_vs, h.ctx.quadrant);
  EXPECT_EQ(policy->targets(h.ctx), expected);
}

TEST(PrefetchPolicy, PredictiveLeadsTheTrajectory) {
  PolicyHarness h;
  h.pan_in_row2();
  ASSERT_TRUE(h.motion.has_estimate());
  ASSERT_EQ(h.ctx.cursor_vs, (ViewSetId{2, 3}));
  const auto policy = make_prefetch_policy(PrefetchStrategy::kPredictive);
  const auto targets = policy->targets(h.ctx);
  ASSERT_FALSE(targets.empty());
  // Most urgent first: the next view set in +phi, not a quadrant corner.
  EXPECT_EQ(targets.front(), (ViewSetId{2, 4}));
  for (const auto& t : targets) {
    EXPECT_FALSE(t == h.ctx.cursor_vs) << "proposed the set the cursor is in";
  }
}

TEST(PrefetchPolicy, PredictiveSkipsResidentAndHonoursBudget) {
  PolicyHarness h;
  h.pan_in_row2();
  const auto policy = make_prefetch_policy(PrefetchStrategy::kPredictive);
  h.ctx.budget = 1;
  EXPECT_LE(policy->targets(h.ctx).size(), 1u);
  h.ctx.budget = 3;
  h.ctx.is_resident = [](const ViewSetId& id) { return id == ViewSetId{2, 4}; };
  for (const auto& t : policy->targets(h.ctx)) {
    EXPECT_FALSE(t == (ViewSetId{2, 4})) << "re-proposed a resident set";
  }
}

TEST(PrefetchPolicy, PredictiveFallsBackToQuadrantWithoutAnEstimate) {
  PolicyHarness h;
  h.pan_in_row2();
  h.motion.reset();
  ASSERT_FALSE(h.motion.has_estimate());
  const auto policy = make_prefetch_policy(PrefetchStrategy::kPredictive);
  const auto expected = h.lattice.prefetch_targets(h.ctx.cursor_vs, h.ctx.quadrant);
  EXPECT_EQ(policy->targets(h.ctx), expected);
}

// --- prefetch budget under a saturated WAN -----------------------------------

class BudgetTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kResolution = 24;

  BudgetTest()
      : net_(sim_),
        fabric_(sim_, net_),
        lors_(sim_, net_, fabric_),
        source_(std::make_shared<lightfield::ProceduralSource>(small_config(kResolution))) {
    agent_node_ = net_.add_node("agent");
    router_ = net_.add_node("router");
    net_.add_link(agent_node_, router_, {1e9, 50 * kMicrosecond, 0.0});
    // A deliberately skinny trunk: fetches queue, so an unbudgeted
    // prefetcher would pile up in-flight transfers here.
    depot_node_ = net_.add_node("wan-0");
    net_.add_link(depot_node_, router_, {2e6, 35 * kMillisecond, 0.0});
    dvs_node_ = net_.add_node("dvs");
    net_.add_link(dvs_node_, router_, {1e9, kMillisecond, 0.0});
    ibp::DepotConfig cfg;
    cfg.capacity_bytes = 1ull << 30;
    cfg.max_alloc_bytes = 1ull << 28;
    fabric_.add_depot(depot_node_, "wan-0", cfg);
    dvs_ = std::make_unique<streaming::DvsServer>(sim_, net_, dvs_node_,
                                                  source_->lattice());
    for (const auto& id : source_->lattice().all_view_sets()) {
      Bytes compressed = source_->build_compressed(id);
      lors::UploadOptions up;
      up.depots = {"wan-0"};
      up.block_bytes = 4096;
      bool ok = false;
      lors_.upload_async(depot_node_, std::move(compressed), up,
                         [&](const lors::UploadResult& r) {
                           ok = r.status == lors::LorsStatus::kOk;
                           exnode::ExNode node = r.exnode;
                           dvs_->install(id, std::move(node));
                         });
      sim_.run();
      EXPECT_TRUE(ok);
    }
  }

  std::unique_ptr<streaming::ClientAgent> make_agent(
      streaming::ClientAgentConfig cfg) {
    cfg.staging = false;
    return std::make_unique<streaming::ClientAgent>(
        sim_, net_, fabric_, lors_, *dvs_, source_->lattice(), agent_node_, cfg);
  }

  /// Pans the cursor along the middle view-set row, stepping the simulator
  /// and running `probe` after every event.
  template <typename Probe>
  void pan(streaming::ClientAgent& agent, Probe probe, int steps = 24) {
    const auto& lattice = source_->lattice();
    const double set_width =
        lattice.config().view_set_span * deg2rad(lattice.config().angular_step_deg);
    Spherical dir = lattice.view_set_center({2, 0});
    for (int i = 0; i < steps; ++i) {
      agent.notify_cursor(dir);
      probe();
      const SimTime target = sim_.now() + 30 * kMillisecond;
      while (sim_.now() < target && sim_.step()) probe();
      dir.phi += set_width / 4;
      if (dir.phi >= 2 * kPi) dir.phi -= 2 * kPi;
    }
    sim_.run();
    probe();
  }

  sim::Simulator sim_;
  sim::Network net_;
  ibp::Fabric fabric_;
  lors::Lors lors_;
  std::shared_ptr<lightfield::ProceduralSource> source_;
  std::unique_ptr<streaming::DvsServer> dvs_;
  sim::NodeId agent_node_ = 0, router_ = 0, depot_node_ = 0, dvs_node_ = 0;
};

TEST_F(BudgetTest, InflightCapHoldsUnderSaturatedWan) {
  streaming::ClientAgentConfig cfg;
  cfg.prefetch = true;
  cfg.prefetch_strategy = PrefetchStrategy::kPredictive;
  cfg.prefetch_max_inflight = 2;
  auto agent = make_agent(cfg);
  std::size_t peak = 0;
  pan(*agent, [&] {
    peak = std::max(peak, agent->prefetch_inflight());
    ASSERT_LE(agent->prefetch_inflight(), 2u);
  });
  // The cap actually bit: the slow trunk kept both slots occupied, and the
  // scheduler never opened a third.
  EXPECT_EQ(peak, 2u);
  EXPECT_GT(agent->counter("agent.prefetches"), 0u);
}

TEST_F(BudgetTest, ByteBudgetStopsPrefetchOnceChargeIsKnown) {
  streaming::ClientAgentConfig cfg;
  cfg.prefetch = true;
  cfg.prefetch_strategy = PrefetchStrategy::kPredictive;
  cfg.prefetch_max_bytes = 1;  // nothing fits once the payload size is known
  auto agent = make_agent(cfg);

  // One demand fetch seeds the payload-size estimate (no cursor -> no
  // prefetch is triggered by it).
  bool done = false;
  agent->request_view_set({2, 0}, [&](const streaming::ClientAgent::Delivery& d) {
    done = true;
    EXPECT_FALSE(d.payload->empty());
  });
  sim_.run();
  ASSERT_TRUE(done);
  ASSERT_EQ(agent->counter("agent.prefetches"), 0u);

  pan(*agent, [] {});
  // Every round proposed targets; the byte budget refused them all.
  EXPECT_GT(agent->counter("policy.predictions"), 0u);
  EXPECT_EQ(agent->counter("agent.prefetches"), 0u);
}

// --- end-to-end: the perf-gate guarantees ------------------------------------

session::ExperimentConfig policy_experiment(PrefetchStrategy strategy,
                                            EvictionStrategy eviction,
                                            std::uint64_t cache_bytes) {
  session::ExperimentConfig cfg;
  cfg.lattice = small_config(200);
  cfg.which = session::Case::kWanStreaming;
  cfg.all_filler = true;
  cfg.client.decode = false;
  cfg.client.display_resolution = 200;
  cfg.client.timing = streaming::ClientConfig::Timing::kModeled;
  cfg.dwell = 35 * kMillisecond;
  cfg.agent.prefetch_strategy = strategy;
  cfg.agent.eviction = eviction;
  cfg.agent.cache_bytes = cache_bytes;
  cfg.agent.prefetch_max_inflight = 4;
  return cfg;
}

double hit_rate(const session::ExperimentResult& r) {
  const std::uint64_t requests = r.obs->metrics.counter_total("agent.requests");
  return requests > 0 ? static_cast<double>(r.obs->metrics.counter_total("agent.hits")) /
                            static_cast<double>(requests)
                      : 0.0;
}

double p99_s(const session::ExperimentResult& r) {
  std::vector<double> totals;
  totals.reserve(r.accesses.size());
  for (const auto& rec : r.accesses) totals.push_back(to_seconds(rec.total()));
  std::sort(totals.begin(), totals.end());
  return totals.empty() ? 0.0 : totals[(totals.size() - 1) * 99 / 100];
}

TEST(PolicyEndToEnd, PredictiveBeatsQuadrantOnScriptedWalks) {
  for (const char* script : {"smooth_pan", "reversal"}) {
    double rates[2] = {0.0, 0.0};
    int i = 0;
    for (const auto strategy :
         {PrefetchStrategy::kQuadrant, PrefetchStrategy::kPredictive}) {
      session::ExperimentConfig cfg =
          policy_experiment(strategy, EvictionStrategy::kLru, 512ull << 20);
      const lightfield::SphericalLattice lattice(cfg.lattice);
      cfg.script = std::string(script) == "smooth_pan"
                       ? session::CursorScript::smooth_pan(lattice, cfg.dwell, 8)
                       : session::CursorScript::reversal(lattice, cfg.dwell, 4);
      const auto result = session::run_experiment(cfg);
      EXPECT_EQ(result.failed_accesses, 0u);
      rates[i++] = hit_rate(result);
    }
    EXPECT_GT(rates[1], rates[0])
        << script << ": predictive " << rates[1] << " vs quadrant " << rates[0];
  }
}

TEST(PolicyEndToEnd, HybridEvictionPreservesDemandWorkingSetUnderPollution) {
  // Cache sized to ~4 filler view sets: predictive prefetch pressure evicts
  // the trail the reversal walk is about to retrace — unless the policy
  // protects it.
  session::ExperimentResult results[2];
  int i = 0;
  for (const auto eviction : {EvictionStrategy::kLru, EvictionStrategy::kHybrid}) {
    session::ExperimentConfig cfg =
        policy_experiment(PrefetchStrategy::kPredictive, eviction, 1ull << 20);
    const lightfield::SphericalLattice lattice(cfg.lattice);
    cfg.script = session::CursorScript::reversal(lattice, cfg.dwell, 4);
    results[i++] = session::run_experiment(cfg);
  }
  const auto& lru = results[0];
  const auto& hybrid = results[1];
  EXPECT_LT(p99_s(hybrid), p99_s(lru))
      << "hybrid did not shield the demand tail from prefetch pollution";
  EXPECT_LT(hybrid.obs->metrics.counter_total("cache.pollution_evictions"),
            lru.obs->metrics.counter_total("cache.pollution_evictions"));
  EXPECT_GT(hybrid.obs->metrics.counter_total("cache.rejected_prefetch"), 0u);
}

}  // namespace
}  // namespace lon::policy
