// Adversarial scenario suite — overload protection and graceful degradation
// composed with the robustness machinery of the earlier layers: admission
// boundary semantics, the degradation ladder, augmentation hysteresis, shed
// retries, and a chaos soak over real content proving zero undetected
// corruption and zero permanent loss.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "lightfield/procedural.hpp"
#include "session/scenario.hpp"
#include "streaming/admission.hpp"
#include "streaming/client_agent.hpp"
#include "streaming/server_agent.hpp"

namespace lon {
namespace {

using streaming::AdmissionConfig;
using streaming::AdmissionController;
using streaming::AdmissionDecision;
using streaming::DegradeLevel;
using streaming::DeliveryStatus;

/// Run-wide total of one registry counter, summed over every instance.
std::uint64_t total(const std::shared_ptr<obs::Context>& obs, const std::string& name) {
  return obs->metrics.counter_total(name);
}

// --- admission controller -----------------------------------------------------

TEST(Admission, DisabledAdmitsEverything) {
  AdmissionController ctl(AdmissionConfig{});
  // Even a hopeless request passes when the master switch is off.
  EXPECT_EQ(ctl.admit(1, 0, 1u << 20, kSecond, kMillisecond),
            AdmissionDecision::kAdmit);
}

TEST(Admission, QueueShedsAtExactlyTheBound) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.max_queue = 4;
  AdmissionController ctl(cfg);
  EXPECT_EQ(ctl.admit(1, 0, 3, 0, 0), AdmissionDecision::kAdmit);
  // Boundary: depth == max_queue is full, not "one more fits".
  EXPECT_EQ(ctl.admit(1, 0, 4, 0, 0), AdmissionDecision::kShedQueueFull);
  EXPECT_EQ(ctl.admit(1, 0, 5, 0, 0), AdmissionDecision::kShedQueueFull);
}

TEST(Admission, CompletionExactlyAtTheDeadlineIsAdmitted) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  AdmissionController ctl(cfg);
  // Predicted to land exactly at the time of need: still useful, admit.
  EXPECT_EQ(ctl.admit(1, 0, 0, kSecond, kSecond), AdmissionDecision::kAdmit);
  // One nanosecond late is late.
  EXPECT_EQ(ctl.admit(1, 0, 0, kSecond + 1, kSecond),
            AdmissionDecision::kShedDeadline);
  // No prediction or no deadline: triage cannot run.
  EXPECT_EQ(ctl.admit(1, 0, 0, 0, kSecond), AdmissionDecision::kAdmit);
  EXPECT_EQ(ctl.admit(1, 0, 0, kSecond, 0), AdmissionDecision::kAdmit);
}

TEST(Admission, TokenBucketRefillsOnTheVirtualClock) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.tokens_per_sec = 2.0;
  cfg.token_burst = 4.0;
  AdmissionController ctl(cfg);
  // A new requester starts with a full burst...
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ctl.admit(7, 0, 0, 0, 0), AdmissionDecision::kAdmit) << i;
  }
  // ...then runs dry.
  EXPECT_EQ(ctl.admit(7, 0, 0, 0, 0), AdmissionDecision::kShedNoTokens);
  // Refill follows the *virtual* clock: 500 ms at 2 tokens/s = 1 token.
  EXPECT_EQ(ctl.admit(7, 500 * kMillisecond, 0, 0, 0), AdmissionDecision::kAdmit);
  EXPECT_EQ(ctl.admit(7, 500 * kMillisecond, 0, 0, 0),
            AdmissionDecision::kShedNoTokens);
  // The refill caps at the burst, not unbounded credit for idleness.
  EXPECT_NEAR(ctl.tokens(7, 3600 * kSecond), 4.0, 1e-9);
}

TEST(Admission, BucketsAreFairSharePerRequester) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.tokens_per_sec = 1.0;
  cfg.token_burst = 2.0;
  AdmissionController ctl(cfg);
  // Requester 1 drains its own bucket; requester 2 is unaffected.
  EXPECT_EQ(ctl.admit(1, 0, 0, 0, 0), AdmissionDecision::kAdmit);
  EXPECT_EQ(ctl.admit(1, 0, 0, 0, 0), AdmissionDecision::kAdmit);
  EXPECT_EQ(ctl.admit(1, 0, 0, 0, 0), AdmissionDecision::kShedNoTokens);
  EXPECT_EQ(ctl.admit(2, 0, 0, 0, 0), AdmissionDecision::kAdmit);
  EXPECT_EQ(ctl.admit(2, 0, 0, 0, 0), AdmissionDecision::kAdmit);
}

TEST(Admission, ShedByQueueDoesNotBurnAToken) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.max_queue = 1;
  cfg.tokens_per_sec = 1.0;
  cfg.token_burst = 1.0;
  AdmissionController ctl(cfg);
  // Queue-full sheds are not charged against the requester's fair share.
  EXPECT_EQ(ctl.admit(3, 0, 1, 0, 0), AdmissionDecision::kShedQueueFull);
  EXPECT_NEAR(ctl.tokens(3, 0), 1.0, 1e-9);
  EXPECT_EQ(ctl.admit(3, 0, 0, 0, 0), AdmissionDecision::kAdmit);
}

// --- degradation ladder -------------------------------------------------------

TEST(DegradeLadder, RungsAreOrdered) {
  EXPECT_LT(static_cast<int>(DegradeLevel::kFull),
            static_cast<int>(DegradeLevel::kLanOnly));
  EXPECT_LT(static_cast<int>(DegradeLevel::kLanOnly),
            static_cast<int>(DegradeLevel::kCoarseLod));
  EXPECT_LT(static_cast<int>(DegradeLevel::kCoarseLod),
            static_cast<int>(DegradeLevel::kDemandOnly));
  EXPECT_STREQ(to_string(DegradeLevel::kLanOnly), "lan-only");
  EXPECT_STREQ(to_string(DegradeLevel::kDemandOnly), "demand-only");
}

TEST(DegradeLadder, DescendsOneRungPerMissStreakAndStopsAtTheFloor) {
  // Every WAN access misses a 1 ns deadline, so the agent must walk
  // kFull -> kLanOnly -> kCoarseLod -> kDemandOnly — exactly three
  // downgrades, in order, and then sit at the floor (no wrap, no flap).
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
  cfg.agent.upgrade_after_hits = 100;  // never recovers within this run
  cfg.agent.deadline = 1;
  cfg.lod_resolutions = {32};

  const session::ExperimentResult result = session::run_experiment(cfg);
  EXPECT_EQ(total(result.obs, "agent.downgrades"), 3u);
  EXPECT_EQ(total(result.obs, "agent.upgrades"), 0u);
  // The floor suppresses anticipation entirely.
  EXPECT_GT(total(result.obs, "agent.degrade_demand_only"), 0u);
  // The middle rung served at least one demand miss from the coarse tier.
  EXPECT_GT(total(result.obs, "agent.degrade_lod"), 0u);
  EXPECT_EQ(result.failed_accesses, 0u);
}

TEST(DegradeLadder, SustainedOnTimeDeliveriesClimbBackUp) {
  // Case 3: early accesses race prestaging across the WAN (deadline
  // misses), later ones ride the LAN/cache well inside the deadline — the
  // ladder must move down and then recover.
  session::ExperimentConfig cfg;
  cfg.lattice.angular_step_deg = 15.0;
  cfg.lattice.view_set_span = 3;
  cfg.lattice.view_resolution = 64;
  cfg.which = session::Case::kWanWithLanDepot;
  cfg.all_filler = true;
  cfg.client.decode = false;
  cfg.client.timing = streaming::ClientConfig::Timing::kModeled;
  cfg.dwell = 2 * kSecond;
  cfg.accesses = 14;
  cfg.agent.degrade = true;
  cfg.agent.degrade_after_misses = 1;
  cfg.agent.upgrade_after_hits = 2;
  cfg.agent.deadline = 100 * kMillisecond;

  const session::ExperimentResult result = session::run_experiment(cfg);
  EXPECT_GT(total(result.obs, "agent.downgrades"), 0u);
  EXPECT_GT(total(result.obs, "agent.upgrades"), 0u);
  EXPECT_EQ(result.failed_accesses, 0u);
}

// --- agent-level shedding -----------------------------------------------------

class ShedTest : public ::testing::Test {
 protected:
  static lightfield::LatticeConfig small_config() {
    lightfield::LatticeConfig cfg;
    cfg.angular_step_deg = 15.0;
    cfg.view_set_span = 3;
    cfg.view_resolution = 24;
    return cfg;
  }

  ShedTest()
      : net_(sim_),
        fabric_(sim_, net_),
        lors_(sim_, net_, fabric_),
        source_(std::make_shared<lightfield::ProceduralSource>(small_config())) {
    lan_switch_ = net_.add_node("lan-switch");
    agent_node_ = net_.add_node("agent");
    client_a_ = net_.add_node("client-a");
    client_b_ = net_.add_node("client-b");
    const sim::LinkConfig lan{1e9, 50 * kMicrosecond, 0.0};
    net_.add_link(agent_node_, lan_switch_, lan);
    net_.add_link(client_a_, lan_switch_, lan);
    net_.add_link(client_b_, lan_switch_, lan);
    wan_router_ = net_.add_node("wan-router");
    net_.add_link(lan_switch_, wan_router_, {100e6, 35 * kMillisecond, 0.0});
    for (int i = 0; i < 2; ++i) {
      const std::string name = "ca-" + std::to_string(i);
      const sim::NodeId node = net_.add_node(name);
      net_.add_link(node, wan_router_, {1e9, kMillisecond, 0.0});
      ibp::DepotConfig cfg;
      cfg.capacity_bytes = 1ull << 30;
      cfg.max_alloc_bytes = 1ull << 28;
      fabric_.add_depot(node, name, cfg);
      wan_depots_.push_back(name);
    }
    dvs_node_ = net_.add_node("dvs");
    net_.add_link(dvs_node_, wan_router_, {1e9, kMillisecond, 0.0});
    server_node_ = net_.add_node("server");
    net_.add_link(server_node_, wan_router_, {1e9, kMillisecond, 0.0});
    dvs_ = std::make_unique<streaming::DvsServer>(sim_, net_, dvs_node_,
                                                  source_->lattice());
  }

  exnode::ExNode publish(const lightfield::ViewSetId& id) {
    Bytes compressed = source_->build_compressed(id);
    lors::UploadOptions up;
    up.depots = wan_depots_;
    up.block_bytes = 4096;
    exnode::ExNode published;
    bool ok = false;
    lors_.upload_async(server_node_, std::move(compressed), up,
                       [&](const lors::UploadResult& r) {
                         ok = r.status == lors::LorsStatus::kOk;
                         published = r.exnode;
                         exnode::ExNode copy = r.exnode;
                         dvs_->install(id, std::move(copy));
                       });
    sim_.run();
    EXPECT_TRUE(ok);
    return published;
  }

  sim::Simulator sim_;
  sim::Network net_;
  ibp::Fabric fabric_;
  lors::Lors lors_;
  std::shared_ptr<lightfield::ProceduralSource> source_;
  sim::NodeId lan_switch_ = 0, agent_node_ = 0, client_a_ = 0, client_b_ = 0;
  sim::NodeId wan_router_ = 0, dvs_node_ = 0, server_node_ = 0;
  std::vector<std::string> wan_depots_;
  std::unique_ptr<streaming::DvsServer> dvs_;
};

TEST_F(ShedTest, QueueFullDeliversAnExplicitShedNotAFailure) {
  publish({0, 0});
  publish({1, 1});
  streaming::ClientAgentConfig cfg;
  cfg.prefetch = false;
  cfg.admission.enabled = true;
  cfg.admission.max_queue = 1;
  streaming::ClientAgent agent(sim_, net_, fabric_, lors_, *dvs_,
                               source_->lattice(), agent_node_, cfg);

  std::optional<DeliveryStatus> first, second;
  agent.request_view_set({0, 0}, client_a_,
                         [&](const streaming::ClientAgent::Delivery& d) {
                           first = d.status;
                         });
  agent.request_view_set({1, 1}, client_b_,
                         [&](const streaming::ClientAgent::Delivery& d) {
                           second = d.status;
                           EXPECT_TRUE(d.payload->empty());
                         });
  sim_.run();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, DeliveryStatus::kOk);
  EXPECT_EQ(*second, DeliveryStatus::kShed);
  EXPECT_EQ(agent.counter("agent.demand_shed"), 1u);
  EXPECT_EQ(agent.counter("agent.shed_queue_full"), 1u);
  // A shed is an overload refusal, not a depot problem: nothing was
  // invalidated, refetched or failed over.
  EXPECT_EQ(agent.counter("agent.refetches"), 0u);
  EXPECT_EQ(agent.counter("agent.invalidations"), 0u);
}

TEST_F(ShedTest, CacheHitsAndCoalescedRequestsBypassAdmission) {
  publish({0, 0});
  streaming::ClientAgentConfig cfg;
  cfg.prefetch = false;
  cfg.admission.enabled = true;
  cfg.admission.max_queue = 1;
  streaming::ClientAgent agent(sim_, net_, fabric_, lors_, *dvs_,
                               source_->lattice(), agent_node_, cfg);

  int delivered = 0;
  for (int i = 0; i < 3; ++i) {
    // Same id three times while the first fetch is in flight: the later two
    // coalesce onto the in-flight download instead of being shed.
    agent.request_view_set({0, 0}, client_a_,
                           [&](const streaming::ClientAgent::Delivery& d) {
                             EXPECT_EQ(d.status, DeliveryStatus::kOk);
                             ++delivered;
                           });
  }
  sim_.run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(agent.counter("agent.demand_shed"), 0u);
  // And once cached, a full queue never sheds a hit.
  agent.request_view_set({0, 0}, client_a_,
                         [&](const streaming::ClientAgent::Delivery& d) {
                           EXPECT_EQ(d.status, DeliveryStatus::kOk);
                           ++delivered;
                         });
  sim_.run();
  EXPECT_EQ(delivered, 4);
  EXPECT_EQ(agent.counter("agent.demand_shed"), 0u);
}

// --- augmentation hysteresis --------------------------------------------------

TEST_F(ShedTest, AugmentThresholdHasCooldownHysteresis) {
  const lightfield::ViewSetId id{0, 0};
  const exnode::ExNode published = publish(id);

  streaming::ServerAgentConfig cfg;
  cfg.depots = wan_depots_;
  cfg.augment_threshold = 3;
  cfg.augment_cooldown = 60 * kSecond;
  streaming::ServerAgent server(sim_, net_, lors_, *dvs_, server_node_, source_, cfg);

  // Six threshold crossings in one burst: the cooldown gate closes before
  // the asynchronous copy starts, so the replica set must not flap — exactly
  // one fanout.
  for (int i = 0; i < 6; ++i) server.note_hot(id, published);
  sim_.run();
  EXPECT_EQ(server.augment_count(), 1u);

  // Still cooling down: more pressure is absorbed silently.
  for (int i = 0; i < 3; ++i) server.note_hot(id, published);
  sim_.run();
  EXPECT_EQ(server.augment_count(), 1u);

  // After the cooldown expires the next threshold crossing fans out again.
  bool waited = false;
  sim_.after(cfg.augment_cooldown, [&] { waited = true; });
  sim_.run();
  ASSERT_TRUE(waited);
  for (int i = 0; i < 3; ++i) server.note_hot(id, published);
  sim_.run();
  EXPECT_EQ(server.augment_count(), 2u);
}

TEST_F(ShedTest, BelowThresholdPressureNeverAugments) {
  const lightfield::ViewSetId id{0, 0};
  const exnode::ExNode published = publish(id);
  streaming::ServerAgentConfig cfg;
  cfg.depots = wan_depots_;
  cfg.augment_threshold = 5;
  streaming::ServerAgent server(sim_, net_, lors_, *dvs_, server_node_, source_, cfg);
  for (int i = 0; i < 4; ++i) server.note_hot(id, published);
  sim_.run();
  EXPECT_EQ(server.augment_count(), 0u);
}

// --- composed scenarios -------------------------------------------------------

TEST(Scenarios, RunsAreDeterministic) {
  const session::ScenarioResult a = session::run_scenario(session::flash_crowd(10, true));
  const session::ScenarioResult b = session::run_scenario(session::flash_crowd(10, true));
  EXPECT_EQ(a.mean_total_s, b.mean_total_s);
  EXPECT_EQ(a.p99_worst_s, b.p99_worst_s);
  EXPECT_EQ(total(a.obs, "agent.demand_shed"), total(b.obs, "agent.demand_shed"));
  EXPECT_EQ(total(a.obs, "session.shed_retries"), total(b.obs, "session.shed_retries"));
  EXPECT_EQ(a.duration, b.duration);
  // The simulator-core counters are part of the deterministic surface: the
  // scale gate matches them exactly across machines and runs.
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(total(a.obs, "sim.events_scheduled"), total(b.obs, "sim.events_scheduled"));
  EXPECT_EQ(a.net_reallocs, b.net_reallocs);
  EXPECT_EQ(a.net_realloc_flows_touched, b.net_realloc_flows_touched);
}

// No wall-clock value reaches the run registry: a seeded run's metrics dump
// is the same bytes every time.
TEST(Scenarios, SeededRunsDumpIdenticalMetrics) {
  const session::Scenario scenario = session::teleport_under_faults(2);
  const session::ScenarioResult a = session::run_scenario(scenario);
  const session::ScenarioResult b = session::run_scenario(scenario);
  EXPECT_EQ(a.obs->metrics.jsonl(), b.obs->metrics.jsonl());
}

// The incremental reallocator (affected-component solve) must be observably
// identical to a forced full-graph solve — same latencies, same virtual
// duration, same event count — on the heaviest contention scenario we have.
TEST(Scenarios, FlashCrowdIsIdenticalUnderIncrementalAndFullResolve) {
  session::Scenario incremental = session::flash_crowd(10, true);
  session::Scenario full = session::flash_crowd(10, true);
  full.base.full_network_resolve = true;
  const session::ScenarioResult a = session::run_scenario(incremental);
  const session::ScenarioResult b = session::run_scenario(full);
  EXPECT_EQ(a.mean_total_s, b.mean_total_s);
  EXPECT_EQ(a.p99_worst_s, b.p99_worst_s);
  EXPECT_EQ(a.p99_mean_s, b.p99_mean_s);
  EXPECT_EQ(a.total_accesses, b.total_accesses);
  EXPECT_EQ(a.failed_accesses, b.failed_accesses);
  EXPECT_EQ(total(a.obs, "agent.demand_shed"), total(b.obs, "agent.demand_shed"));
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(total(a.obs, "sim.events_scheduled"), total(b.obs, "sim.events_scheduled"));
  EXPECT_EQ(a.net_reallocs, b.net_reallocs);
  // The one sanctioned difference: the full solve re-rates every flow on
  // every solve, the incremental one only the affected component.
  EXPECT_LE(a.net_realloc_flows_touched, b.net_realloc_flows_touched);
}

TEST(Scenarios, FlashCrowdAdmissionShedsRetriesAndNobodyStarves) {
  const session::ScenarioResult result =
      session::run_scenario(session::flash_crowd(40, true));
  // The crowd overflows the demand queue: explicit sheds, not silent queues.
  EXPECT_GT(total(result.obs, "agent.demand_shed"), 0u);
  // Clients retried through the backoff machinery, not the failure path.
  EXPECT_GT(total(result.obs, "session.shed_retries"), 0u);
  EXPECT_EQ(total(result.obs, "lors.failovers"), 0u);
  // Fair share: every client still made progress.
  EXPECT_GT(result.min_client_delivered, 0u);
}

TEST(Scenarios, WarmSiteCacheBeatsCold) {
  const session::ScenarioResult cold = session::run_scenario(session::site_cache(false));
  const session::ScenarioResult warm = session::run_scenario(session::site_cache(true));
  EXPECT_TRUE(warm.staging_complete);
  EXPECT_EQ(warm.failed_accesses, 0u);
  EXPECT_EQ(cold.failed_accesses, 0u);
  // With the whole database prestaged before the first view, nothing is
  // fetched across the WAN and the tail collapses.
  EXPECT_EQ(total(warm.obs, "agent.wan_accesses"), 0u);
  EXPECT_LE(warm.p99_worst_s, cold.p99_worst_s);
}

TEST(Scenarios, LeaseExpiryWaveIsAbsorbed) {
  const session::ScenarioResult result =
      session::run_scenario(session::lease_expiry_wave());
  EXPECT_EQ(result.failed_accesses, 0u);
  // The expiry wave actually happened and the agent healed through it —
  // replica failover away from the dead LAN copy, stale-exNode invalidation
  // and refetch, or restaging, depending on where the read caught it.
  EXPECT_GT(total(result.obs, "lors.failovers") + total(result.obs, "agent.invalidations") +
                total(result.obs, "agent.refetches") + total(result.obs, "agent.restaged"),
            0u);
}

TEST(Scenarios, ChaosSoakHasNoUndetectedCorruptionAndNoPermanentLoss) {
  // Real pixels + real decoding: a corrupted payload that slipped past the
  // block checksums would surface as a decode error (a failed access).
  session::Scenario scenario = session::teleport_under_faults(2);
  scenario.base.all_filler = false;
  scenario.base.client.decode = true;
  const session::ScenarioResult result = session::run_scenario(scenario);
  // Corruption was injected and caught...
  EXPECT_GT(total(result.obs, "lors.corruption_detected"), 0u);
  EXPECT_GT(result.fault_stats.crashes, 0u);
  // ...and every access was eventually delivered intact.
  EXPECT_EQ(result.failed_accesses, 0u);
  EXPECT_GT(result.min_client_delivered, 0u);
}

}  // namespace
}  // namespace lon
