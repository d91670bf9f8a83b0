// Unit tests for the discrete-event simulator and the flow-level network
// model: event ordering, transfer timing, weighted max-min fair sharing, the
// TCP window cap, multi-stream downloads, cancellation and jitter.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "simnet/network.hpp"
#include "simnet/simulator.hpp"

namespace lon::sim {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(30, [&] { order.push_back(3); });
  sim.at(10, [&] { order.push_back(1); });
  sim.at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, TiesBreakInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) sim.at(100, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) sim.after(5, chain);
  };
  sim.after(5, chain);
  sim.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), 50);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.at(10, [&] { ++fired; });
  sim.at(20, [&] { ++fired; });
  sim.at(30, [&] { ++fired; });
  sim.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, RunUntilAdvancesIdleClock) {
  Simulator sim;
  sim.run_until(1'000'000);
  EXPECT_EQ(sim.now(), 1'000'000);
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator sim;
  sim.at(100, [] {});
  sim.run();
  EXPECT_THROW(sim.at(50, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.after(-1, [] {}), std::invalid_argument);
}

// Regression: cancelling an id that already executed must be a no-op. The
// seed inserted such ids into its tombstone set forever, so idle() went
// permanently false and pending() (queue size minus tombstones) underflowed.
TEST(Simulator, CancelAfterExecutionIsARefusedNoOp) {
  Simulator sim;
  const TimerId ran = sim.at(10, [] {});
  sim.run();
  EXPECT_TRUE(sim.idle());
  EXPECT_FALSE(sim.cancel(ran));           // already executed
  EXPECT_FALSE(sim.cancel(ran));           // still refused, no state change
  EXPECT_FALSE(sim.cancel(TimerId{999}));  // never issued
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.pending(), 0u);  // the seed underflowed to SIZE_MAX here
  const TimerId pending = sim.at(100, [] {});
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_TRUE(sim.cancel(pending));
  EXPECT_FALSE(sim.cancel(pending));  // double-cancel refused
  EXPECT_TRUE(sim.idle());
  sim.run();
  EXPECT_EQ(sim.executed(), 1u);
  EXPECT_EQ(sim.cancelled(), 1u);
}

// cancel() must erase the event in place: the closure's captures are
// released immediately, not when the queue eventually drains past a
// tombstone.
TEST(Simulator, CancelReleasesTheClosureImmediately) {
  Simulator sim;
  auto payload = std::make_shared<int>(42);
  const TimerId id = sim.after(kSecond, [payload] { (void)*payload; });
  EXPECT_EQ(payload.use_count(), 2);
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_EQ(payload.use_count(), 1);  // a tombstoned copy would still hold it
  EXPECT_TRUE(sim.idle());
}

// A cancelled event must not run even when the queue holds same-instant
// neighbours on both sides of it.
TEST(Simulator, CancelledEventAmongTiesDoesNotRun) {
  Simulator sim;
  std::vector<int> order;
  sim.at(10, [&] { order.push_back(0); });
  const TimerId doomed = sim.at(10, [&] { order.push_back(1); });
  sim.at(10, [&] { order.push_back(2); });
  EXPECT_TRUE(sim.cancel(doomed));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

// Deterministic 64-bit LCG for the property workloads (std::minstd_rand
// would do, but this keeps the sequence pinned in the test itself).
std::uint64_t lcg_next(std::uint64_t& s) {
  s = s * 6364136223846793005ull + 1442695040888963407ull;
  return s >> 11;
}

/// Runs a randomized at/after/cancel workload on one simulator and returns
/// the executed (time, marker) sequence.
std::vector<std::pair<SimTime, int>> run_workload(Simulator& sim, std::uint64_t seed) {
  std::vector<std::pair<SimTime, int>> trace;
  std::vector<TimerId> issued;
  std::uint64_t s = seed;
  int marker = 0;
  // Interleave bursts of scheduling with partial draining, far-future
  // outliers (forces calendar resizes and year wraps), same-instant ties,
  // and cancels of pending, executed and bogus ids.
  for (int round = 0; round < 40; ++round) {
    const int burst = 1 + static_cast<int>(lcg_next(s) % 50);
    for (int i = 0; i < burst; ++i) {
      SimDuration delay;
      switch (lcg_next(s) % 4) {
        case 0:
          delay = static_cast<SimDuration>(lcg_next(s) % 100);  // dense, with ties
          break;
        case 1:
          delay = static_cast<SimDuration>(lcg_next(s) % (10 * kMillisecond));
          break;
        case 2:
          delay = static_cast<SimDuration>(lcg_next(s) % kSecond);
          break;
        default:
          delay = static_cast<SimDuration>(lcg_next(s) % (3600 * kSecond));  // outlier
          break;
      }
      const int m = marker++;
      issued.push_back(sim.after(delay, [&trace, &sim, m] {
        trace.emplace_back(sim.now(), m);
      }));
    }
    const int cancels = static_cast<int>(lcg_next(s) % 8);
    for (int i = 0; i < cancels && !issued.empty(); ++i) {
      sim.cancel(issued[lcg_next(s) % issued.size()]);  // pending, done or stale
    }
    if (round % 3 == 0) {
      sim.run_until(sim.now() + static_cast<SimDuration>(lcg_next(s) % kSecond));
    } else {
      for (int i = 0; i < 20; ++i) sim.step();
    }
  }
  sim.run();
  return trace;
}

// Property: the calendar queue and the reference heap execute the exact
// same (time, sequence) order on randomized workloads, so virtual-time
// results cannot depend on the scheduler kind.
TEST(Simulator, CalendarAndHeapExecuteIdenticalOrders) {
  for (const std::uint64_t seed : {1ull, 7ull, 2003ull, 0xdeadbeefull}) {
    Simulator cal(SchedulerKind::kCalendar);
    Simulator heap(SchedulerKind::kHeap);
    const auto cal_trace = run_workload(cal, seed);
    const auto heap_trace = run_workload(heap, seed);
    ASSERT_EQ(cal_trace, heap_trace) << "seed " << seed;
    EXPECT_EQ(cal.executed(), heap.executed());
    EXPECT_EQ(cal.cancelled(), heap.cancelled());
    EXPECT_TRUE(cal.idle());
    EXPECT_TRUE(heap.idle());
  }
}

// The cross-check scheduler verifies every pop against its heap mirror and
// throws on divergence — whole workloads run clean under it.
TEST(Simulator, CrossCheckModeRunsWorkloadsClean) {
  Simulator sim(SchedulerKind::kCrossCheck);
  EXPECT_NO_THROW(run_workload(sim, 42));
  EXPECT_TRUE(sim.idle());
  EXPECT_GT(sim.executed(), 0u);
}

// -----------------------------------------------------------------------------

class NetworkTest : public ::testing::Test {
 protected:
  // Two nodes joined by a 100 Mb/s, 10 ms link (a small WAN hop).
  void make_pair_topology(double bw_bps = 100e6, SimDuration latency = 10 * kMillisecond) {
    a_ = net_.add_node("a");
    b_ = net_.add_node("b");
    net_.add_link(a_, b_, {bw_bps, latency, 0.0});
  }

  /// Runs a transfer to completion and returns its result.
  TransferResult transfer(NodeId src, NodeId dst, std::uint64_t bytes,
                          TransferOptions opts = {}) {
    std::optional<TransferResult> out;
    net_.start_transfer(src, dst, bytes, opts, [&](const TransferResult& r) { out = r; });
    sim_.run();
    EXPECT_TRUE(out.has_value());
    return *out;
  }

  Simulator sim_;
  Network net_{sim_};
  NodeId a_ = 0, b_ = 0;
};

TEST_F(NetworkTest, PathLatencyAndRtt) {
  make_pair_topology();
  EXPECT_EQ(net_.path_latency(a_, b_), 10 * kMillisecond);
  EXPECT_EQ(net_.rtt(a_, b_), 20 * kMillisecond);
  EXPECT_EQ(net_.path_latency(a_, a_), 0);
}

TEST_F(NetworkTest, MultiHopRouteUsesLowestLatency) {
  const NodeId a = net_.add_node("a");
  const NodeId b = net_.add_node("b");
  const NodeId c = net_.add_node("c");
  // Direct a-c is slow; a-b-c is faster in total latency.
  net_.add_link(a, c, {1e9, 50 * kMillisecond, 0.0});
  net_.add_link(a, b, {1e9, 10 * kMillisecond, 0.0});
  net_.add_link(b, c, {1e9, 10 * kMillisecond, 0.0});
  EXPECT_EQ(net_.path_latency(a, c), 20 * kMillisecond);
}

TEST_F(NetworkTest, UnreachableNodesThrow) {
  const NodeId a = net_.add_node("a");
  const NodeId b = net_.add_node("b");
  EXPECT_FALSE(net_.reachable(a, b));
  EXPECT_THROW((void)net_.path_latency(a, b), std::runtime_error);
}

TEST_F(NetworkTest, SingleFlowTransferTime) {
  make_pair_topology(/*bw_bps=*/80e6, /*latency=*/10 * kMillisecond);
  // 10 MB at 10 MB/s link; window must not cap: make it huge.
  TransferOptions opts;
  opts.window_bytes = 1 << 30;
  opts.handshake = true;
  const auto r = transfer(a_, b_, 10'000'000, opts);
  // handshake RTT (20ms) + 1.0s transmission + one-way latency (10ms).
  EXPECT_NEAR(to_seconds(r.elapsed()), 0.02 + 1.0 + 0.01, 1e-3);
}

TEST_F(NetworkTest, NoHandshakeSkipsSetupRtt) {
  make_pair_topology(80e6, 10 * kMillisecond);
  TransferOptions opts;
  opts.window_bytes = 1 << 30;
  opts.handshake = false;
  const auto r = transfer(a_, b_, 10'000'000, opts);
  EXPECT_NEAR(to_seconds(r.elapsed()), 1.0 + 0.01, 1e-3);
}

TEST_F(NetworkTest, WindowCapLimitsLongFatPipe) {
  // 1 Gb/s but 50 ms one-way: a single 64 KiB-window stream is capped at
  // window/RTT = 64 KiB / 0.1 s = 655,360 B/s, far below the link rate.
  make_pair_topology(1e9, 50 * kMillisecond);
  TransferOptions opts;
  opts.window_bytes = 64 * 1024;
  opts.streams = 1;
  opts.handshake = false;
  const auto r = transfer(a_, b_, 655'360, opts);
  EXPECT_NEAR(to_seconds(r.elapsed()), 1.0 + 0.05, 0.01);
}

TEST_F(NetworkTest, MultipleStreamsRaiseTheCap) {
  make_pair_topology(1e9, 50 * kMillisecond);
  TransferOptions opts;
  opts.window_bytes = 64 * 1024;
  opts.streams = 8;  // the LoRS multi-threaded download effect
  opts.handshake = false;
  const auto r = transfer(a_, b_, 8 * 655'360, opts);
  // Eight times the data in the same time as one stream moved one share.
  EXPECT_NEAR(to_seconds(r.elapsed()), 1.0 + 0.05, 0.01);
}

TEST_F(NetworkTest, TwoFlowsShareFairly) {
  make_pair_topology(80e6, kMillisecond);  // 10 MB/s
  TransferOptions opts;
  opts.window_bytes = 1 << 30;
  opts.handshake = false;
  std::optional<TransferResult> r1, r2;
  net_.start_transfer(a_, b_, 10'000'000, opts, [&](const TransferResult& r) { r1 = r; });
  net_.start_transfer(a_, b_, 10'000'000, opts, [&](const TransferResult& r) { r2 = r; });
  sim_.run();
  ASSERT_TRUE(r1 && r2);
  // Both flows split 10 MB/s, so each 10 MB transfer takes ~2 s.
  EXPECT_NEAR(to_seconds(r1->elapsed()), 2.0, 0.02);
  EXPECT_NEAR(to_seconds(r2->elapsed()), 2.0, 0.02);
}

TEST_F(NetworkTest, ShortFlowFinishesAndLongFlowSpeedsUp) {
  make_pair_topology(80e6, kMillisecond);  // 10 MB/s
  TransferOptions opts;
  opts.window_bytes = 1 << 30;
  opts.handshake = false;
  std::optional<TransferResult> small, large;
  net_.start_transfer(a_, b_, 5'000'000, opts, [&](const TransferResult& r) { small = r; });
  net_.start_transfer(a_, b_, 15'000'000, opts, [&](const TransferResult& r) { large = r; });
  sim_.run();
  ASSERT_TRUE(small && large);
  // Shared 5 MB/s until the small flow's 5 MB finish at t=1s; the large flow
  // then has 10 MB left at full 10 MB/s: total 2 s.
  EXPECT_NEAR(to_seconds(small->elapsed()), 1.0, 0.02);
  EXPECT_NEAR(to_seconds(large->elapsed()), 2.0, 0.02);
}

TEST_F(NetworkTest, WeightsBiasTheShare) {
  make_pair_topology(80e6, kMillisecond);  // 10 MB/s
  TransferOptions heavy, light;
  heavy.window_bytes = light.window_bytes = 1 << 30;
  heavy.handshake = light.handshake = false;
  heavy.weight = 3.0;
  light.weight = 1.0;
  std::optional<TransferResult> rh, rl;
  net_.start_transfer(a_, b_, 7'500'000, heavy, [&](const TransferResult& r) { rh = r; });
  net_.start_transfer(a_, b_, 7'500'000, light, [&](const TransferResult& r) { rl = r; });
  sim_.run();
  ASSERT_TRUE(rh && rl);
  // Heavy gets 7.5 MB/s and finishes at 1 s; light then finishes its
  // remaining 5 MB at 10 MB/s by t = 1.5 s.
  EXPECT_NEAR(to_seconds(rh->elapsed()), 1.0, 0.02);
  EXPECT_NEAR(to_seconds(rl->elapsed()), 1.5, 0.02);
}

TEST_F(NetworkTest, DisjointPathsDoNotInterfere) {
  const NodeId hub = net_.add_node("hub");
  const NodeId x = net_.add_node("x");
  const NodeId y = net_.add_node("y");
  net_.add_link(hub, x, {80e6, kMillisecond, 0.0});
  net_.add_link(hub, y, {80e6, kMillisecond, 0.0});
  TransferOptions opts;
  opts.window_bytes = 1 << 30;
  opts.handshake = false;
  std::optional<TransferResult> rx, ry;
  net_.start_transfer(hub, x, 10'000'000, opts, [&](const TransferResult& r) { rx = r; });
  net_.start_transfer(hub, y, 10'000'000, opts, [&](const TransferResult& r) { ry = r; });
  sim_.run();
  ASSERT_TRUE(rx && ry);
  EXPECT_NEAR(to_seconds(rx->elapsed()), 1.0, 0.02);
  EXPECT_NEAR(to_seconds(ry->elapsed()), 1.0, 0.02);
}

TEST_F(NetworkTest, SharedBottleneckConstrainsBothPaths) {
  // src --(10 MB/s)-- mid, mid --fast-- x and mid --fast-- y.
  const NodeId src = net_.add_node("src");
  const NodeId mid = net_.add_node("mid");
  const NodeId x = net_.add_node("x");
  const NodeId y = net_.add_node("y");
  net_.add_link(src, mid, {80e6, kMillisecond, 0.0});
  net_.add_link(mid, x, {1e10, kMillisecond, 0.0});
  net_.add_link(mid, y, {1e10, kMillisecond, 0.0});
  TransferOptions opts;
  opts.window_bytes = 1 << 30;
  opts.handshake = false;
  std::optional<TransferResult> rx, ry;
  net_.start_transfer(src, x, 10'000'000, opts, [&](const TransferResult& r) { rx = r; });
  net_.start_transfer(src, y, 10'000'000, opts, [&](const TransferResult& r) { ry = r; });
  sim_.run();
  ASSERT_TRUE(rx && ry);
  EXPECT_NEAR(to_seconds(rx->elapsed()), 2.0, 0.02);
  EXPECT_NEAR(to_seconds(ry->elapsed()), 2.0, 0.02);
}

TEST_F(NetworkTest, LocalTransferIsNearInstant) {
  make_pair_topology();
  const auto r = transfer(a_, a_, 1'000'000);
  EXPECT_LT(to_seconds(r.elapsed()), 0.001);
  EXPECT_GT(to_seconds(r.elapsed()), 0.0);
}

TEST_F(NetworkTest, ZeroByteTransferCostsLatencyOnly) {
  make_pair_topology(100e6, 10 * kMillisecond);
  TransferOptions opts;
  opts.handshake = true;
  const auto r = transfer(a_, b_, 0, opts);
  EXPECT_NEAR(to_seconds(r.elapsed()), 0.02 + 0.01, 1e-6);
}

TEST_F(NetworkTest, CancelFiresCallbackWithFlag) {
  make_pair_topology(80e6, kMillisecond);
  TransferOptions opts;
  opts.window_bytes = 1 << 30;
  opts.handshake = false;
  std::optional<TransferResult> result;
  const FlowId id =
      net_.start_transfer(a_, b_, 100'000'000, opts, [&](const TransferResult& r) { result = r; });
  sim_.run_until(kSecond);
  EXPECT_TRUE(net_.cancel(id));
  EXPECT_TRUE(result.has_value());
  EXPECT_TRUE(result->cancelled);
  EXPECT_FALSE(net_.cancel(id));  // already gone
  EXPECT_EQ(net_.active_flows(), 0u);
}

TEST_F(NetworkTest, CancelFreesBandwidthForOthers) {
  make_pair_topology(80e6, kMillisecond);  // 10 MB/s
  TransferOptions opts;
  opts.window_bytes = 1 << 30;
  opts.handshake = false;
  std::optional<TransferResult> kept;
  const FlowId doomed = net_.start_transfer(a_, b_, 100'000'000, opts, [](auto&) {});
  net_.start_transfer(a_, b_, 10'000'000, opts, [&](const TransferResult& r) { kept = r; });
  // Let both run half a second at 5 MB/s each, then cancel the big one.
  sim_.run_until(kSecond / 2);
  net_.cancel(doomed);
  sim_.run();
  ASSERT_TRUE(kept.has_value());
  // 2.5 MB moved in the first 0.5 s, remaining 7.5 MB at 10 MB/s = 0.75 s.
  EXPECT_NEAR(to_seconds(kept->elapsed()), 0.5 + 0.75, 0.02);
}

TEST_F(NetworkTest, JitterIsDeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    Simulator sim;
    Network net(sim, seed);
    const NodeId a = net.add_node("a");
    const NodeId b = net.add_node("b");
    net.add_link(a, b, {100e6, 10 * kMillisecond, 0.3});
    std::optional<TransferResult> out;
    TransferOptions opts;
    opts.window_bytes = 1 << 30;
    net.start_transfer(a, b, 1'000'000, opts, [&](const TransferResult& r) { out = r; });
    sim.run();
    return out->elapsed();
  };
  EXPECT_EQ(run_once(123), run_once(123));
  EXPECT_NE(run_once(123), run_once(456));
}

TEST_F(NetworkTest, JitterNeverReducesLatencyBelowNominal) {
  Simulator sim;
  Network net(sim, 77);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_link(a, b, {100e6, 10 * kMillisecond, 0.5});
  for (int i = 0; i < 20; ++i) {
    std::optional<TransferResult> out;
    TransferOptions opts;
    opts.handshake = false;
    net.start_transfer(a, b, 0, opts, [&](const TransferResult& r) { out = r; });
    sim.run();
    ASSERT_TRUE(out.has_value());
    EXPECT_GE(out->elapsed(), 10 * kMillisecond);
  }
}

TEST_F(NetworkTest, LinkStatsAccumulate) {
  make_pair_topology();
  TransferOptions opts;
  opts.window_bytes = 1 << 30;
  transfer(a_, b_, 1000, opts);
  transfer(a_, b_, 500, opts);
  const auto& stats = net_.link_stats(0, /*forward=*/true);
  EXPECT_EQ(stats.bytes_carried, 1500u);
  EXPECT_EQ(stats.flows_carried, 2u);
}

TEST_F(NetworkTest, InvalidArgumentsThrow) {
  make_pair_topology();
  EXPECT_THROW(net_.add_link(a_, a_, {}), std::invalid_argument);
  EXPECT_THROW(net_.add_link(a_, 999, {}), std::out_of_range);
  LinkConfig bad;
  bad.bandwidth_bps = 0.0;
  EXPECT_THROW(net_.add_link(a_, b_, bad), std::invalid_argument);
  TransferOptions opts;
  opts.streams = 0;
  EXPECT_THROW(net_.start_transfer(a_, b_, 1, opts, [](auto&) {}), std::invalid_argument);
}

// Event hygiene: a solve arms a completion timer only for the flows due
// first, so a reallocation storm (many flows arriving and departing on one
// shared link) keeps the pending-event count proportional to the number of
// live flows, and cancels at most one timer per flow rather than one per
// live flow per solve. The seed's epoch-guarded design left every
// superseded completion closure in the queue — pending() grew with the
// square of the flow count.
TEST_F(NetworkTest, ReallocationStormKeepsTheEventQueueBounded) {
  make_pair_topology(100e6);
  constexpr int kFlows = 64;
  TransferOptions opts;
  opts.window_bytes = 1 << 30;
  int done = 0;
  for (int i = 0; i < kFlows; ++i) {
    sim_.after(static_cast<SimDuration>(i) * kMillisecond, [&, this] {
      net_.start_transfer(a_, b_, 200'000, opts, [&](const TransferResult&) { ++done; });
    });
  }
  std::size_t max_pending = 0;
  while (sim_.step()) max_pending = std::max(max_pending, sim_.pending());
  EXPECT_EQ(done, kFlows);
  // At most one completion timer and one start or delivery event per flow,
  // plus the coalesced solve — far below the seed's quadratic stale-closure
  // pile-up.
  EXPECT_LE(max_pending, static_cast<std::size_t>(3 * kFlows + 8));
  // Only an armed timer whose flow is re-targeted before it fires is ever
  // cancelled.
  EXPECT_LE(sim_.cancelled(), static_cast<std::uint64_t>(kFlows));
}

// Tie order at a shared completion instant: a solve re-arms every flow due
// first, even flows its component does not touch, so their timers always sit
// after any event scheduled for the same instant before that solve. X and Y
// run on their own links and are both due at 100,000,001 ns; a probe
// scheduled at 25 ms for that instant sees them finish first unless a later
// solve — here Z's, on a third disjoint link — re-arms them behind it.
TEST_F(NetworkTest, SolvesReArmDueFlowsBehindSameInstantEvents) {
  constexpr SimTime kDue = 100'000'001;
  const auto probe_reads = [](bool start_z) {
    Simulator sim;
    Network net(sim);
    std::vector<NodeId> nodes;
    for (const char* name : {"x0", "x1", "y0", "y1", "z0", "z1"}) {
      nodes.push_back(net.add_node(name));
    }
    for (std::size_t i = 0; i < nodes.size(); i += 2) {
      net.add_link(nodes[i], nodes[i + 1], {100e6, 10 * kMillisecond, 0.0});
    }
    TransferOptions opts;
    opts.window_bytes = 1 << 30;
    std::vector<SimTime> finished;
    const auto record = [&finished](const TransferResult& r) {
      finished.push_back(r.finished);
    };
    // 20 ms handshake, then 1 MB at 12.5 MB/s: due at 100 ms + 1 ns.
    net.start_transfer(nodes[0], nodes[1], 1'000'000, opts, record);
    net.start_transfer(nodes[2], nodes[3], 1'000'000, opts, record);
    std::optional<std::size_t> seen;
    sim.at(25 * kMillisecond, [&] { sim.at(kDue, [&] { seen = net.active_flows(); }); });
    if (start_z) {
      sim.at(30 * kMillisecond,
             [&] { net.start_transfer(nodes[4], nodes[5], 10'000, opts, [](auto&) {}); });
    }
    sim.run();
    // X and Y finish at the same instant either way; only the order of the
    // probe against their timers differs.
    EXPECT_EQ(finished, (std::vector<SimTime>{kDue + 10 * kMillisecond,
                                              kDue + 10 * kMillisecond}));
    EXPECT_TRUE(seen.has_value());
    return seen.value_or(99);
  };
  EXPECT_EQ(probe_reads(false), 0u);
  EXPECT_EQ(probe_reads(true), 2u);
}

// A completion target past the end of the clock — a near-zero weight against
// a busy link — is left unarmed like a starved flow, and the solve after its
// peer finishes re-targets it; casting that target to SimTime would overflow.
TEST_F(NetworkTest, TargetBeyondTheClockWaitsForALaterSolve) {
  make_pair_topology(100e6, kMillisecond);  // 12.5 MB/s
  TransferOptions normal, light;
  normal.window_bytes = light.window_bytes = 1 << 30;
  light.weight = 1e-12;
  std::optional<TransferResult> rn, rl;
  net_.start_transfer(a_, b_, 10'000'000, normal, [&](const TransferResult& r) { rn = r; });
  net_.start_transfer(a_, b_, 10'000'000, light, [&](const TransferResult& r) { rl = r; });
  sim_.run();
  ASSERT_TRUE(rn && rl);
  // 2 ms handshake, then the normal flow takes the whole link for 0.8 s;
  // the light flow follows with its 10 MB in another 0.8 s.
  EXPECT_NEAR(to_seconds(rn->elapsed()), 0.002 + 0.8 + 0.001, 1e-3);
  EXPECT_NEAR(to_seconds(rl->elapsed()), 0.002 + 1.6 + 0.001, 1e-3);
  EXPECT_GT(rl->finished, rn->finished);
}

// Differential check: the affected-component solve and a forced full-graph
// solve must produce identical transfer completions, down to the nanosecond,
// on a topology with several independent contention domains.
TEST_F(NetworkTest, IncrementalAndFullResolveAgreeExactly) {
  struct Run {
    std::vector<std::pair<FlowId, SimTime>> completions;
    std::uint64_t events = 0;
  };
  const auto run_mixed = [](bool full_resolve) {
    Simulator sim;
    Network net(sim);
    net.set_full_resolve(full_resolve);
    // Two disjoint WAN pairs plus a shared trunk: solves triggered on one
    // side must not perturb the other.
    const NodeId a = net.add_node("a");
    const NodeId b = net.add_node("b");
    const NodeId c = net.add_node("c");
    const NodeId d = net.add_node("d");
    const NodeId hub = net.add_node("hub");
    net.add_link(a, b, {100e6, 10 * kMillisecond, 0.0});
    net.add_link(c, d, {50e6, 5 * kMillisecond, 0.0});
    net.add_link(a, hub, {200e6, 2 * kMillisecond, 0.0});
    net.add_link(hub, c, {200e6, 2 * kMillisecond, 0.0});
    Run run;
    TransferOptions opts;
    opts.window_bytes = 1 << 30;
    const auto record = [&run](const TransferResult& r) {
      run.completions.emplace_back(r.id, r.finished);
    };
    // Staggered cross-traffic across all three domains, with weights.
    for (int i = 0; i < 12; ++i) {
      sim.after(static_cast<SimDuration>(i) * (3 * kMillisecond), [&, i] {
        TransferOptions o = opts;
        o.weight = 1.0 + (i % 3);
        switch (i % 4) {
          case 0: net.start_transfer(a, b, 400'000, o, record); break;
          case 1: net.start_transfer(c, d, 300'000, o, record); break;
          case 2: net.start_transfer(a, c, 250'000, o, record); break;
          default: net.start_transfer(d, c, 150'000, o, record); break;
        }
      });
    }
    sim.run();
    run.events = sim.executed();
    return run;
  };
  const Run incremental = run_mixed(false);
  const Run full = run_mixed(true);
  ASSERT_EQ(incremental.completions.size(), 12u);
  EXPECT_EQ(incremental.completions, full.completions);
  EXPECT_EQ(incremental.events, full.events);
}

// The instrumentation counters move and the component solve stays scoped:
// transfers confined to one link must not touch flows on a disjoint link.
TEST_F(NetworkTest, ReallocCountersTrackComponentScopedSolves) {
  const NodeId a = net_.add_node("a");
  const NodeId b = net_.add_node("b");
  const NodeId c = net_.add_node("c");
  const NodeId d = net_.add_node("d");
  net_.add_link(a, b, {100e6, 10 * kMillisecond, 0.0});
  net_.add_link(c, d, {100e6, 10 * kMillisecond, 0.0});
  TransferOptions opts;
  opts.window_bytes = 1 << 30;
  int done = 0;
  const auto count = [&](const TransferResult&) { ++done; };
  net_.start_transfer(a, b, 100'000, opts, count);
  net_.start_transfer(c, d, 100'000, opts, count);
  sim_.run();
  EXPECT_EQ(done, 2);
  EXPECT_GE(net_.reallocs(), 2u);
  EXPECT_GT(net_.realloc_requests(), 0u);
  // Each solve re-rated at most its own pair's single flow: with disjoint
  // links the touched-flow total stays at one per membership change.
  EXPECT_LE(net_.realloc_flows_touched(), 4u);
}

}  // namespace
}  // namespace lon::sim
