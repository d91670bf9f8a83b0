// Fault-injection and self-healing tests: cancellable timers, link
// partitions, fabric deadlines and offline semantics, LoRS checksums /
// retry / repair, the L-Bone's offline cross-check, and a deterministic
// chaos soak in which view sets are browsed while depots crash, leases
// expire and reads rot — every demand request must still complete
// checksum-clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/fault.hpp"
#include "lbone/lbone.hpp"
#include "lightfield/procedural.hpp"
#include "lors/lors.hpp"
#include "streaming/client_agent.hpp"
#include "streaming/dvs.hpp"
#include "util/checksum.hpp"
#include "util/time.hpp"

namespace lon {
namespace {

using lightfield::ViewSetId;

/// Run-wide total of one registry counter, summed over every instance.
std::uint64_t total(const obs::Context& obs, const std::string& name) {
  return obs.metrics.counter_total(name);
}

Bytes pattern(std::size_t n) {
  Bytes data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = static_cast<std::uint8_t>(i * 31 + 7);
  return data;
}

// --- simulator: cancellable timers -------------------------------------------

TEST(SimulatorCancel, CancelledEventNeitherRunsNorAdvancesClock) {
  sim::Simulator sim;
  bool late_ran = false;
  sim.after(3 * kMillisecond, [] {});
  const sim::TimerId id = sim.after(5 * kMillisecond, [&] { late_ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(late_ran);
  // The cancelled event must not drag the clock to t=5ms.
  EXPECT_EQ(sim.now(), 3 * kMillisecond);
}

TEST(SimulatorCancel, CancelIsIdempotentAndRejectsUnknownIds) {
  sim::Simulator sim;
  const sim::TimerId id = sim.after(kMillisecond, [] {});
  EXPECT_FALSE(sim.cancel(id + 100));  // never issued
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // already cancelled
  EXPECT_EQ(sim.run(), 0u);
}

TEST(SimulatorCancel, PendingCountsExcludeCancelledEvents) {
  sim::Simulator sim;
  sim.after(kMillisecond, [] {});
  const sim::TimerId id = sim.after(2 * kMillisecond, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(id);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_FALSE(sim.idle());
}

// --- network: link up/down ----------------------------------------------------

TEST(NetworkPartition, DownLinkPartitionsAndStallsFlows) {
  sim::Simulator sim;
  sim::Network net(sim);
  const sim::NodeId a = net.add_node("a");
  const sim::NodeId b = net.add_node("b");
  // 8 Mbit/s = 1e6 bytes/s: a 1 MB transfer nominally takes ~1 s.
  const sim::LinkId link = net.add_link(a, b, {8e6, kMillisecond, 0.0});

  std::optional<sim::TransferResult> result;
  sim::TransferOptions opts;
  opts.window_bytes = 4 << 20;  // window never the bottleneck here
  net.start_transfer(a, b, 1'000'000, opts, [&](const sim::TransferResult& r) {
    result = r;
  });

  // Cut the link mid-transfer for one second.
  sim.at(200 * kMillisecond, [&] { net.set_link_up(link, false); });
  sim.run_until(500 * kMillisecond);
  EXPECT_FALSE(net.reachable(a, b));
  EXPECT_FALSE(result.has_value());  // stalled, not failed
  sim.at(1200 * kMillisecond, [&] { net.set_link_up(link, true); });
  sim.run();

  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->cancelled);
  // The second of outage shifts completion past the nominal ~1s.
  EXPECT_GT(result->finished, 2 * kSecond);
  EXPECT_TRUE(net.reachable(a, b));
}

// --- fabric: deadlines, offline, drops ---------------------------------------

class FabricFaultTest : public ::testing::Test {
 protected:
  FabricFaultTest() : net_(sim_), fabric_(sim_, net_, &obs_) {
    client_ = net_.add_node("client");
    depot_node_ = net_.add_node("depot-host");
    link_ = net_.add_link(client_, depot_node_, {100e6, 5 * kMillisecond, 0.0});
    ibp::DepotConfig cfg;
    cfg.capacity_bytes = 1ull << 28;
    fabric_.add_depot(depot_node_, "d0", cfg);
  }

  /// Allocates and stores `data`, returning the capability set.
  ibp::CapabilitySet alloc_and_store(const Bytes& data) {
    ibp::CapabilitySet caps;
    ibp::AllocRequest req;
    req.size = data.size();
    req.lease = 3600 * kSecond;
    bool stored = false;
    fabric_.allocate_async(client_, "d0", req,
                           [&](ibp::IbpStatus status, const ibp::CapabilitySet& c) {
                             ASSERT_EQ(status, ibp::IbpStatus::kOk);
                             caps = c;
                             fabric_.store_async(client_, caps.write, 0, data, {},
                                                 [&](ibp::IbpStatus s) {
                                                   ASSERT_EQ(s, ibp::IbpStatus::kOk);
                                                   stored = true;
                                                 });
                           });
    sim_.run();
    EXPECT_TRUE(stored);
    return caps;
  }

  sim::Simulator sim_;
  obs::Context obs_;
  sim::Network net_;
  ibp::Fabric fabric_;
  sim::NodeId client_ = 0, depot_node_ = 0;
  sim::LinkId link_ = 0;
};

TEST_F(FabricFaultTest, OfflineFailsFastButPartitionTimesOut) {
  const auto caps = alloc_and_store(pattern(64));
  fabric_.set_timeouts({.control = 2 * kSecond, .data = 2 * kSecond});

  // An offline depot refuses: the host is down but the route is up, so the
  // error comes back after one round trip, not after the deadline.
  fabric_.set_offline("d0", true);
  std::optional<ibp::IbpStatus> status;
  const SimTime t0 = sim_.now();
  fabric_.probe_async(client_, caps.manage,
                      [&](ibp::IbpStatus s, const ibp::AllocInfo&) { status = s; });
  sim_.run();
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, ibp::IbpStatus::kRefused);
  EXPECT_LT(sim_.now() - t0, 100 * kMillisecond);
  EXPECT_EQ(total(obs_, "ibp.timeouts"), 0u);
  fabric_.set_offline("d0", false);

  // A partitioned depot is silent: the request is lost and only the
  // deadline reports anything, exactly at t0 + timeout.
  net_.set_link_up(link_, false);
  status.reset();
  const SimTime t1 = sim_.now();
  fabric_.probe_async(client_, caps.manage,
                      [&](ibp::IbpStatus s, const ibp::AllocInfo&) { status = s; });
  sim_.run();
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, ibp::IbpStatus::kTimeout);
  EXPECT_EQ(sim_.now(), t1 + 2 * kSecond);
  EXPECT_EQ(total(obs_, "ibp.timeouts"), 1u);
  EXPECT_EQ(total(obs_, "ibp.requests_lost"), 1u);
}

TEST_F(FabricFaultTest, SetOfflineCancelsInFlightFlows) {
  const Bytes data = pattern(1 << 20);
  const auto caps = alloc_and_store(data);

  // Start a ~90 ms load, then crash the depot 30 ms in: the half-delivered
  // flow must fail, not complete as if nothing happened.
  std::optional<ibp::IbpStatus> status;
  fabric_.load_async(client_, caps.read, 0, data.size(), {},
                     std::make_shared<Bytes>(data.size()), 0,
                     [&](ibp::IbpStatus s, std::size_t) { status = s; });
  sim_.after(30 * kMillisecond, [&] { fabric_.set_offline("d0", true); });
  sim_.run();

  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, ibp::IbpStatus::kRefused);
  EXPECT_GE(total(obs_, "ibp.flows_killed_offline"), 1u);
}

TEST_F(FabricFaultTest, DroppedRequestsOnlySurfaceAtTheDeadline) {
  const auto caps = alloc_and_store(pattern(64));
  fabric_.set_timeouts({.control = kSecond, .data = kSecond});
  fabric_.set_drop_hook([](const std::string&) { return true; });

  std::optional<ibp::IbpStatus> status;
  const SimTime t0 = sim_.now();
  fabric_.probe_async(client_, caps.manage,
                      [&](ibp::IbpStatus s, const ibp::AllocInfo&) { status = s; });
  sim_.run();
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, ibp::IbpStatus::kTimeout);
  EXPECT_EQ(sim_.now(), t0 + kSecond);
  EXPECT_EQ(total(obs_, "ibp.requests_dropped"), 1u);
}

// --- L-Bone: offline cross-check ----------------------------------------------

class LboneFaultTest : public ::testing::Test {
 protected:
  LboneFaultTest()
      : net_(sim_), fabric_(sim_, net_, &obs_), directory_(net_, fabric_, &obs_) {
    client_ = net_.add_node("client");
    const sim::NodeId hub = net_.add_node("hub");
    net_.add_link(client_, hub, {1e9, kMillisecond, 0.0});
    for (const char* name : {"d0", "d1"}) {
      const sim::NodeId node = net_.add_node(name);
      net_.add_link(node, hub, {1e9, kMillisecond, 0.0});
      fabric_.add_depot(node, name, {});
      directory_.register_depot(name);
    }
  }

  sim::Simulator sim_;
  obs::Context obs_;
  sim::Network net_;
  ibp::Fabric fabric_;
  lbone::Directory directory_;
  sim::NodeId client_ = 0;
};

TEST_F(LboneFaultTest, FindCrossChecksFabricOfflineState) {
  // The fabric's offline flag is the directory's one source of liveness.
  fabric_.set_offline("d0", true);
  const auto found = directory_.find(client_, {.count = 2});
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].name, "d1");
}

// --- LoRS: checksums, retry, repair -------------------------------------------

class LorsFaultTest : public ::testing::Test {
 protected:
  LorsFaultTest()
      : net_(sim_), fabric_(sim_, net_, &obs_), lors_(sim_, net_, fabric_, 0x10f5, &obs_) {
    client_ = net_.add_node("client");
    const sim::NodeId hub = net_.add_node("hub");
    net_.add_link(client_, hub, {1e9, kMillisecond, 0.0});
    for (const char* name : {"d0", "d1", "d2"}) {
      const sim::NodeId node = net_.add_node(name);
      links_.push_back(net_.add_link(node, hub, {1e9, kMillisecond, 0.0}));
      ibp::DepotConfig cfg;
      cfg.capacity_bytes = 1ull << 28;
      fabric_.add_depot(node, name, cfg);
      depots_.push_back(name);
    }
  }

  exnode::ExNode upload(Bytes data, int replicas, std::uint64_t block_bytes = 4096) {
    lors::UploadOptions up;
    up.depots = depots_;
    up.replicas = replicas;
    up.block_bytes = block_bytes;
    std::optional<exnode::ExNode> out;
    lors_.upload_async(client_, std::move(data), up, [&](const lors::UploadResult& r) {
      EXPECT_EQ(r.status, lors::LorsStatus::kOk);
      out = r.exnode;
    });
    sim_.run();
    EXPECT_TRUE(out.has_value());
    return out.has_value() ? std::move(*out) : exnode::ExNode{};
  }

  lors::DownloadResult download(const exnode::ExNode& node,
                                const lors::RetryPolicy& retry = {}) {
    lors::DownloadOptions opts;
    opts.retry = retry;
    std::optional<lors::DownloadResult> out;
    lors_.download_async(client_, node, opts,
                         [&](lors::DownloadResult r) { out = std::move(r); });
    sim_.run();
    EXPECT_TRUE(out.has_value());
    return out.has_value() ? std::move(*out) : lors::DownloadResult{};
  }

  sim::Simulator sim_;
  obs::Context obs_;
  sim::Network net_;
  ibp::Fabric fabric_;
  lors::Lors lors_;
  sim::NodeId client_ = 0;
  std::vector<std::string> depots_;
  std::vector<sim::LinkId> links_;
};

TEST_F(LorsFaultTest, UploadRecordsPerBlockChecksumsAndXmlKeepsThem) {
  const Bytes data = pattern(10'000);
  const exnode::ExNode node = upload(data, 1);
  ASSERT_EQ(node.extents().size(), 3u);
  for (const auto& extent : node.extents()) {
    ASSERT_TRUE(extent.checksum.has_value());
    EXPECT_EQ(*extent.checksum,
              crc32(std::span(data).subspan(extent.offset, extent.length)));
  }
  const exnode::ExNode back = exnode::ExNode::from_xml(node.to_xml());
  EXPECT_EQ(back, node);
}

TEST_F(LorsFaultTest, InjectedCorruptionIsAlwaysDetectedNeverDelivered) {
  const Bytes data = pattern(8192);
  const exnode::ExNode node = upload(data, 1);  // one replica: nowhere to hide
  fabric_.set_corrupt_hook([](const std::string&, Bytes& b) { b[0] ^= 0x01; });

  const auto result = download(node);
  // Every block came back corrupt, every corruption was caught, and not one
  // corrupt byte was copied into the output.
  EXPECT_EQ(result.status, lors::LorsStatus::kPartial);
  EXPECT_EQ(result.blocks_failed, result.blocks_total);
  EXPECT_EQ(result.corruption_detected, result.blocks_total);
  EXPECT_NE(*result.data, data);
  for (std::size_t i = 0; i < result.data->size(); ++i) {
    EXPECT_EQ((*result.data)[i], 0) << "corrupt byte delivered at offset " << i;
  }
  EXPECT_GE(total(obs_, "lors.corruption_detected"), result.blocks_total);
}

TEST_F(LorsFaultTest, CorruptReplicaFailsOverToACleanOne) {
  const Bytes data = pattern(8192);
  const exnode::ExNode node = upload(data, 2);  // blocks on (d0,d1) and (d1,d2)
  fabric_.set_corrupt_hook([](const std::string& depot, Bytes& b) {
    if (depot == "d0") b[0] ^= 0x01;
  });

  const auto result = download(node);
  EXPECT_EQ(result.status, lors::LorsStatus::kOk);
  EXPECT_EQ(*result.data, data);
  // Block 0 prefers d0, catches the rot, and silently heals via d1.
  EXPECT_GE(result.corruption_detected, 1u);
  EXPECT_GE(result.replica_failovers, 1u);
}

TEST_F(LorsFaultTest, RetryRoundsOutlastATransientPartition) {
  const Bytes data = pattern(4096);
  const exnode::ExNode node = upload(data, 1, 8192);  // single block on d0
  fabric_.set_timeouts({.control = 500 * kMillisecond, .data = kSecond});

  net_.set_link_up(links_[0], false);
  sim_.at(sim_.now() + 4 * kSecond, [&] { net_.set_link_up(links_[0], true); });

  lors::RetryPolicy retry;
  retry.max_attempts = 8;
  retry.base_backoff = 500 * kMillisecond;
  retry.max_backoff = 2 * kSecond;
  const auto result = download(node, retry);
  EXPECT_EQ(result.status, lors::LorsStatus::kOk);
  EXPECT_EQ(*result.data, data);
  EXPECT_GE(result.retries, 1u);
  EXPECT_GE(total(obs_, "ibp.timeouts"), 1u);
  EXPECT_GE(total(obs_, "ibp.requests_lost"), 1u);
}

TEST_F(LorsFaultTest, RepairRestoresFullReplicaCountAfterACrash) {
  const Bytes data = pattern(12'288);  // 3 blocks: d2 hosts replicas of two
  const exnode::ExNode node = upload(data, 2);
  fabric_.set_offline("d2", true);

  lors::RepairOptions options;
  options.target_replicas = 2;
  options.candidate_depots = depots_;
  std::optional<lors::RepairResult> result;
  lors_.repair_async(client_, node, options,
                     [&](const lors::RepairResult& r) { result = r; });
  sim_.run();

  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, lors::LorsStatus::kOk);
  EXPECT_EQ(result->replicas_probed, 6u);
  EXPECT_EQ(result->replicas_lost, 2u);   // d2 held replicas of two extents
  EXPECT_EQ(result->replicas_added, 2u);
  EXPECT_EQ(result->extents_short, 0u);
  for (const auto& extent : result->exnode.extents()) {
    EXPECT_GE(extent.replicas.size(), 2u);
    for (const auto& replica : extent.replicas) {
      EXPECT_NE(replica.read.depot, "d2");
    }
  }
  // The healed exNode downloads clean with the dead depot still dark.
  const auto dl = download(result->exnode);
  EXPECT_EQ(dl.status, lors::LorsStatus::kOk);
  EXPECT_EQ(*dl.data, data);
}

TEST_F(LorsFaultTest, RepairKeepsPointersWhenEveryReplicaGoesDark) {
  // One block, two replicas — on d0 and d1 by the placement rule. Take both
  // offline at once (an overlapping-outage window) and run a repair sweep:
  // it must NOT drop the last pointers to the data, because the depots come
  // back with their allocations intact.
  const Bytes data = pattern(4'096);
  const exnode::ExNode node = upload(data, 2);
  fabric_.set_offline("d0", true);
  fabric_.set_offline("d1", true);

  lors::RepairOptions options;
  options.target_replicas = 2;
  options.candidate_depots = depots_;
  std::optional<lors::RepairResult> dark;
  lors_.repair_async(client_, node, options,
                     [&](const lors::RepairResult& r) { dark = r; });
  sim_.run();

  ASSERT_TRUE(dark.has_value());
  EXPECT_EQ(dark->status, lors::LorsStatus::kPartial);
  EXPECT_EQ(dark->extents_dark, 1u);
  EXPECT_EQ(dark->replicas_lost, 0u);   // retained, not dropped
  EXPECT_EQ(dark->replicas_added, 0u);  // no live source to copy from
  ASSERT_EQ(dark->exnode.extents().size(), 1u);
  EXPECT_EQ(dark->exnode.extents()[0].replicas.size(), 2u);

  // Depots restart; the next sweep finds both replicas alive and is a no-op.
  fabric_.set_offline("d0", false);
  fabric_.set_offline("d1", false);
  std::optional<lors::RepairResult> healed;
  lors_.repair_async(client_, dark->exnode, options,
                     [&](const lors::RepairResult& r) { healed = r; });
  sim_.run();

  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(healed->status, lors::LorsStatus::kOk);
  EXPECT_EQ(healed->extents_dark, 0u);
  EXPECT_EQ(healed->replicas_lost, 0u);
  const auto dl = download(healed->exnode);
  EXPECT_EQ(dl.status, lors::LorsStatus::kOk);
  EXPECT_EQ(*dl.data, data);
}

TEST_F(LorsFaultTest, RepairReadProbesReplicasWithoutAManageCapability) {
  // A reader's exNode: one block on d0 and d1, read capabilities only, so
  // repair can only tell the replicas apart by a 1-byte read of each.
  const Bytes data = pattern(4'096);
  const exnode::ExNode uploaded = upload(data, 2);
  ASSERT_EQ(uploaded.extents().size(), 1u);
  exnode::Extent extent = uploaded.extents()[0];
  ASSERT_EQ(extent.replicas.size(), 2u);
  for (auto& replica : extent.replicas) replica.manage.reset();
  exnode::ExNode read_only(uploaded.length());
  read_only.add_extent(extent);
  fabric_.set_offline(extent.replicas[0].read.depot, true);

  lors::RepairOptions options;
  options.target_replicas = 1;
  options.candidate_depots = depots_;
  std::optional<lors::RepairResult> result;
  lors_.repair_async(client_, read_only, options,
                     [&](const lors::RepairResult& r) { result = r; });
  sim_.run();

  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, lors::LorsStatus::kOk);
  EXPECT_EQ(result->replicas_probed, 2u);
  EXPECT_EQ(result->replicas_lost, 1u);
  EXPECT_EQ(result->replicas_added, 0u);
  EXPECT_EQ(result->extents_dark, 0u);
  ASSERT_EQ(result->exnode.extents().size(), 1u);
  const auto& kept = result->exnode.extents()[0].replicas;
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0], extent.replicas[1]);
  const auto dl = download(result->exnode);
  EXPECT_EQ(dl.status, lors::LorsStatus::kOk);
  EXPECT_EQ(*dl.data, data);
}

TEST_F(LorsFaultTest, InjectorRunsItsPlanOnTheVirtualClock) {
  fault::FaultInjector injector(sim_, net_, fabric_);
  fault::FaultPlan plan;
  plan.crashes.push_back({.depot = "d0", .at = kSecond, .restart_after = 2 * kSecond});
  plan.degradations.push_back(
      {.depot = "d1", .at = kSecond, .duration = kSecond, .factor = 0.5});
  injector.arm(plan);

  const double rate0 = fabric_.find_depot("d1")->config().disk_bytes_per_sec;
  sim_.run_until(1500 * kMillisecond);
  EXPECT_TRUE(fabric_.is_offline("d0"));
  EXPECT_EQ(fabric_.find_depot("d1")->config().disk_bytes_per_sec, rate0 * 0.5);
  sim_.run();
  EXPECT_FALSE(fabric_.is_offline("d0"));
  EXPECT_EQ(fabric_.find_depot("d1")->config().disk_bytes_per_sec, rate0);
  EXPECT_EQ(injector.stats().crashes, 1u);
  EXPECT_EQ(injector.stats().restarts, 1u);
  EXPECT_EQ(injector.stats().disks_degraded, 1u);
}

TEST_F(LorsFaultTest, InjectorStacksSlowDiskWindowsAndRestoresTheBaseRate) {
  fault::FaultInjector injector(sim_, net_, fabric_);
  fault::FaultPlan plan;
  // d1: two windows that overlap without nesting.
  plan.degradations.push_back(
      {.depot = "d1", .at = kSecond, .duration = 3 * kSecond, .factor = 0.5});
  plan.degradations.push_back(
      {.depot = "d1", .at = 2 * kSecond, .duration = 10 * kSecond, .factor = 0.5});
  // d2: a short window nested inside a long one.
  plan.degradations.push_back(
      {.depot = "d2", .at = kSecond, .duration = 10 * kSecond, .factor = 0.5});
  plan.degradations.push_back(
      {.depot = "d2", .at = 2 * kSecond, .duration = 2 * kSecond, .factor = 0.25});
  injector.arm(plan);

  const auto rate = [&](const char* depot) {
    return fabric_.find_depot(depot)->config().disk_bytes_per_sec;
  };
  const double d1 = rate("d1");
  const double d2 = rate("d2");
  sim_.run_until(3 * kSecond);
  EXPECT_EQ(rate("d1"), d1 * 0.5 * 0.5);
  EXPECT_EQ(rate("d2"), d2 * 0.5 * 0.25);
  sim_.run_until(5 * kSecond);  // the first of each pair has closed
  EXPECT_EQ(rate("d1"), d1 * 0.5);
  EXPECT_EQ(rate("d2"), d2 * 0.5);
  sim_.run();
  EXPECT_EQ(rate("d1"), d1);
  EXPECT_EQ(rate("d2"), d2);
}

TEST_F(LorsFaultTest, InjectorDropWindowInstallsDefaultDeadlines) {
  const Bytes data = pattern(64);
  const exnode::ExNode node = upload(data, 1, 4096);

  fault::FaultInjector injector(sim_, net_, fabric_);
  fault::FaultPlan plan;
  plan.drops.push_back(
      {.at = sim_.now(), .duration = 3600 * kSecond, .prob = 1.0, .depot = {}});
  injector.arm(plan);
  EXPECT_GT(fabric_.timeouts().control, 0);  // arm() refuses to let callers hang

  std::optional<ibp::IbpStatus> status;
  const auto& manage = node.extents().front().replicas.front().manage;
  ASSERT_TRUE(manage.has_value());
  fabric_.probe_async(client_, *manage,
                      [&](ibp::IbpStatus s, const ibp::AllocInfo&) { status = s; });
  sim_.run();
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, ibp::IbpStatus::kTimeout);
  EXPECT_GE(injector.stats().requests_dropped, 1u);
}

// --- chaos soak ---------------------------------------------------------------

/// The paper's remote-visualization pipeline under scheduled mayhem: a WAN
/// depot crashes and restarts, staged LAN leases expire in a wave (the
/// refresh daemon is deliberately slower than the lease), and for a window
/// every depot read is silently corrupted — while a client browses on
/// demand. Acceptance: every demand request completes with exactly the
/// published bytes (no undetected corruption, no permanent failures), and
/// repair_async restores full replica count after a permanent crash.
class ChaosTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kResolution = 24;

  ChaosTest()
      : net_(sim_),
        fabric_(sim_, net_),
        lors_(sim_, net_, fabric_, 0x10f5, &obs_),
        source_(std::make_shared<lightfield::ProceduralSource>(config())) {
    lan_switch_ = net_.add_node("lan-switch");
    agent_node_ = net_.add_node("agent");
    const sim::LinkConfig lan{1e9, 50 * kMicrosecond, 0.0};
    net_.add_link(agent_node_, lan_switch_, lan);
    for (const char* name : {"lan-0", "lan-1"}) {
      const sim::NodeId node = net_.add_node(name);
      net_.add_link(node, lan_switch_, lan);
      add_depot(node, name);
      lan_depots_.push_back(name);
    }
    wan_router_ = net_.add_node("wan-router");
    net_.add_link(lan_switch_, wan_router_, {100e6, 35 * kMillisecond, 0.0});
    for (const char* name : {"ca-0", "ca-1", "ca-2"}) {
      const sim::NodeId node = net_.add_node(name);
      net_.add_link(node, wan_router_, {1e9, kMillisecond, 0.0});
      add_depot(node, name);
      wan_depots_.push_back(name);
    }
    dvs_node_ = net_.add_node("dvs");
    net_.add_link(dvs_node_, wan_router_, {1e9, kMillisecond, 0.0});
    server_node_ = net_.add_node("server");
    net_.add_link(server_node_, wan_router_, {1e9, kMillisecond, 0.0});
    dvs_ = std::make_unique<streaming::DvsServer>(sim_, net_, dvs_node_,
                                                  source_->lattice());
  }

  static lightfield::LatticeConfig config() {
    lightfield::LatticeConfig cfg;
    cfg.angular_step_deg = 15.0;
    cfg.view_set_span = 3;  // 4 x 8 = 32 view sets
    cfg.view_resolution = kResolution;
    return cfg;
  }

  void add_depot(sim::NodeId node, const std::string& name) {
    ibp::DepotConfig cfg;
    cfg.capacity_bytes = 1ull << 30;
    cfg.max_alloc_bytes = 1ull << 28;
    fabric_.add_depot(node, name, cfg);
  }

  /// Publishes every view set twice-replicated across the three WAN depots,
  /// keeping the owner exNodes for the repair phase.
  void publish_all() {
    for (const auto& id : source_->lattice().all_view_sets()) {
      Bytes compressed = source_->build_compressed(id);
      lors::UploadOptions up;
      up.depots = wan_depots_;
      up.replicas = 2;
      up.block_bytes = 2048;
      bool ok = false;
      lors_.upload_async(server_node_, std::move(compressed), up,
                         [&](const lors::UploadResult& r) {
                           ok = r.status == lors::LorsStatus::kOk;
                           published_[id] = r.exnode;
                           exnode::ExNode copy = r.exnode;
                           dvs_->install(id, std::move(copy));
                         });
      sim_.run();
      ASSERT_TRUE(ok);
    }
  }

  sim::Simulator sim_;
  obs::Context obs_;
  sim::Network net_;
  ibp::Fabric fabric_;
  lors::Lors lors_;
  std::shared_ptr<lightfield::ProceduralSource> source_;
  std::unique_ptr<streaming::DvsServer> dvs_;
  sim::NodeId lan_switch_ = 0, agent_node_ = 0, wan_router_ = 0, dvs_node_ = 0,
              server_node_ = 0;
  std::vector<std::string> lan_depots_, wan_depots_;
  std::unordered_map<ViewSetId, exnode::ExNode, lightfield::ViewSetIdHash> published_;
};

TEST_F(ChaosTest, BrowsingSurvivesCrashesLeaseExpiryAndCorruption) {
  publish_all();

  streaming::ClientAgentConfig cfg;
  cfg.prefetch = false;  // keep every access an observable fetch
  cfg.staging = true;
  cfg.lan_depots = lan_depots_;
  cfg.staging_concurrency = 2;
  // The lease is deliberately shorter than the refresh interval: the first
  // refresh at t=18s arrives to find everything staged before t=6s already
  // expired — a lease-expiry wave the agent must heal by restaging.
  cfg.staging_lease = 12 * kSecond;
  cfg.lease_refresh = true;
  cfg.lease_refresh_interval = 18 * kSecond;
  cfg.retry.max_attempts = 4;
  cfg.retry.base_backoff = 250 * kMillisecond;
  cfg.max_refetch = 2;
  streaming::ClientAgent agent(sim_, net_, fabric_, lors_, *dvs_, source_->lattice(),
                               agent_node_, cfg);
  agent.start_staging();

  // Publication advanced the clock; the whole chaos schedule hangs off t0.
  const SimTime t0 = sim_.now();
  fault::FaultInjector injector(sim_, net_, fabric_);
  fault::FaultPlan plan;
  plan.seed = 0xc4a05;
  // One WAN depot crashes mid-browse and returns 20 s later.
  plan.crashes.push_back(
      {.depot = "ca-1", .at = t0 + 15 * kSecond, .restart_after = 20 * kSecond});
  // For three seconds every depot read is silently corrupted.
  plan.corruptions.push_back(
      {.at = t0 + 3 * kSecond, .duration = 3 * kSecond, .prob = 1.0, .depot = {}});
  injector.arm(plan);

  // Browse: a demand request every 2 s, walking the whole lattice.
  const auto ids = source_->lattice().all_view_sets();
  std::size_t failed = 0;
  for (std::size_t i = 0; i < 22; ++i) {
    const SimTime start =
        t0 + 500 * kMillisecond + static_cast<SimTime>(i) * 2 * kSecond;
    sim_.run_until(start);
    const ViewSetId id = ids[(i * 3) % ids.size()];
    const Bytes expected = source_->build_compressed(id);

    bool done = false;
    Bytes got;
    agent.request_view_set(id, [&](const streaming::ClientAgent::Delivery& d) {
      done = true;
      got = *d.payload;
    });
    const SimTime limit = sim_.now() + 60 * kSecond;
    while (!done && sim_.now() < limit && sim_.step()) {
    }
    ASSERT_TRUE(done) << "demand request " << i << " never completed";
    if (got != expected) ++failed;
    // Zero undetected corrupt deliveries, zero permanent failures.
    ASSERT_EQ(got.size(), expected.size()) << "request " << i;
    ASSERT_EQ(got, expected) << "request " << i << " delivered wrong bytes";
  }
  agent.stop_lease_refresh();
  EXPECT_EQ(failed, 0u);

  // The scheduled mayhem actually happened.
  EXPECT_GE(injector.stats().crashes, 1u);
  EXPECT_GE(injector.stats().restarts, 1u);
  EXPECT_GE(injector.stats().bits_flipped, 1u);
  EXPECT_GE(total(obs_, "lors.corruption_detected"), 1u);
  std::uint64_t lan_expired = 0;
  for (const auto& name : lan_depots_) {
    lan_expired += fabric_.find_depot(name)->stats().leases_expired;
  }
  EXPECT_GE(lan_expired, 1u) << "no lease-expiry wave was exercised";
  EXPECT_GE(agent.counter("agent.invalidations"), 1u);
  EXPECT_GE(agent.counter("agent.lease_refreshes") + agent.counter("agent.restaged"), 1u);

  // Aftermath: ca-2 dies for good; repair rebuilds full replication for a
  // published view set without it.
  fabric_.set_offline("ca-2", true);
  const exnode::ExNode& wounded = published_.at(ids[0]);
  const auto wounded_depots = wounded.depots();
  ASSERT_NE(std::find(wounded_depots.begin(), wounded_depots.end(), "ca-2"),
            wounded_depots.end())
      << "test premise broken: ca-2 hosts none of this view set";
  lors::RepairOptions repair;
  repair.target_replicas = 2;
  repair.candidate_depots = wan_depots_;
  std::optional<lors::RepairResult> healed;
  lors_.repair_async(server_node_, wounded, repair,
                     [&](const lors::RepairResult& r) { healed = r; });
  const SimTime limit = sim_.now() + 60 * kSecond;
  while (!healed.has_value() && sim_.now() < limit && sim_.step()) {
  }
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(healed->status, lors::LorsStatus::kOk);
  EXPECT_GE(healed->replicas_lost, 1u);
  EXPECT_GE(healed->replicas_added, 1u);
  EXPECT_EQ(healed->extents_short, 0u);
  for (const auto& extent : healed->exnode.extents()) {
    EXPECT_GE(extent.replicas.size(), 2u);
    for (const auto& replica : extent.replicas) EXPECT_NE(replica.read.depot, "ca-2");
  }
}

}  // namespace
}  // namespace lon
