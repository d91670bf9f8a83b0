// Unit tests for LoRS: striped/replicated upload, multi-stream download with
// replica preference and failover, augment (third-party staging), and the
// fabric's remote manage operations (probe / extend / release) with the LoRS
// lease refresh built on them.
#include <gtest/gtest.h>

#include <optional>

#include "lors/lors.hpp"

namespace lon::lors {
namespace {

class LorsTest : public ::testing::Test {
 protected:
  LorsTest() : net_(sim_), fabric_(sim_, net_), lors_(sim_, net_, fabric_) {
    client_ = net_.add_node("client");
    // Three "California" depots behind a shared WAN trunk, one LAN depot.
    const sim::NodeId wan_router = net_.add_node("wan-router");
    net_.add_link(client_, wan_router, {100e6, 35 * kMillisecond, 0.0});
    for (int i = 0; i < 3; ++i) {
      const std::string name = "ca-" + std::to_string(i);
      const sim::NodeId node = net_.add_node(name + "-node");
      net_.add_link(wan_router, node, {1e9, kMillisecond, 0.0});
      add_depot(node, name);
      wan_depots_.push_back(name);
    }
    lan_node_ = net_.add_node("lan-depot-node");
    lan_link_ = net_.add_link(client_, lan_node_, {1e9, 50 * kMicrosecond, 0.0});
    add_depot(lan_node_, "lan");
  }

  void add_depot(sim::NodeId node, const std::string& name) {
    ibp::DepotConfig cfg;
    cfg.capacity_bytes = 1 << 30;
    cfg.max_alloc_bytes = 1 << 28;
    cfg.max_lease = 24 * 3600 * kSecond;
    fabric_.add_depot(node, name, cfg);
  }

  static Bytes make_payload(std::size_t size) {
    Bytes data(size);
    for (std::size_t i = 0; i < size; ++i) {
      data[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 24);
    }
    return data;
  }

  UploadResult upload(const Bytes& data, UploadOptions options) {
    std::optional<UploadResult> result;
    lors_.upload_async(client_, data, options, [&](const UploadResult& r) { result = r; });
    sim_.run();
    EXPECT_TRUE(result.has_value());
    return *result;
  }

  DownloadResult download(const exnode::ExNode& node, DownloadOptions options = {}) {
    std::optional<DownloadResult> result;
    lors_.download_async(client_, node, options,
                         [&](const DownloadResult& r) { result = r; });
    sim_.run();
    EXPECT_TRUE(result.has_value());
    return *result;
  }

  sim::Simulator sim_;
  sim::Network net_;
  ibp::Fabric fabric_;
  Lors lors_;
  sim::NodeId client_ = 0, lan_node_ = 0;
  sim::LinkId lan_link_ = 0;
  std::vector<std::string> wan_depots_;
};

TEST_F(LorsTest, UploadStripesAcrossDepots) {
  const Bytes data = make_payload(1 << 20);
  UploadOptions opts;
  opts.depots = wan_depots_;
  opts.block_bytes = 256 * 1024;
  const auto result = upload(data, opts);
  ASSERT_EQ(result.status, LorsStatus::kOk);
  EXPECT_TRUE(result.exnode.complete());
  EXPECT_EQ(result.exnode.length(), data.size());
  EXPECT_EQ(result.exnode.extents().size(), 4u);
  // Blocks rotate through the three depots.
  EXPECT_EQ(result.exnode.depots().size(), 3u);
}

TEST_F(LorsTest, UploadWithReplication) {
  const Bytes data = make_payload(300'000);
  UploadOptions opts;
  opts.depots = wan_depots_;
  opts.block_bytes = 100'000;
  opts.replicas = 2;
  const auto result = upload(data, opts);
  ASSERT_EQ(result.status, LorsStatus::kOk);
  for (const auto& extent : result.exnode.extents()) {
    ASSERT_EQ(extent.replicas.size(), 2u);
    // Replicas of one block live on distinct depots.
    EXPECT_NE(extent.replicas[0].read.depot, extent.replicas[1].read.depot);
  }
}

TEST_F(LorsTest, DownloadReassemblesExactBytes) {
  const Bytes data = make_payload(777'777);  // deliberately not block-aligned
  UploadOptions opts;
  opts.depots = wan_depots_;
  opts.block_bytes = 128 * 1024;
  const auto uploaded = upload(data, opts);
  ASSERT_EQ(uploaded.status, LorsStatus::kOk);

  const auto downloaded = download(uploaded.exnode);
  ASSERT_EQ(downloaded.status, LorsStatus::kOk);
  EXPECT_EQ(*downloaded.data, data);
  EXPECT_EQ(downloaded.blocks_total, uploaded.exnode.extents().size());
  EXPECT_EQ(downloaded.replica_failovers, 0u);
}

TEST_F(LorsTest, DownloadPrefersCloserReplica) {
  const Bytes data = make_payload(200'000);
  UploadOptions opts;
  opts.depots = wan_depots_;
  opts.block_bytes = 100'000;
  auto uploaded = upload(data, opts);
  ASSERT_EQ(uploaded.status, LorsStatus::kOk);

  // Stage a LAN replica and mark it preferred, then download: virtually all
  // traffic should come from the LAN depot.
  AugmentOptions aug;
  aug.target_depot = "lan";
  aug.preferred = true;
  std::optional<AugmentResult> augmented;
  lors_.augment_async(client_, uploaded.exnode, aug,
                      [&](const AugmentResult& r) { augmented = r; });
  sim_.run();
  ASSERT_TRUE(augmented.has_value());
  ASSERT_EQ(augmented->status, LorsStatus::kOk);
  EXPECT_EQ(augmented->extents_copied, 2u);

  // Every downloaded byte crosses the LAN depot's link toward the client.
  const auto lan_carried = [&] { return net_.link_stats(lan_link_, false).bytes_carried; };
  const std::uint64_t lan_carried_before = lan_carried();
  const auto result = download(augmented->exnode);
  ASSERT_EQ(result.status, LorsStatus::kOk);
  EXPECT_EQ(*result.data, data);
  EXPECT_EQ(lan_carried() - lan_carried_before, data.size());
}

TEST_F(LorsTest, DownloadFailsOverToSurvivingReplica) {
  const Bytes data = make_payload(150'000);
  UploadOptions opts;
  opts.depots = wan_depots_;
  opts.block_bytes = 75'000;
  opts.replicas = 2;
  auto uploaded = upload(data, opts);
  ASSERT_EQ(uploaded.status, LorsStatus::kOk);

  // Nuke the first replica of the first extent on its depot.
  const auto& victim_cap = uploaded.exnode.extents()[0].replicas[0].read;
  ibp::Depot* victim_depot = fabric_.find_depot(victim_cap.depot);
  ASSERT_NE(victim_depot, nullptr);
  // Find the manage capability indirectly: release is keyed, so instead let
  // the lease lapse by sweeping far in the future... simpler: drop the depot
  // from the exNode? No — we want a *failed fetch*, so corrupt the key.
  auto corrupted = uploaded.exnode;
  // Make the preferred replica unusable (wrong key) on every extent.
  exnode::ExNode broken(corrupted.length());
  for (const auto& extent : corrupted.extents()) {
    exnode::Extent e;
    e.offset = extent.offset;
    e.length = extent.length;
    e.replicas = extent.replicas;
    e.replicas[0].read.key ^= 0xff;
    broken.add_extent(std::move(e));
  }

  const auto result = download(broken);
  ASSERT_EQ(result.status, LorsStatus::kOk);
  EXPECT_EQ(*result.data, data);
  EXPECT_GT(result.replica_failovers, 0u);
}

TEST_F(LorsTest, DownloadReportsPartialWhenAllReplicasDead) {
  const Bytes data = make_payload(50'000);
  UploadOptions opts;
  opts.depots = {"ca-0"};
  opts.block_bytes = 50'000;
  auto uploaded = upload(data, opts);
  ASSERT_EQ(uploaded.status, LorsStatus::kOk);

  auto broken = uploaded.exnode;
  exnode::ExNode dead(broken.length());
  for (const auto& extent : broken.extents()) {
    exnode::Extent e;
    e.offset = extent.offset;
    e.length = extent.length;
    e.replicas = extent.replicas;
    for (auto& r : e.replicas) r.read.key ^= 0xff;
    dead.add_extent(std::move(e));
  }
  const auto result = download(dead);
  EXPECT_EQ(result.status, LorsStatus::kPartial);
  EXPECT_EQ(result.blocks_failed, 1u);
}

TEST_F(LorsTest, MultiStreamDownloadIsFasterOverWan) {
  const Bytes data = make_payload(2 << 20);
  UploadOptions up;
  up.depots = wan_depots_;
  up.block_bytes = 256 * 1024;
  up.net.streams = 8;
  const auto uploaded = upload(data, up);
  ASSERT_EQ(uploaded.status, LorsStatus::kOk);

  auto timed_download = [&](int streams, int concurrent) {
    DownloadOptions opts;
    opts.net.streams = streams;
    opts.max_concurrent = concurrent;
    const SimTime start = sim_.now();
    const auto result = download(uploaded.exnode, opts);
    EXPECT_EQ(result.status, LorsStatus::kOk);
    EXPECT_EQ(*result.data, data);
    return sim_.now() - start;
  };
  const SimDuration slow = timed_download(1, 1);
  const SimDuration fast = timed_download(4, 8);
  // Parallel streams and concurrent blocks beat the single-socket window cap.
  EXPECT_GT(slow, 3 * fast);
}

TEST_F(LorsTest, UploadRejectsBadOptions) {
  UploadOptions no_depots;
  std::optional<UploadResult> result;
  lors_.upload_async(client_, make_payload(10), no_depots,
                     [&](const UploadResult& r) { result = r; });
  sim_.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, LorsStatus::kNoDepots);

  UploadOptions too_many_replicas;
  too_many_replicas.depots = {"ca-0"};
  too_many_replicas.replicas = 2;
  result.reset();
  lors_.upload_async(client_, make_payload(10), too_many_replicas,
                     [&](const UploadResult& r) { result = r; });
  sim_.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, LorsStatus::kNoDepots);
}

TEST_F(LorsTest, AugmentToUnknownDepotFails) {
  AugmentOptions aug;
  aug.target_depot = "ghost";
  std::optional<AugmentResult> result;
  lors_.augment_async(client_, exnode::ExNode(10), aug,
                      [&](const AugmentResult& r) { result = r; });
  sim_.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, LorsStatus::kNoDepots);
}

TEST_F(LorsTest, AugmentUsesSoftAllocationsByDefault) {
  const Bytes data = make_payload(100'000);
  UploadOptions opts;
  opts.depots = wan_depots_;
  opts.block_bytes = 100'000;
  auto uploaded = upload(data, opts);

  AugmentOptions aug;
  aug.target_depot = "lan";
  std::optional<AugmentResult> augmented;
  lors_.augment_async(client_, uploaded.exnode, aug,
                      [&](const AugmentResult& r) { augmented = r; });
  sim_.run();
  ASSERT_TRUE(augmented.has_value());
  ASSERT_EQ(augmented->status, LorsStatus::kOk);

  // Verify the staged allocation is soft by probing via the depot.
  // (The augment result only exposes read caps; inspect depot stats instead.)
  const ibp::Depot* lan = fabric_.find_depot("lan");
  EXPECT_EQ(lan->allocation_count(), 1u);
}


// --- remote manage operations over the fabric -----------------------------------------

class ManageOpsTest : public ::testing::Test {
 protected:
  ManageOpsTest() : net_(sim_), fabric_(sim_, net_), lors_(sim_, net_, fabric_) {
    client_ = net_.add_node("client");
    const sim::NodeId node = net_.add_node("depot");
    net_.add_link(client_, node, {1e9, 5 * kMillisecond, 0.0});
    ibp::DepotConfig cfg;
    cfg.capacity_bytes = 1 << 20;
    cfg.max_lease = 3600 * kSecond;
    fabric_.add_depot(node, "d1", cfg);
  }

  ibp::CapabilitySet allocate(std::uint64_t size, SimDuration lease) {
    std::optional<ibp::CapabilitySet> caps;
    fabric_.allocate_async(client_, "d1", {size, lease, ibp::AllocType::kHard},
                           [&](ibp::IbpStatus s, const ibp::CapabilitySet& c) {
                             ASSERT_EQ(s, ibp::IbpStatus::kOk);
                             caps = c;
                           });
    sim_.run();
    return *caps;
  }

  sim::Simulator sim_;
  sim::Network net_;
  ibp::Fabric fabric_;
  Lors lors_;
  sim::NodeId client_ = 0;
};

TEST_F(ManageOpsTest, RemoteProbeReportsState) {
  const auto caps = allocate(512, 100 * kSecond);
  std::optional<ibp::AllocInfo> info;
  fabric_.probe_async(client_, caps.manage, [&](ibp::IbpStatus s, const ibp::AllocInfo& i) {
    ASSERT_EQ(s, ibp::IbpStatus::kOk);
    info = i;
  });
  sim_.run();
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->size, 512u);
}

TEST_F(ManageOpsTest, RemoteExtendKeepsAllocationAlive) {
  const auto caps = allocate(512, 10 * kSecond);
  sim_.run_until(8 * kSecond);
  std::optional<ibp::IbpStatus> status;
  fabric_.extend_async(client_, caps.manage, 100 * kSecond,
                       [&](ibp::IbpStatus s) { status = s; });
  sim_.run();
  ASSERT_EQ(status, ibp::IbpStatus::kOk);
  sim_.run_until(50 * kSecond);
  Bytes out;
  EXPECT_EQ(fabric_.find_depot("d1")->load(caps.read, 0, 1, out), ibp::IbpStatus::kOk);
}

TEST_F(ManageOpsTest, RemoteReleaseFrees) {
  const auto caps = allocate(512, 100 * kSecond);
  std::optional<ibp::IbpStatus> status;
  fabric_.release_async(client_, caps.manage, [&](ibp::IbpStatus s) { status = s; });
  sim_.run();
  EXPECT_EQ(status, ibp::IbpStatus::kOk);
  EXPECT_EQ(fabric_.find_depot("d1")->allocation_count(), 0u);
}

TEST_F(ManageOpsTest, WrongKindCapabilityIsRejectedRemotely) {
  const auto caps = allocate(512, 100 * kSecond);
  std::optional<ibp::IbpStatus> status;
  fabric_.release_async(client_, caps.read, [&](ibp::IbpStatus s) { status = s; });
  sim_.run();
  EXPECT_EQ(status, ibp::IbpStatus::kBadCapability);
}

TEST_F(ManageOpsTest, LorsRefreshExtendsEveryReplica) {
  // Upload with a short lease, refresh through LoRS, verify survival.
  Bytes data(10'000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  UploadOptions up;
  up.depots = {"d1"};
  up.block_bytes = 4'000;
  up.lease = 20 * kSecond;
  std::optional<exnode::ExNode> node;
  lors_.upload_async(client_, data, up, [&](const UploadResult& r) {
    ASSERT_EQ(r.status, LorsStatus::kOk);
    node = r.exnode;
  });
  sim_.run();
  ASSERT_TRUE(node.has_value());

  sim_.run_until(15 * kSecond);
  std::optional<Lors::RefreshResult> refresh;
  lors_.refresh_async(client_, *node, 300 * kSecond,
                      [&](const Lors::RefreshResult& r) { refresh = r; });
  sim_.run();
  ASSERT_TRUE(refresh.has_value());
  EXPECT_EQ(refresh->status, LorsStatus::kOk);
  EXPECT_EQ(refresh->extended, 3u);  // three blocks, one replica each

  // Well past the original lease: the data still downloads.
  sim_.run_until(120 * kSecond);
  std::optional<DownloadResult> down;
  lors_.download_async(client_, *node, {}, [&](DownloadResult r) { down = std::move(r); });
  sim_.run();
  ASSERT_TRUE(down.has_value());
  EXPECT_EQ(down->status, LorsStatus::kOk);
  EXPECT_EQ(*down->data, data);
}

TEST_F(ManageOpsTest, RefreshWithoutManageCapsReportsPartial) {
  exnode::ExNode node(10);
  exnode::Extent extent;
  extent.offset = 0;
  extent.length = 10;
  exnode::Replica rep;
  rep.read = {"d1", 42, 0xfeedface, ibp::CapKind::kRead};  // no manage capability
  extent.replicas.push_back(rep);
  node.add_extent(extent);

  std::optional<Lors::RefreshResult> refresh;
  lors_.refresh_async(client_, node, kSecond,
                      [&](const Lors::RefreshResult& r) { refresh = r; });
  sim_.run();
  ASSERT_TRUE(refresh.has_value());
  EXPECT_EQ(refresh->status, LorsStatus::kPartial);
  EXPECT_EQ(refresh->failed, 1u);
}

}  // namespace
}  // namespace lon::lors
