// Unit tests for the L-Bone depot directory: registration, liveness and
// proximity queries with capacity/lease filtering.
#include <gtest/gtest.h>

#include "ibp/service.hpp"
#include "lbone/lbone.hpp"
#include "simnet/network.hpp"

namespace lon::lbone {
namespace {

class LboneTest : public ::testing::Test {
 protected:
  LboneTest() : net_(sim_), fabric_(sim_, net_), directory_(net_, fabric_) {
    client_ = net_.add_node("client");
    near_ = add_depot("near", 1 * kMillisecond, 1 << 20);
    mid_ = add_depot("mid", 10 * kMillisecond, 1 << 20);
    far_ = add_depot("far", 50 * kMillisecond, 1 << 20);
  }

  sim::NodeId add_depot(const std::string& name, SimDuration latency,
                        std::uint64_t capacity) {
    const sim::NodeId node = net_.add_node(name + "-node");
    net_.add_link(client_, node, {1e9, latency, 0.0});
    ibp::DepotConfig cfg;
    cfg.capacity_bytes = capacity;
    cfg.max_alloc_bytes = capacity;
    cfg.max_lease = 3600 * kSecond;
    fabric_.add_depot(node, name, cfg);
    directory_.register_depot(name);
    return node;
  }

  sim::Simulator sim_;
  sim::Network net_;
  ibp::Fabric fabric_;
  Directory directory_;
  sim::NodeId client_ = 0, near_ = 0, mid_ = 0, far_ = 0;
};

TEST_F(LboneTest, FindsClosestFirst) {
  const auto result = directory_.find(client_, {.free_bytes = 0, .lease = 0, .count = 3});
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0].name, "near");
  EXPECT_EQ(result[1].name, "mid");
  EXPECT_EQ(result[2].name, "far");
  EXPECT_LT(result[0].latency, result[1].latency);
}

TEST_F(LboneTest, CountLimitsResults) {
  const auto result = directory_.find(client_, {.free_bytes = 0, .lease = 0, .count = 1});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].name, "near");
}

TEST_F(LboneTest, FiltersOnFreeSpace) {
  // Consume most of "near" so it can no longer satisfy a big request.
  ibp::Depot* near_depot = fabric_.find_depot("near");
  ASSERT_NE(near_depot, nullptr);
  ASSERT_EQ(near_depot->allocate({(1 << 20) - 100, kSecond, ibp::AllocType::kHard}).status,
            ibp::IbpStatus::kOk);
  const auto result =
      directory_.find(client_, {.free_bytes = 1 << 19, .lease = 0, .count = 3});
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].name, "mid");
}

TEST_F(LboneTest, FiltersOnLeaseSupport) {
  const auto none =
      directory_.find(client_, {.free_bytes = 0, .lease = 7200 * kSecond, .count = 3});
  EXPECT_TRUE(none.empty());  // every depot caps leases at 3600 s
  const auto all =
      directory_.find(client_, {.free_bytes = 0, .lease = 3600 * kSecond, .count = 3});
  EXPECT_EQ(all.size(), 3u);
}

TEST_F(LboneTest, DeadDepotsAreSkipped) {
  fabric_.set_offline("near", true);
  const auto result = directory_.find(client_, {.free_bytes = 0, .lease = 0, .count = 3});
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].name, "mid");
  fabric_.set_offline("near", false);
  EXPECT_EQ(directory_.find(client_, {.free_bytes = 0, .lease = 0, .count = 3}).size(), 3u);
}

TEST_F(LboneTest, UnreachableDepotsAreSkipped) {
  // A depot on an island with no links.
  const sim::NodeId island = net_.add_node("island");
  ibp::DepotConfig cfg;
  fabric_.add_depot(island, "island", cfg);
  directory_.register_depot("island");
  const auto result = directory_.find(client_, {.free_bytes = 0, .lease = 0, .count = 10});
  EXPECT_EQ(result.size(), 3u);  // island excluded
}

TEST_F(LboneTest, RegisterUnknownDepotThrows) {
  EXPECT_THROW(directory_.register_depot("ghost"), std::invalid_argument);
}

TEST_F(LboneTest, DuplicateRegistrationIsIdempotent) {
  directory_.register_depot("near");
  EXPECT_EQ(directory_.size(), 3u);
}

TEST_F(LboneTest, ProximityFromDifferentVantagePoints) {
  // From the "far" depot's own node, "far" is the closest depot.
  const auto result = directory_.find(far_, {.free_bytes = 0, .lease = 0, .count = 1});
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].name, "far");
}

}  // namespace
}  // namespace lon::lbone
