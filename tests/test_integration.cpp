// Cross-module integration tests: failure injection (depots vanishing
// mid-session, lease expiry, soft-allocation revocation under pressure),
// L-Bone-driven staging discovery, and multi-client service — the paper's
// "a client agent can serve multiple clients" and its future-work question
// of scalability in the number of users.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "lbone/lbone.hpp"
#include "lightfield/procedural.hpp"
#include "session/publisher.hpp"
#include "streaming/client.hpp"
#include "streaming/client_agent.hpp"
#include "streaming/dvs.hpp"

namespace lon {
namespace {

using lightfield::ViewSetId;
using streaming::AccessClass;

lightfield::LatticeConfig small_config(std::size_t resolution = 24) {
  lightfield::LatticeConfig cfg;
  cfg.angular_step_deg = 15.0;
  cfg.view_set_span = 3;  // 4 x 8 = 32 view sets
  cfg.view_resolution = resolution;
  return cfg;
}

/// A full two-sided world: LAN (client, agent, 2 depots) + WAN (2 depots,
/// DVS, server), with the database published onto the WAN depots.
class WorldTest : public ::testing::Test {
 protected:
  WorldTest()
      : net_(sim_),
        fabric_(sim_, net_),
        lors_(sim_, net_, fabric_),
        lbone_(net_, fabric_),
        source_(small_config()) {
    lan_switch_ = net_.add_node("lan-switch");
    client_node_ = net_.add_node("client");
    client2_node_ = net_.add_node("client2");
    agent_node_ = net_.add_node("agent");
    const sim::LinkConfig lan{1e9, 50 * kMicrosecond, 0.0};
    net_.add_link(client_node_, lan_switch_, lan);
    net_.add_link(client2_node_, lan_switch_, lan);
    net_.add_link(agent_node_, lan_switch_, lan);
    for (int i = 0; i < 2; ++i) {
      const std::string name = "lan-" + std::to_string(i);
      const sim::NodeId node = net_.add_node(name);
      net_.add_link(node, lan_switch_, lan);
      add_depot(node, name, 1ull << 30);
      lan_depots_.push_back(name);
    }
    wan_router_ = net_.add_node("wan-router");
    wan_trunk_ = net_.add_link(lan_switch_, wan_router_, {100e6, 35 * kMillisecond, 0.0});
    for (int i = 0; i < 2; ++i) {
      const std::string name = "ca-" + std::to_string(i);
      const sim::NodeId node = net_.add_node(name);
      net_.add_link(node, wan_router_, {1e9, kMillisecond, 0.0});
      add_depot(node, name, 1ull << 30);
      wan_depots_.push_back(name);
    }
    dvs_node_ = net_.add_node("dvs");
    net_.add_link(dvs_node_, wan_router_, {1e9, kMillisecond, 0.0});
    server_node_ = net_.add_node("server");
    net_.add_link(server_node_, wan_router_, {1e9, kMillisecond, 0.0});
    dvs_ = std::make_unique<streaming::DvsServer>(sim_, net_, dvs_node_,
                                                  source_.lattice());
  }

  void add_depot(sim::NodeId node, const std::string& name, std::uint64_t capacity) {
    ibp::DepotConfig cfg;
    cfg.capacity_bytes = capacity;
    cfg.max_alloc_bytes = capacity;
    fabric_.add_depot(node, name, cfg);
    lbone_.register_depot(name);
  }

  session::PublishResult publish_all(int replicas = 1) {
    session::PublishOptions options;
    options.depots = wan_depots_;
    options.replicas = replicas;
    return session::publish_database(sim_, lors_, *dvs_, source_, server_node_, options);
  }

  std::unique_ptr<streaming::ClientAgent> make_agent(bool staging) {
    streaming::ClientAgentConfig cfg;
    cfg.staging = staging;
    cfg.lan_depots = lan_depots_;
    cfg.prefetch = false;  // keep traces easy to reason about
    return std::make_unique<streaming::ClientAgent>(sim_, net_, fabric_, lors_, *dvs_,
                                                    source_.lattice(), agent_node_, cfg);
  }

  sim::Simulator sim_;
  sim::Network net_;
  ibp::Fabric fabric_;
  lors::Lors lors_;
  lbone::Directory lbone_;
  lightfield::ProceduralSource source_;
  std::unique_ptr<streaming::DvsServer> dvs_;
  sim::NodeId lan_switch_, client_node_, client2_node_, agent_node_, wan_router_,
      dvs_node_, server_node_;
  sim::LinkId wan_trunk_ = 0;
  std::vector<std::string> lan_depots_, wan_depots_;
};

TEST_F(WorldTest, DownloadSurvivesDepotFailureWithReplicas) {
  ASSERT_EQ(publish_all(/*replicas=*/2).failed, 0u);
  auto agent = make_agent(false);

  // One of the two WAN depots dies before the first access.
  fabric_.set_offline("ca-0", true);
  Bytes received;
  agent->request_view_set({1, 4}, [&](const streaming::ClientAgent::Delivery& d) {
    received = *d.payload;
  });
  sim_.run();
  ASSERT_FALSE(received.empty());
  EXPECT_EQ(lightfield::ViewSet::decompress(received), source_.build({1, 4}));
}

TEST_F(WorldTest, DownloadFailsCleanlyWithoutReplicas) {
  ASSERT_EQ(publish_all(/*replicas=*/1).failed, 0u);
  auto agent = make_agent(false);
  // Without replication, killing both depots makes some view set unreachable.
  fabric_.set_offline("ca-0", true);
  fabric_.set_offline("ca-1", true);
  std::optional<Bytes> received;
  agent->request_view_set({1, 4}, [&](const streaming::ClientAgent::Delivery& d) {
    received = *d.payload;
  });
  sim_.run();
  ASSERT_TRUE(received.has_value());
  EXPECT_TRUE(received->empty());  // failure reported, no hang

  // The depot comes back; the next request succeeds (IBP data survives
  // transient unavailability).
  fabric_.set_offline("ca-0", false);
  fabric_.set_offline("ca-1", false);
  received.reset();
  agent->request_view_set({1, 4}, [&](const streaming::ClientAgent::Delivery& d) {
    received = *d.payload;
  });
  sim_.run();
  ASSERT_TRUE(received.has_value());
  EXPECT_FALSE(received->empty());
}

TEST_F(WorldTest, StagingSurvivesLanDepotFailure) {
  ASSERT_EQ(publish_all().failed, 0u);
  auto agent = make_agent(true);
  fabric_.set_offline("lan-0", true);  // half the staging targets are dead
  agent->start_staging();
  sim_.run();
  // Every view set routed to the dead depot failed; the rest staged fine.
  EXPECT_GT(agent->counter("agent.staged"), 0u);
  EXPECT_GT(agent->counter("agent.staging_failures"), 0u);
  EXPECT_EQ(agent->counter("agent.staged") + agent->counter("agent.staging_failures"),
            source_.lattice().view_set_count());
}

TEST_F(WorldTest, ExpiredStagedLeasesFailOverToWan) {
  ASSERT_EQ(publish_all().failed, 0u);
  auto agent = make_agent(true);
  // Short staged leases: they lapse long before the WAN uploads' 24 h leases.
  {
    streaming::ClientAgentConfig cfg;
    cfg.staging = true;
    cfg.lan_depots = lan_depots_;
    cfg.prefetch = false;
    cfg.staging_lease = 600 * kSecond;
    agent = std::make_unique<streaming::ClientAgent>(sim_, net_, fabric_, lors_, *dvs_,
                                                     source_.lattice(), agent_node_, cfg);
  }
  agent->start_staging();
  sim_.run();
  ASSERT_TRUE(agent->staging_complete());

  // Let every staged (soft, leased) allocation expire. The WAN replicas in
  // the same exNodes keep the data reachable.
  sim_.run_until(sim_.now() + 2 * agent->config().staging_lease);
  for (const auto& name : lan_depots_) {
    fabric_.find_depot(name)->sweep_expired();
    EXPECT_EQ(fabric_.find_depot(name)->allocation_count(), 0u);
  }

  Bytes received;
  std::optional<AccessClass> cls;
  agent->request_view_set({2, 3}, [&](const streaming::ClientAgent::Delivery& d) {
    received = *d.payload;
    cls = d.cls;
  });
  sim_.run();
  ASSERT_FALSE(received.empty());
  EXPECT_EQ(lightfield::ViewSet::decompress(received), source_.build({2, 3}));
}

TEST_F(WorldTest, LbonePicksNearestStagingDepots) {
  ASSERT_EQ(publish_all().failed, 0u);
  streaming::ClientAgentConfig cfg;
  cfg.prefetch = false;
  streaming::ClientAgent agent(sim_, net_, fabric_, lors_, *dvs_, source_.lattice(),
                               agent_node_, cfg);

  // No depots configured: discovery through the L-Bone must find the two
  // LAN depots (closest) rather than the WAN ones.
  const std::size_t picked =
      agent.start_staging(lbone_, 2, /*database_bytes=*/10 << 20, 3600 * kSecond);
  EXPECT_EQ(picked, 2u);
  sim_.run();
  EXPECT_TRUE(agent.staging_complete());
  EXPECT_GT(fabric_.find_depot("lan-0")->allocation_count(), 0u);
  EXPECT_GT(fabric_.find_depot("lan-1")->allocation_count(), 0u);
}

TEST_F(WorldTest, AgentServesMultipleClients) {
  ASSERT_EQ(publish_all().failed, 0u);
  auto agent = make_agent(false);
  streaming::ClientConfig ccfg;
  ccfg.display_resolution = 24;
  streaming::Client alice(sim_, net_, small_config(), client_node_, *agent, ccfg);
  streaming::Client bob(sim_, net_, small_config(), client2_node_, *agent, ccfg);

  const Spherical dir = source_.lattice().view_set_center({1, 3});
  bool alice_ready = false;
  alice.set_view(dir, [&](bool ok) { alice_ready = ok; });
  sim_.run();
  ASSERT_TRUE(alice_ready);
  ASSERT_EQ(alice.accesses().size(), 1u);
  EXPECT_EQ(alice.accesses().front().cls, AccessClass::kWan);

  // Bob asks for the view Alice already pulled: the shared agent cache makes
  // it a hit — the mechanism that lets one agent serve a mobile user group.
  bool bob_ready = false;
  bob.set_view(dir, [&](bool ok) { bob_ready = ok; });
  sim_.run();
  ASSERT_TRUE(bob_ready);
  ASSERT_EQ(bob.accesses().size(), 1u);
  EXPECT_EQ(bob.accesses().front().cls, AccessClass::kAgentHit);
  EXPECT_LT(bob.accesses().front().total(), alice.accesses().front().total());
}

TEST_F(WorldTest, ConcurrentClientsShareInflightFetch) {
  ASSERT_EQ(publish_all().failed, 0u);
  auto agent = make_agent(false);
  streaming::ClientConfig ccfg;
  ccfg.display_resolution = 24;
  streaming::Client alice(sim_, net_, small_config(), client_node_, *agent, ccfg);
  streaming::Client bob(sim_, net_, small_config(), client2_node_, *agent, ccfg);

  const Spherical dir = source_.lattice().view_set_center({2, 5});
  bool a_ready = false, b_ready = false;
  alice.set_view(dir, [&](bool ok) { a_ready = ok; });
  bob.set_view(dir, [&](bool ok) { b_ready = ok; });
  sim_.run();
  EXPECT_TRUE(a_ready);
  EXPECT_TRUE(b_ready);
  // Exactly one WAN fetch happened; the second demand joined it.
  EXPECT_EQ(agent->counter("agent.wan_accesses") + agent->counter("agent.hits"), 2u);
  EXPECT_LE(agent->counter("agent.wan_accesses"), 2u);
  // The trunk carried the view set toward the LAN once.
  EXPECT_EQ(net_.link_stats(wan_trunk_, false).bytes_carried, agent->cache().bytes_used());
}

TEST_F(WorldTest, SoftStagedDataRevokedUnderPressureStaysReachable) {
  ASSERT_EQ(publish_all().failed, 0u);
  auto agent = make_agent(true);
  agent->start_staging();
  sim_.run();
  ASSERT_TRUE(agent->staging_complete());

  // A competing tenant grabs most of a LAN depot with a hard allocation,
  // revoking some of the (soft) staged view sets.
  ibp::Depot* lan0 = fabric_.find_depot("lan-0");
  const std::size_t staged = lan0->allocation_count();
  const std::uint64_t grab = lan0->bytes_free() + lan0->bytes_used() / 2;
  const auto result =
      lan0->allocate({grab, 3600 * kSecond, ibp::AllocType::kHard});
  ASSERT_EQ(result.status, ibp::IbpStatus::kOk);
  // The grab added one allocation, so at least one staged copy was revoked.
  EXPECT_LT(lan0->allocation_count(), staged + 1);

  // Every view set is still obtainable: revoked LAN replicas fail over to
  // the WAN replicas recorded in the same exNode.
  for (const auto& id : source_.lattice().all_view_sets()) {
    Bytes received;
    agent->request_view_set(id, [&](const streaming::ClientAgent::Delivery& d) {
      received = *d.payload;
    });
    sim_.run();
    ASSERT_FALSE(received.empty()) << "lost view set " << id.key();
  }
}

}  // namespace
}  // namespace lon
