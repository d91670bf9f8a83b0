// Cooperative site cache: single-flight restage coalescing, lease-aware
// atomic invalidation, capacity-bounded eviction, the sharded DVS
// directory, and the co-sited integration paths — including the restaged
// double-count regression (a WAN-side retry must not destroy a healthy,
// freshly restaged LAN replica nor count a second restage for one
// incident).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "lightfield/procedural.hpp"
#include "session/scenario.hpp"
#include "streaming/client_agent.hpp"
#include "streaming/dvs.hpp"
#include "streaming/site_cache.hpp"

namespace lon::streaming {
namespace {

using lightfield::ViewSetId;

/// Run-wide total of one registry counter, summed over every instance.
std::uint64_t total(const obs::Context& obs, const std::string& name) {
  return obs.metrics.counter_total(name);
}
std::uint64_t total(const std::shared_ptr<obs::Context>& obs, const std::string& name) {
  return total(*obs, name);
}

lightfield::LatticeConfig small_config(std::size_t resolution = 24) {
  lightfield::LatticeConfig cfg;
  cfg.angular_step_deg = 15.0;  // 12 x 24 lattice
  cfg.view_set_span = 3;        // 4 x 8 = 32 view sets
  cfg.view_resolution = resolution;
  return cfg;
}

exnode::ExNode fake_exnode(const ViewSetId& id, std::uint64_t length = 100) {
  exnode::ExNode node(length);
  exnode::Extent extent;
  extent.offset = 0;
  extent.length = length;
  exnode::Replica rep;
  rep.read.depot = "d";
  rep.read.allocation = static_cast<std::uint64_t>(id.row * 100 + id.col);
  rep.read.key = 7;
  extent.replicas.push_back(rep);
  node.add_extent(extent);
  return node;
}

// --- site cache index ---------------------------------------------------------

constexpr SimDuration kHour = 3600 * kSecond;

class SiteCacheTest : public ::testing::Test {
 protected:
  std::unique_ptr<SiteCache> make(SiteCacheConfig cfg = {}) {
    return std::make_unique<SiteCache>(sim_, cfg, &obs_);
  }

  /// The test's one SiteCache's gauge (-1 when it was never registered).
  double gauge(const std::string& name) const {
    const obs::Gauge* g = obs_.metrics.find_gauge(name, "component=site,inst=0");
    return g != nullptr ? g->value() : -1.0;
  }

  sim::Simulator sim_;
  obs::Context obs_;
};

TEST_F(SiteCacheTest, SingleFlightCoalescesToOneLeader) {
  auto site_ptr = make();
  SiteCache& site = *site_ptr;
  const ViewSetId id{1, 2};
  int follower_done = 0;
  bool follower_ok = false;

  // First caller leads; its callback is NOT queued — it performs the copy.
  EXPECT_TRUE(site.begin_restage(id, 0, nullptr));
  // Everyone racing it joins the flight.
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(site.begin_restage(id, 0, [&](bool ok, const exnode::ExNode& node) {
      ++follower_done;
      follower_ok = ok;
      EXPECT_EQ(node.length(), 100u);
    }));
  }
  EXPECT_EQ(follower_done, 0);

  site.finish_restage(id, 0, true, fake_exnode(id));
  EXPECT_EQ(follower_done, 4);
  EXPECT_TRUE(follower_ok);
  EXPECT_EQ(total(obs_, "site.restage_leaders"), 1u);
  EXPECT_EQ(total(obs_, "site.restage_joins"), 4u);
  EXPECT_EQ(total(obs_, "site.restage_keys"), 1u);

  // The flight is gone: a later restage of the same key leads afresh, but
  // the key was already counted — restage_keys stays the distinct count.
  EXPECT_TRUE(site.begin_restage(id, 0, nullptr));
  site.finish_restage(id, 0, true, fake_exnode(id));
  EXPECT_EQ(total(obs_, "site.restage_leaders"), 2u);
  EXPECT_EQ(total(obs_, "site.restage_keys"), 1u);
}

TEST_F(SiteCacheTest, DistinctLodTiersAreSeparateFlights) {
  auto site_ptr = make();
  SiteCache& site = *site_ptr;
  const ViewSetId id{0, 1};
  EXPECT_TRUE(site.begin_restage(id, 0, nullptr));
  EXPECT_TRUE(site.begin_restage(id, 2, nullptr));  // other tier, own flight
  EXPECT_FALSE(site.begin_restage(id, 2, [](bool, const exnode::ExNode&) {}));
  EXPECT_EQ(total(obs_, "site.restage_keys"), 2u);
}

TEST_F(SiteCacheTest, FailedRestageResolvesFollowersWithFailure) {
  auto site_ptr = make();
  SiteCache& site = *site_ptr;
  const ViewSetId id{2, 3};
  std::optional<bool> follower_ok;
  EXPECT_TRUE(site.begin_restage(id, 0, nullptr));
  EXPECT_FALSE(site.begin_restage(
      id, 0, [&](bool ok, const exnode::ExNode&) { follower_ok = ok; }));
  site.finish_restage(id, 0, false, exnode::ExNode{});
  ASSERT_TRUE(follower_ok.has_value());
  EXPECT_FALSE(*follower_ok);
}

TEST_F(SiteCacheTest, LookupDropsExpiredLeaseLazilyAndFansOut) {
  SiteCacheConfig cfg;
  cfg.expiry_timers = false;  // force the lazy path
  auto site_ptr = make(cfg);
  SiteCache& site = *site_ptr;
  const ViewSetId id{1, 1};
  std::vector<ViewSetId> invalidated;
  site.add_listener([&](const ViewSetId& dead, int) { invalidated.push_back(dead); });

  site.publish(id, 0, fake_exnode(id), 100, kSecond);
  EXPECT_TRUE(site.lookup(id).has_value());

  sim_.after(2 * kSecond, [] {});
  sim_.run();
  // Past the lease: the lookup itself must refuse to serve the dead copy
  // and tell every co-sited agent in the same instant.
  EXPECT_FALSE(site.lookup(id).has_value());
  ASSERT_EQ(invalidated.size(), 1u);
  EXPECT_EQ(invalidated[0], id);
  EXPECT_EQ(total(obs_, "site.expirations"), 1u);
  EXPECT_EQ(site.size(), 0u);
}

TEST_F(SiteCacheTest, ExpiryTimerInvalidatesEveryListenerAtomically) {
  auto site_ptr = make();
  SiteCache& site = *site_ptr;  // timers on
  const ViewSetId id{3, 4};
  SimTime seen_a = 0, seen_b = 0;
  site.add_listener([&](const ViewSetId&, int) { seen_a = sim_.now(); });
  site.add_listener([&](const ViewSetId&, int) { seen_b = sim_.now(); });

  const SimTime expiry = 5 * kSecond;
  site.publish(id, 0, fake_exnode(id), 100, expiry);

  // One nanosecond before the lease ends the copy is still live...
  bool live_before = false;
  sim_.after(expiry - 1, [&] { live_before = site.lookup(id).has_value(); });
  // ...and exactly at the expiry instant no caller may be served, whether
  // the timer or the lookup runs first within the timestamp.
  bool live_at = true;
  sim_.after(expiry, [&] { live_at = site.lookup(id).has_value(); });
  sim_.run();

  EXPECT_TRUE(live_before);
  EXPECT_FALSE(live_at);
  // Both co-sited agents heard about the death in the same virtual instant:
  // no window in which one still trusts the dead replica.
  EXPECT_EQ(seen_a, expiry);
  EXPECT_EQ(seen_b, expiry);
  EXPECT_EQ(total(obs_, "site.expirations"), 1u);
}

TEST_F(SiteCacheTest, RepublishSupersedesTheOlderExpiryTimer) {
  auto site_ptr = make();
  SiteCache& site = *site_ptr;
  const ViewSetId id{0, 5};
  int fanouts = 0;
  site.add_listener([&](const ViewSetId&, int) { ++fanouts; });

  site.publish(id, 0, fake_exnode(id), 100, kSecond);
  // A fresh staging renews the lease before the old timer fires; the stale
  // timer must not kill the new copy (generation check).
  site.publish(id, 0, fake_exnode(id), 100, 10 * kSecond);

  bool live_after_first_expiry = false;
  sim_.after(2 * kSecond, [&] { live_after_first_expiry = site.lookup(id).has_value(); });
  sim_.run();
  EXPECT_TRUE(live_after_first_expiry);
  EXPECT_EQ(fanouts, 1);  // only the real (second) expiry fanned out
  EXPECT_EQ(total(obs_, "site.expirations"), 1u);
}

TEST_F(SiteCacheTest, ExplicitInvalidateFansOutEvenWhenAbsent) {
  auto site_ptr = make();
  SiteCache& site = *site_ptr;
  int fanouts = 0;
  site.add_listener([&](const ViewSetId&, int) { ++fanouts; });
  // An agent saw a download from the shared copy fail after the index had
  // already dropped it: the co-sited wave must still run.
  site.invalidate({2, 2});
  EXPECT_EQ(fanouts, 1);
  EXPECT_EQ(total(obs_, "site.invalidations"), 1u);
}

TEST_F(SiteCacheTest, CapacityEvictionIsLruAndDoesNotFanOut) {
  SiteCacheConfig cfg;
  cfg.capacity_bytes = 300;
  auto site_ptr = make(cfg);
  SiteCache& site = *site_ptr;
  int fanouts = 0;
  site.add_listener([&](const ViewSetId&, int) { ++fanouts; });

  site.publish({0, 0}, 0, fake_exnode({0, 0}), 100, kHour);
  site.publish({0, 1}, 0, fake_exnode({0, 1}), 100, kHour);
  site.publish({0, 2}, 0, fake_exnode({0, 2}), 100, kHour);
  // Touch the oldest so {0,1} becomes the LRU victim.
  EXPECT_TRUE(site.lookup({0, 0}).has_value());
  site.publish({0, 3}, 0, fake_exnode({0, 3}), 100, kHour);

  EXPECT_FALSE(site.contains({0, 1}));
  EXPECT_TRUE(site.contains({0, 0}));
  EXPECT_TRUE(site.contains({0, 2}));
  EXPECT_TRUE(site.contains({0, 3}));
  EXPECT_EQ(total(obs_, "site.evictions"), 1u);
  // Eviction only forgets the index entry — the stager's replica and lease
  // are intact, so nobody's derived state may be dropped.
  EXPECT_EQ(fanouts, 0);
  EXPECT_EQ(gauge("site.bytes"), 300.0);
}

TEST_F(SiteCacheTest, RemovedListenerStopsReceivingFanouts) {
  auto site_ptr = make();
  SiteCache& site = *site_ptr;
  int fanouts = 0;
  const std::size_t token =
      site.add_listener([&](const ViewSetId&, int) { ++fanouts; });
  site.invalidate({1, 0});
  site.remove_listener(token);
  site.invalidate({1, 0});
  EXPECT_EQ(fanouts, 1);
}

// TSan target: agents on the simulator thread and pool workers may hit the
// index concurrently. Timers stay off — the simulator is not thread-safe,
// the index is.
TEST_F(SiteCacheTest, ConcurrentHammerKeepsTheIndexConsistent) {
  SiteCacheConfig cfg;
  cfg.capacity_bytes = 64 * 100;  // force concurrent evictions too
  cfg.expiry_timers = false;
  auto site_ptr = make(cfg);
  SiteCache& site = *site_ptr;
  std::atomic<int> fanouts{0};
  site.add_listener([&](const ViewSetId&, int) { ++fanouts; });

  constexpr int kThreads = 8;
  constexpr int kOps = 400;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&site, t] {
      for (int i = 0; i < kOps; ++i) {
        const ViewSetId id{t % 4, i % 8};
        switch (i % 5) {
          case 0:
            site.publish(id, 0, fake_exnode(id), 100, kHour);
            break;
          case 1:
            (void)site.lookup(id);
            break;
          case 2:
            site.invalidate(id);
            break;
          case 3:
            if (site.begin_restage(id, 0, [](bool, const exnode::ExNode&) {})) {
              site.finish_restage(id, 0, true, fake_exnode(id));
            }
            break;
          default:
            (void)site.contains(id);
            break;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(total(obs_, "site.hits") + total(obs_, "site.misses"),
            total(obs_, "site.lookups"));
  EXPECT_LE(site.size(), 32u);
  EXPECT_GE(gauge("site.bytes"), 0.0);
  EXPECT_LE(gauge("site.bytes"), 64.0 * 100.0);
  EXPECT_EQ(total(obs_, "site.restage_keys"), 32u);
  EXPECT_GT(fanouts.load(), 0);
}

// --- sharded DVS directory ----------------------------------------------------

class ShardedDvsTest : public ::testing::Test {
 protected:
  ShardedDvsTest()
      : net_(sim_),
        lattice_(small_config()),
        client_(net_.add_node("client")),
        dvs_node_(net_.add_node("dvs")) {
    net_.add_link(client_, dvs_node_, {1e9, 10 * kMillisecond, 0.0});
  }

  std::unique_ptr<DvsServer> make(DvsConfig cfg) {
    return std::make_unique<DvsServer>(sim_, net_, dvs_node_, lattice_, cfg, &obs_);
  }

  sim::Simulator sim_;
  sim::Network net_;
  obs::Context obs_;
  lightfield::SphericalLattice lattice_;
  sim::NodeId client_, dvs_node_;
};

TEST_F(ShardedDvsTest, EveryViewSetRoutesToItsShardAndIsFound) {
  DvsConfig cfg;
  cfg.leaf_capacity = 4;
  cfg.shards = 4;
  auto dvs = make(cfg);
  for (const ViewSetId& id : lattice_.all_view_sets()) {
    dvs->install(id, fake_exnode(id));
  }
  std::size_t found = 0;
  for (const ViewSetId& id : lattice_.all_view_sets()) {
    dvs->query_async(client_, id, false, [&](const DvsServer::QueryResult& r) {
      if (r.found) ++found;
    });
  }
  sim_.run();
  EXPECT_EQ(found, lattice_.view_set_count());
  // The per-shard counters exist only in sharded mode and partition the
  // totals exactly.
  EXPECT_EQ(obs_.metrics.counter_total("dvs.shard.queries"),
            lattice_.view_set_count());
  EXPECT_EQ(obs_.metrics.counter_total("dvs.shard.hits"),
            lattice_.view_set_count());
  // Leaves are sized leaf_capacity * shards, so the per-shard trees stay as
  // shallow as the single tree they replace.
  EXPECT_GE(dvs->tree_depth(), 1);
}

TEST_F(ShardedDvsTest, SameShardBurstSerializesDistinctShardsProceed) {
  DvsConfig cfg;
  cfg.leaf_capacity = 4;
  cfg.shards = 2;
  cfg.shard_service = 5 * kMillisecond;
  auto dvs = make(cfg);
  for (const ViewSetId& id : lattice_.all_view_sets()) {
    dvs->install(id, fake_exnode(id));
  }

  // Sort the grid by the same hash the router uses.
  std::vector<ViewSetId> shard0, shard1;
  for (const ViewSetId& id : lattice_.all_view_sets()) {
    (lightfield::ViewSetIdHash{}(id) % 2 == 0 ? shard0 : shard1).push_back(id);
  }
  ASSERT_GE(shard0.size(), 2u);
  ASSERT_GE(shard1.size(), 1u);

  // Two queries into the same shard plus one into the other, all at once.
  SimTime done_same_a = 0, done_same_b = 0, done_other = 0;
  dvs->query_async(client_, shard0[0], false,
                   [&](const DvsServer::QueryResult&) { done_same_a = sim_.now(); });
  dvs->query_async(client_, shard0[1], false,
                   [&](const DvsServer::QueryResult&) { done_same_b = sim_.now(); });
  dvs->query_async(client_, shard1[0], false,
                   [&](const DvsServer::QueryResult&) { done_other = sim_.now(); });
  sim_.run();

  // The same-shard loser queued for one service slot; the other shard never
  // waited at all.
  EXPECT_GE(done_same_b, done_same_a + cfg.shard_service);
  EXPECT_LT(done_other, done_same_b);
  EXPECT_EQ(obs_.metrics.counter_total("dvs.shard.waits"), 1u);
}

TEST_F(ShardedDvsTest, UncontendedShardServiceNeverWaits) {
  DvsConfig cfg;
  cfg.leaf_capacity = 4;
  cfg.shards = 4;
  cfg.shard_service = 5 * kMillisecond;
  auto dvs = make(cfg);
  const ViewSetId id{1, 3};
  dvs->install(id, fake_exnode(id));
  // Back-to-back (not concurrent) queries to one shard: the slot is free
  // again by the time the second arrives.
  bool first = false;
  dvs->query_async(client_, id, false,
                   [&](const DvsServer::QueryResult& r) { first = r.found; });
  sim_.run();
  bool second = false;
  dvs->query_async(client_, id, false,
                   [&](const DvsServer::QueryResult& r) { second = r.found; });
  sim_.run();
  EXPECT_TRUE(first);
  EXPECT_TRUE(second);
  EXPECT_EQ(obs_.metrics.counter_total("dvs.shard.waits"), 0u);
}

// --- co-sited agents over the full pipeline -----------------------------------

class CoSitedPipelineTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kResolution = 24;

  CoSitedPipelineTest()
      : net_(sim_),
        fabric_(sim_, net_, &obs_),
        lors_(sim_, net_, fabric_, 0x10f5, &obs_),
        source_(std::make_shared<lightfield::ProceduralSource>(small_config(kResolution))) {
    lan_switch_ = net_.add_node("lan-switch");
    const sim::LinkConfig lan{1e9, 50 * kMicrosecond, 0.0};
    for (int i = 0; i < 2; ++i) {
      const std::string name = "lan-" + std::to_string(i);
      const sim::NodeId node = net_.add_node(name);
      net_.add_link(node, lan_switch_, lan);
      add_depot(node, name);
      lan_depots_.push_back(name);
    }
    wan_router_ = net_.add_node("wan-router");
    net_.add_link(lan_switch_, wan_router_, {100e6, 35 * kMillisecond, 0.0});
    for (int i = 0; i < 2; ++i) {
      const std::string name = "ca-" + std::to_string(i);
      const sim::NodeId node = net_.add_node(name);
      net_.add_link(node, wan_router_, {1e9, kMillisecond, 0.0});
      add_depot(node, name);
      wan_depots_.push_back(name);
    }
    dvs_node_ = net_.add_node("dvs");
    net_.add_link(dvs_node_, wan_router_, {1e9, kMillisecond, 0.0});
    server_node_ = net_.add_node("server");
    net_.add_link(server_node_, wan_router_, {1e9, kMillisecond, 0.0});
    dvs_ = std::make_unique<DvsServer>(sim_, net_, dvs_node_, source_->lattice(),
                                       DvsConfig{}, &obs_);
    site_ = std::make_unique<SiteCache>(sim_, SiteCacheConfig{}, &obs_);
  }

  void add_depot(sim::NodeId node, const std::string& name) {
    ibp::DepotConfig cfg;
    cfg.capacity_bytes = 1ull << 30;
    cfg.max_alloc_bytes = 1ull << 28;
    fabric_.add_depot(node, name, cfg);
  }

  void publish_all() {
    for (const ViewSetId& id : source_->lattice().all_view_sets()) {
      Bytes compressed = source_->build_compressed(id);
      lors::UploadOptions up;
      up.depots = wan_depots_;
      up.block_bytes = 4096;
      bool ok = false;
      lors_.upload_async(server_node_, std::move(compressed), up,
                         [&](const lors::UploadResult& r) {
                           ok = r.status == lors::LorsStatus::kOk;
                           exnode::ExNode node = r.exnode;
                           dvs_->install(id, std::move(node));
                         });
      sim_.run();
      ASSERT_TRUE(ok);
    }
  }

  ClientAgent& add_agent(bool use_site, SimDuration lease = 24 * 3600 * kSecond,
                         bool restage_on_failure = true) {
    const sim::NodeId node =
        net_.add_node("agent-" + std::to_string(agents_.size()));
    net_.add_link(node, lan_switch_, {1e9, 50 * kMicrosecond, 0.0});
    ClientAgentConfig cfg;
    cfg.prefetch = false;
    cfg.staging = true;
    cfg.lan_depots = lan_depots_;
    cfg.staging_concurrency = 2;
    cfg.staging_lease = lease;
    cfg.restage_on_failure = restage_on_failure;
    if (use_site) cfg.site_cache = site_.get();
    agents_.push_back(std::make_unique<ClientAgent>(
        sim_, net_, fabric_, lors_, *dvs_, source_->lattice(), node, cfg, &obs_));
    return *agents_.back();
  }

  sim::Simulator sim_;
  obs::Context obs_;
  sim::Network net_;
  ibp::Fabric fabric_;
  lors::Lors lors_;
  std::shared_ptr<lightfield::ProceduralSource> source_;
  std::unique_ptr<DvsServer> dvs_;
  std::unique_ptr<SiteCache> site_;  // outlives the agents registered on it
  std::vector<std::unique_ptr<ClientAgent>> agents_;
  sim::NodeId lan_switch_, wan_router_, dvs_node_, server_node_;
  std::vector<std::string> lan_depots_, wan_depots_;
};

// The headline bugfix: N co-sited agents prestaging the same database must
// pull each view set across the WAN exactly once, not N times.
TEST_F(CoSitedPipelineTest, CoSitedAgentsStageEachViewSetExactlyOnce) {
  publish_all();
  for (int i = 0; i < 3; ++i) add_agent(/*use_site=*/true);
  for (auto& agent : agents_) agent->start_staging();
  // Bounded run: staging finishes within seconds; draining the full queue
  // would fire the 24 h lease-expiry timers and start a legitimate second
  // staging round, which is not what this test measures.
  sim_.run_until(600 * kSecond);

  const std::size_t sets = source_->lattice().view_set_count();
  std::uint64_t coalesced = 0, adopted = 0;
  for (auto& agent : agents_) {
    EXPECT_TRUE(agent->staging_complete());
    EXPECT_EQ(agent->counter("agent.staged"), sets);
    coalesced += agent->counter("agent.restage_coalesced");
    adopted += agent->counter("agent.site_adopted");
  }
  // Exactly one WAN staging per view set, site-wide...
  EXPECT_EQ(total(obs_, "site.restage_leaders"), sets);
  EXPECT_EQ(total(obs_, "site.restage_keys"), sets);
  // ...and the other two agents' work was entirely shared: every one of
  // their 2 * sets staging targets was adopted or joined, never refetched.
  EXPECT_EQ(coalesced + adopted, 2 * sets);
}

TEST_F(CoSitedPipelineTest, ControlAgentsWithoutTheSiteCacheStageNTimes) {
  publish_all();
  for (int i = 0; i < 2; ++i) add_agent(/*use_site=*/false);
  for (auto& agent : agents_) agent->start_staging();
  sim_.run();
  std::uint64_t wan_bytes = 0;
  for (auto& agent : agents_) {
    EXPECT_TRUE(agent->staging_complete());
    wan_bytes += agent->counter("agent.stage_wan_bytes");
    EXPECT_EQ(agent->counter("agent.restage_coalesced"), 0u);
    EXPECT_EQ(agent->counter("agent.site_adopted"), 0u);
  }
  EXPECT_EQ(total(obs_, "site.restage_leaders"), 0u);
  // Both agents paid the full database over the WAN: the stampede.
  EXPECT_EQ(wan_bytes % 2, 0u);
  EXPECT_GT(wan_bytes, 0u);
}

// Fault-injected regression for the restaged double-count: a download
// failure on the retry path used to unconditionally drop the staged copy
// and queue another restage, so one incident (staged replica dies, retry
// fails over to the WAN and fails again there) could count restaged more
// than once — and a WAN-side failure could destroy a healthy, freshly
// restaged LAN replica. Now only the attempt actually served from the
// staged/site copy drops it: with every depot dark the agent burns through
// its whole refetch budget, but only the FIRST failure — the one served
// from the staged copy — queues (and counts) a restage.
TEST_F(CoSitedPipelineTest, StagedReplicaDeathCountsExactlyOneRestage) {
  publish_all();
  ClientAgent& agent = add_agent(/*use_site=*/true);
  agent.start_staging();
  // Bounded: stop before the 24 h staging-lease expiry wave AND stay inside
  // the 1 h source lease on the WAN replicas, which the refetches depend on.
  sim_.run_until(300 * kSecond);
  ASSERT_TRUE(agent.staging_complete());
  ASSERT_EQ(agent.counter("agent.restaged"), 0u);
  const std::size_t sets = source_->lattice().view_set_count();
  ASSERT_EQ(total(obs_, "site.restage_leaders"), sets);

  // Every depot dark: the staged attempt fails, and so does each WAN-side
  // refetch after it. Heal long after the incident has fully played out.
  for (const std::string& name : lan_depots_) fabric_.set_offline(name, true);
  for (const std::string& name : wan_depots_) fabric_.set_offline(name, true);
  sim_.after(300 * kSecond, [&] {
    for (const std::string& name : lan_depots_) fabric_.set_offline(name, false);
    for (const std::string& name : wan_depots_) fabric_.set_offline(name, false);
  });

  const ViewSetId id{2, 6};
  bool done = false;
  Bytes received = {9};
  agent.request_view_set(id, [&](const ClientAgent::Delivery& d) {
    done = true;
    received = *d.payload;
  });
  sim_.run_until(1000 * kSecond);  // covers the incident and the +300 s heal

  ASSERT_TRUE(done);
  EXPECT_TRUE(received.empty());  // the incident itself is a failed access
  // The refetch budget was spent: several failures, ONE counted restage —
  // only the attempt served from the staged copy dropped it; the WAN-side
  // retries must not count again.
  EXPECT_EQ(agent.counter("agent.refetches"), 2u);
  EXPECT_EQ(agent.counter("agent.restaged"), 1u);
  // The queued restage led exactly one single-flight attempt (it failed —
  // the depots were still dark — but it was one flight, not a stampede).
  EXPECT_EQ(total(obs_, "site.restage_leaders"), sets + 1);
  EXPECT_GE(agent.counter("agent.staging_failures"), 1u);

  // After the heal the same view set is served cleanly over the WAN.
  bool delivered = false;
  agent.request_view_set(id, [&](const ClientAgent::Delivery& d) {
    delivered = !d.payload->empty();
    EXPECT_EQ(d.cls, AccessClass::kWan);
  });
  sim_.run_until(1500 * kSecond);  // still inside the 1 h source lease
  EXPECT_TRUE(delivered);
  EXPECT_EQ(agent.counter("agent.restaged"), 1u);  // still the one incident
}

// Lease-expiry wave across a site: when the shared lease runs out, every
// co-sited agent must drop the copy in the same virtual instant — no agent
// may still trust the dead replica afterwards. Restaging stays off so the
// wave is observable as a terminal state (with it on, the site would heal
// itself and re-publish fresh leases forever).
TEST_F(CoSitedPipelineTest, LeaseExpiryWaveDropsEveryAgentAtomically) {
  publish_all();
  const SimDuration lease = 600 * kSecond;  // safely after staging completes
  add_agent(/*use_site=*/true, lease, /*restage_on_failure=*/false);
  add_agent(/*use_site=*/true, lease, /*restage_on_failure=*/false);
  for (auto& agent : agents_) agent->start_staging();
  sim_.run();  // staging, then every expiry timer, then quiescence

  const std::size_t sets = source_->lattice().view_set_count();
  for (auto& agent : agents_) {
    ASSERT_TRUE(agent->staging_complete());
    // The wave reached this agent for every staged view set: nothing is
    // still trusted after its lease ended.
    for (const ViewSetId& id : source_->lattice().all_view_sets()) {
      EXPECT_FALSE(agent->is_staged(id));
    }
    EXPECT_EQ(agent->counter("agent.restaged"), 0u);  // restage off: pure wave
  }
  EXPECT_EQ(site_->size(), 0u);
  // One shared entry per view set, each expiring exactly once site-wide.
  EXPECT_EQ(total(obs_, "site.expirations"), sets);
}

// --- composed co-sited crowd scenario -----------------------------------------

TEST(CoSitedScenario, SiteCacheCollapsesTheRestageStampede) {
  const session::ScenarioResult site =
      session::run_scenario(session::co_sited_crowd(/*site=*/true, 20));
  const session::ScenarioResult control =
      session::run_scenario(session::co_sited_crowd(/*site=*/false, 20));

  EXPECT_EQ(site.failed_accesses, 0u);
  EXPECT_EQ(control.failed_accesses, 0u);
  // Exactly one WAN staging per hot view set with the cooperative cache...
  EXPECT_GT(total(site.obs, "site.restage_keys"), 0u);
  EXPECT_EQ(total(site.obs, "site.restage_leaders"), total(site.obs, "site.restage_keys"));
  EXPECT_GT(total(site.obs, "agent.restage_coalesced"), 0u);
  EXPECT_GT(total(site.obs, "agent.site_adopted"), 0u);
  // ...which buys strictly fewer WAN bytes than everyone restaging alone.
  EXPECT_LT(total(site.obs, "agent.stage_wan_bytes"),
            total(control.obs, "agent.stage_wan_bytes"));
  // The control never touches the site machinery.
  EXPECT_EQ(total(control.obs, "agent.restage_coalesced"), 0u);
  EXPECT_EQ(total(control.obs, "site.restage_leaders"), 0u);
}

TEST(CoSitedScenario, CoSitedRunsAreDeterministic) {
  const session::ScenarioResult a =
      session::run_scenario(session::co_sited_crowd(/*site=*/true, 10));
  const session::ScenarioResult b =
      session::run_scenario(session::co_sited_crowd(/*site=*/true, 10));
  EXPECT_EQ(a.mean_total_s, b.mean_total_s);
  EXPECT_EQ(total(a.obs, "agent.stage_wan_bytes"), total(b.obs, "agent.stage_wan_bytes"));
  EXPECT_EQ(total(a.obs, "agent.restage_coalesced"),
            total(b.obs, "agent.restage_coalesced"));
  EXPECT_EQ(total(a.obs, "site.restage_leaders"), total(b.obs, "site.restage_leaders"));
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.duration, b.duration);
}

}  // namespace
}  // namespace lon::streaming
