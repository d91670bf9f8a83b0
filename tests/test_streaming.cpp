// Unit and integration tests for the streaming layer: the view-set cache,
// the hierarchical DVS, the server agent's LIFO generator, and the client /
// client-agent pipeline including prefetch and aggressive prestaging.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>

#include "lightfield/procedural.hpp"
#include "streaming/cache.hpp"
#include "streaming/client.hpp"
#include "streaming/client_agent.hpp"
#include "streaming/dvs.hpp"
#include "streaming/server_agent.hpp"

namespace lon::streaming {
namespace {

using lightfield::ViewSetId;

lightfield::LatticeConfig small_config(std::size_t resolution = 24) {
  lightfield::LatticeConfig cfg;
  cfg.angular_step_deg = 15.0;  // 12 x 24 lattice
  cfg.view_set_span = 3;        // 4 x 8 = 32 view sets
  cfg.view_resolution = resolution;
  return cfg;
}

// --- cache -------------------------------------------------------------------

TEST(Cache, PutGetRoundTrip) {
  ViewSetCache cache(1000);
  cache.put({1, 2}, Bytes{1, 2, 3});
  ASSERT_NE(cache.get({1, 2}), nullptr);
  EXPECT_EQ(*cache.get({1, 2}), (Bytes{1, 2, 3}));
  EXPECT_EQ(cache.get({9, 9}), nullptr);
  EXPECT_EQ(cache.bytes_used(), 3u);
}

TEST(Cache, EvictsLeastRecentlyUsed) {
  ViewSetCache cache(100);
  cache.put({0, 0}, Bytes(40));
  cache.put({0, 1}, Bytes(40));
  ASSERT_NE(cache.get({0, 0}), nullptr);  // touch -> {0,1} becomes LRU
  cache.put({0, 2}, Bytes(40));           // must evict {0,1}
  EXPECT_TRUE(cache.contains({0, 0}));
  EXPECT_FALSE(cache.contains({0, 1}));
  EXPECT_TRUE(cache.contains({0, 2}));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(Cache, ReplacementUpdatesBytes) {
  ViewSetCache cache(100);
  cache.put({0, 0}, Bytes(60));
  cache.put({0, 0}, Bytes(10));
  EXPECT_EQ(cache.bytes_used(), 10u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(Cache, OversizedItemsAreNotCached) {
  ViewSetCache cache(100);
  cache.put({0, 0}, Bytes(50));
  cache.put({0, 1}, Bytes(101));
  EXPECT_FALSE(cache.contains({0, 1}));
  EXPECT_TRUE(cache.contains({0, 0}));  // nothing was evicted for it
}

TEST(Cache, BudgetIsRespectedUnderChurn) {
  ViewSetCache cache(1000);
  for (int i = 0; i < 100; ++i) {
    cache.put({0, i}, Bytes(90));
    ASSERT_LE(cache.bytes_used(), 1000u);
  }
  EXPECT_LE(cache.size(), 11u);
}

TEST(Cache, SharedPutAliasesPayloadWithoutCopy) {
  // Regression: finish_fetch used to deep-copy every delivered payload into
  // the cache. The shared-ownership put must alias the caller's buffer.
  ViewSetCache cache(100);
  auto payload = std::make_shared<const Bytes>(Bytes(40, 7));
  ASSERT_TRUE(cache.put({0, 0}, payload));
  EXPECT_EQ(payload.use_count(), 2);  // cache + caller, no private copy
  EXPECT_EQ(cache.get({0, 0}).get(), payload.get());
  EXPECT_EQ(cache.bytes_used(), 40u);
  cache.put({0, 1}, Bytes(80));  // evicts {0,0}
  EXPECT_FALSE(cache.contains({0, 0}));
  EXPECT_EQ(cache.bytes_used(), 80u);
  EXPECT_EQ(payload.use_count(), 1);  // eviction released the cache's ref
  EXPECT_EQ(payload->size(), 40u);    // caller's bytes untouched
}

TEST(Cache, FirstDemandHitOnPrefetchedEntryIsCountedOnce) {
  ViewSetCache cache(100);
  cache.put({0, 0}, Bytes(10), /*prefetched=*/true);
  bool first = false;
  // A non-demand lookup (the prefetcher peeking) claims no usefulness.
  EXPECT_NE(cache.get({0, 0}, &first, /*demand=*/false), nullptr);
  EXPECT_FALSE(first);
  EXPECT_EQ(cache.prefetch_hits(), 0u);
  EXPECT_NE(cache.get({0, 0}, &first, /*demand=*/true), nullptr);
  EXPECT_TRUE(first);
  EXPECT_NE(cache.get({0, 0}, &first, /*demand=*/true), nullptr);
  EXPECT_FALSE(first);  // only the first demand hit is the useful-prefetch signal
  EXPECT_EQ(cache.prefetch_hits(), 1u);
}

// --- DVS ----------------------------------------------------------------------

class DvsTest : public ::testing::Test {
 protected:
  DvsTest()
      : net_(sim_),
        lattice_(small_config()),
        client_(net_.add_node("client")),
        dvs_node_(net_.add_node("dvs")) {
    net_.add_link(client_, dvs_node_, {1e9, 10 * kMillisecond, 0.0});
    DvsConfig cfg;
    cfg.leaf_capacity = 4;  // force a multi-level tree over 32 view sets
    dvs_ = std::make_unique<DvsServer>(sim_, net_, dvs_node_, lattice_, cfg, &obs_);
  }

  std::uint64_t count(const std::string& name) const {
    return obs_.metrics.counter_total(name);
  }

  exnode::ExNode fake_exnode(const ViewSetId& id) {
    exnode::ExNode node(100);
    exnode::Extent extent;
    extent.offset = 0;
    extent.length = 100;
    exnode::Replica rep;
    rep.read.depot = "d";
    rep.read.allocation = static_cast<std::uint64_t>(id.row * 100 + id.col);
    rep.read.key = 7;
    extent.replicas.push_back(rep);
    node.add_extent(extent);
    return node;
  }

  sim::Simulator sim_;
  obs::Context obs_;
  sim::Network net_;
  lightfield::SphericalLattice lattice_;
  sim::NodeId client_, dvs_node_;
  std::unique_ptr<DvsServer> dvs_;
};

TEST_F(DvsTest, TreeIsActuallyHierarchical) {
  // 32 view sets over leaves of <= 4 entries: depth must exceed 2.
  EXPECT_GE(dvs_->tree_depth(), 3);
}

TEST_F(DvsTest, InstallThenQueryFinds) {
  dvs_->install({1, 3}, fake_exnode({1, 3}));
  EXPECT_TRUE(dvs_->knows({1, 3}));
  std::optional<DvsServer::QueryResult> result;
  dvs_->query_async(client_, {1, 3}, false,
                    [&](const DvsServer::QueryResult& r) { result = r; });
  sim_.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->found);
  EXPECT_EQ(result->levels, dvs_->tree_depth());
  EXPECT_EQ(result->exnode.extents().size(), 1u);
  EXPECT_EQ(count("dvs.hits"), 1u);
}

TEST_F(DvsTest, QueryChargesRoundTripAndLevels) {
  dvs_->install({0, 0}, fake_exnode({0, 0}));
  SimTime done = 0;
  dvs_->query_async(client_, {0, 0}, false,
                    [&](const DvsServer::QueryResult&) { done = sim_.now(); });
  sim_.run();
  EXPECT_GE(done, 20 * kMillisecond);               // the RTT
  EXPECT_LT(done, 20 * kMillisecond + 10 * kMillisecond);  // plus small lookups
}

TEST_F(DvsTest, MissWithoutGeneratorReportsNotFound) {
  std::optional<DvsServer::QueryResult> result;
  dvs_->query_async(client_, {2, 2}, true,
                    [&](const DvsServer::QueryResult& r) { result = r; });
  sim_.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->found);
  EXPECT_EQ(count("dvs.misses"), 1u);
}

TEST_F(DvsTest, OutOfGridQueriesFailCleanly) {
  std::optional<DvsServer::QueryResult> result;
  dvs_->query_async(client_, {99, 99}, false,
                    [&](const DvsServer::QueryResult& r) { result = r; });
  sim_.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->found);
  EXPECT_THROW(dvs_->install({99, 99}, exnode::ExNode{}), std::out_of_range);
}

TEST_F(DvsTest, MissForwardsToServerAgentTable) {
  // A fake generator: returns a canned exNode after a delay.
  class FakeGenerator : public GeneratorService {
   public:
    FakeGenerator(sim::Simulator& sim, exnode::ExNode node)
        : sim_(sim), node_(std::move(node)) {}
    void generate_async(const ViewSetId&, GenerateCallback cb) override {
      ++calls;
      sim_.after(kSecond, [cb, node = node_] { cb(true, node); });
    }
    int calls = 0;

   private:
    sim::Simulator& sim_;
    exnode::ExNode node_;
  };
  FakeGenerator generator(sim_, fake_exnode({2, 5}));
  dvs_->register_server_agent(&generator);

  std::optional<DvsServer::QueryResult> result;
  dvs_->query_async(client_, {2, 5}, true,
                    [&](const DvsServer::QueryResult& r) { result = r; });
  sim_.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->found);
  EXPECT_EQ(generator.calls, 1);
  EXPECT_EQ(count("dvs.forwarded"), 1u);
  // The exNode table was updated: the next query is a plain hit.
  EXPECT_TRUE(dvs_->knows({2, 5}));
}

TEST_F(DvsTest, FailedGenerationAnswersAMiss) {
  // A generator whose render or upload failed: it calls back without an
  // exNode, and the DVS must answer the forwarded query as a miss and leave
  // its exNode table untouched.
  class FailingGenerator : public GeneratorService {
   public:
    explicit FailingGenerator(sim::Simulator& sim) : sim_(sim) {}
    void generate_async(const ViewSetId&, GenerateCallback cb) override {
      sim_.after(kSecond, [cb] { cb(false, exnode::ExNode{}); });
    }

   private:
    sim::Simulator& sim_;
  };
  FailingGenerator generator(sim_);
  dvs_->register_server_agent(&generator);

  std::optional<DvsServer::QueryResult> result;
  dvs_->query_async(client_, {2, 5}, true,
                    [&](const DvsServer::QueryResult& r) { result = r; });
  sim_.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->found);
  EXPECT_EQ(count("dvs.forwarded"), 1u);
  EXPECT_EQ(count("dvs.misses"), 1u);
  EXPECT_FALSE(dvs_->knows({2, 5}));
}

TEST_F(DvsTest, UpdateAsyncInstallsRemotely) {
  bool done = false;
  dvs_->update_async(client_, {3, 1}, fake_exnode({3, 1}), [&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(dvs_->knows({3, 1}));
  EXPECT_GE(count("dvs.updates"), 1u);
}

// --- full pipeline fixture -------------------------------------------------------

class PipelineTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kResolution = 24;

  PipelineTest()
      : net_(sim_),
        fabric_(sim_, net_),
        lors_(sim_, net_, fabric_),
        source_(std::make_shared<lightfield::ProceduralSource>(small_config(kResolution))) {
    // LAN star.
    lan_switch_ = net_.add_node("lan-switch");
    client_node_ = net_.add_node("client");
    agent_node_ = net_.add_node("agent");
    const sim::LinkConfig lan{1e9, 50 * kMicrosecond, 0.0};
    net_.add_link(client_node_, lan_switch_, lan);
    net_.add_link(agent_node_, lan_switch_, lan);
    for (int i = 0; i < 2; ++i) {
      const std::string name = "lan-" + std::to_string(i);
      const sim::NodeId node = net_.add_node(name);
      net_.add_link(node, lan_switch_, lan);
      add_depot(node, name);
      lan_depots_.push_back(name);
    }
    // WAN side.
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

    dvs_ = std::make_unique<DvsServer>(sim_, net_, dvs_node_, source_->lattice());
  }

  void add_depot(sim::NodeId node, const std::string& name) {
    ibp::DepotConfig cfg;
    cfg.capacity_bytes = 1ull << 30;
    cfg.max_alloc_bytes = 1ull << 28;
    fabric_.add_depot(node, name, cfg);
  }

  /// Uploads one real view set to the WAN depots and registers its exNode.
  void publish(const ViewSetId& id) { publish_payload(id, source_->build_compressed(id)); }

  /// Uploads `compressed` to the WAN depots and registers it under `id`.
  void publish_payload(const ViewSetId& id, Bytes compressed) {
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

  void publish_all() {
    for (const auto& id : source_->lattice().all_view_sets()) publish(id);
  }

  std::unique_ptr<ClientAgent> make_agent(bool staging, bool prefetch = true) {
    ClientAgentConfig cfg;
    cfg.prefetch = prefetch;
    cfg.staging = staging;
    cfg.lan_depots = lan_depots_;
    cfg.staging_concurrency = 2;
    return std::make_unique<ClientAgent>(sim_, net_, fabric_, lors_, *dvs_,
                                         source_->lattice(), agent_node_, cfg);
  }

  sim::Simulator sim_;
  sim::Network net_;
  ibp::Fabric fabric_;
  lors::Lors lors_;
  std::shared_ptr<lightfield::ProceduralSource> source_;
  std::unique_ptr<DvsServer> dvs_;
  sim::NodeId lan_switch_, client_node_, agent_node_, wan_router_, dvs_node_, server_node_;
  std::vector<std::string> lan_depots_, wan_depots_;
};

TEST_F(PipelineTest, WanFetchDeliversCorrectBytes) {
  const ViewSetId id{1, 2};
  publish(id);
  auto agent = make_agent(false, false);

  std::optional<AccessClass> cls;
  Bytes received;
  SimDuration comm = 0;
  agent->request_view_set(id, [&](const ClientAgent::Delivery& d) {
    received = *d.payload;
    cls = d.cls;
    comm = d.comm_latency;
  });
  sim_.run();
  ASSERT_TRUE(cls.has_value());
  EXPECT_EQ(*cls, AccessClass::kWan);
  EXPECT_GT(to_seconds(comm), 0.07);  // at least the WAN RTT
  // The bytes decompress to the exact view set.
  const auto vs = lightfield::ViewSet::decompress(received);
  EXPECT_EQ(vs, source_->build(id));
}

TEST_F(PipelineTest, SecondRequestIsAHit) {
  const ViewSetId id{1, 2};
  publish(id);
  auto agent = make_agent(false, false);
  agent->request_view_set(id, [](const ClientAgent::Delivery&) {});
  sim_.run();

  std::optional<AccessClass> cls;
  SimDuration comm = 0;
  agent->request_view_set(id, [&](const ClientAgent::Delivery& d) {
    EXPECT_FALSE(d.payload->empty());
    cls = d.cls;
    comm = d.comm_latency;
  });
  sim_.run();
  EXPECT_EQ(cls, AccessClass::kAgentHit);
  EXPECT_EQ(comm, kAgentHitLatency);
  EXPECT_EQ(agent->counter("agent.hits"), 1u);
}

TEST_F(PipelineTest, CounterLookupRejectsUnregisteredNames) {
  auto agent = make_agent(false, false);
  EXPECT_EQ(agent->counter("agent.requests"), 0u);
  EXPECT_EQ(agent->counter("prefetch.useful"), 0u);
  EXPECT_THROW((void)agent->counter("agent.no_such"), std::invalid_argument);
}

TEST_F(PipelineTest, ColdDemandFetchCopiesTheCompressedPayloadExactlyOnce) {
  // Zero-copy regression gate: a cold WAN fetch is allowed exactly one
  // metered pass over the compressed payload — the scatter-gather landing of
  // depot blocks into the pooled slab. Assembly, verification, decode and
  // delivery must not add passes.
  const ViewSetId id{1, 2};
  publish(id);
  const std::size_t compressed_size = source_->build_compressed(id).size();
  auto agent = make_agent(false, false);
  ASSERT_EQ(agent->counter("agent.payload_copy_bytes"), 0u);

  bool done = false;
  agent->request_view_set(id, [&](const ClientAgent::Delivery& d) {
    EXPECT_FALSE(d.payload->empty());
    done = true;
  });
  sim_.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(agent->counter("agent.payload_copy_bytes"), compressed_size);
}

TEST_F(PipelineTest, WarmCacheHitCopiesZeroPayloadBytes) {
  const ViewSetId id{1, 2};
  publish(id);
  auto agent = make_agent(false, false);
  agent->request_view_set(id, [](const ClientAgent::Delivery&) {});
  sim_.run();
  const std::uint64_t after_cold = agent->counter("agent.payload_copy_bytes");
  EXPECT_GT(after_cold, 0u);

  std::optional<AccessClass> cls;
  agent->request_view_set(id, [&](const ClientAgent::Delivery& d) {
    EXPECT_FALSE(d.payload->empty());
    cls = d.cls;
  });
  sim_.run();
  EXPECT_EQ(cls, AccessClass::kAgentHit);
  // The hit serves the cached slab by reference: not one byte copied.
  EXPECT_EQ(agent->counter("agent.payload_copy_bytes"), after_cold);
}

TEST_F(PipelineTest, AccessRecordsCarryPerAccessCopiedBytes) {
  publish_all();
  auto agent = make_agent(false, false);
  Client client(sim_, net_, small_config(kResolution), client_node_, *agent, {});

  const auto& lattice = source_->lattice();
  bool ready = false;
  client.set_view(lattice.view_set_center({1, 3}), [&](bool ok) { ready = ok; });
  sim_.run();
  ASSERT_TRUE(ready);
  ASSERT_EQ(client.accesses().size(), 1u);
  const AccessRecord& cold = client.accesses().front();
  EXPECT_EQ(cold.cls, AccessClass::kWan);
  EXPECT_EQ(cold.copied_bytes, cold.compressed_bytes);
  EXPECT_EQ(cold.copied_bytes, agent->counter("agent.payload_copy_bytes"));

  // A different client instance re-requesting hits the agent cache: the
  // access record shows a zero-copy serve.
  Client second(sim_, net_, small_config(kResolution), client_node_, *agent, {});
  bool again = false;
  second.set_view(lattice.view_set_center({1, 3}), [&](bool ok) { again = ok; });
  sim_.run();
  ASSERT_TRUE(again);
  ASSERT_EQ(second.accesses().size(), 1u);
  EXPECT_EQ(second.accesses().front().cls, AccessClass::kAgentHit);
  EXPECT_EQ(second.accesses().front().copied_bytes, 0u);
}

TEST_F(PipelineTest, CursorTriggersQuadrantPrefetch) {
  publish_all();
  auto agent = make_agent(false, true);
  const auto& lattice = source_->lattice();

  // Cursor nudged into the lower-right region of view set (1,3) — small
  // enough to stay inside the set's angular window.
  const Spherical center = lattice.view_set_center({1, 3});
  const double nudge = 0.4 * deg2rad(lattice.config().angular_step_deg);
  const Spherical dir{center.theta + nudge, center.phi + nudge};
  ASSERT_EQ(lattice.view_set_of(dir), (ViewSetId{1, 3}));
  agent->notify_cursor(dir);
  sim_.run();

  EXPECT_EQ(agent->counter("agent.prefetches"), 3u);
  const auto targets = lattice.prefetch_targets({1, 3}, lattice.quadrant_of(dir));
  for (const auto& target : targets) {
    EXPECT_TRUE(agent->cache().contains(target))
        << "expected prefetch of " << target.key();
  }
}

TEST_F(PipelineTest, DemandJoinsInflightPrefetch) {
  publish_all();
  auto agent = make_agent(false, true);
  const auto& lattice = source_->lattice();
  const Spherical center = lattice.view_set_center({1, 3});
  const double nudge = 0.4 * deg2rad(lattice.config().angular_step_deg);
  const Spherical dir{center.theta + nudge, center.phi + nudge};
  agent->notify_cursor(dir);
  sim_.run_until(sim_.now() + 30 * kMillisecond);  // prefetch in flight, not done

  const auto targets = lattice.prefetch_targets({1, 3}, lattice.quadrant_of(dir));
  std::optional<AccessClass> cls;
  SimDuration comm = 0;
  agent->request_view_set(targets[0], [&](const ClientAgent::Delivery& d) {
    EXPECT_FALSE(d.payload->empty());
    cls = d.cls;
    comm = d.comm_latency;
  });
  sim_.run();
  ASSERT_TRUE(cls.has_value());
  EXPECT_EQ(*cls, AccessClass::kWan);  // data still came over the WAN...
  // ...but part of the latency was already hidden by the prefetch head start.
  EXPECT_GT(agent->counter("agent.prefetches"), 0u);
  EXPECT_LT(comm, 2 * kSecond);
}

TEST_F(PipelineTest, StagingLocalizesTheWholeDatabase) {
  publish_all();
  auto agent = make_agent(true, false);
  agent->start_staging();
  sim_.run();
  EXPECT_TRUE(agent->staging_complete());
  EXPECT_EQ(agent->counter("agent.staged"), source_->lattice().view_set_count());
  EXPECT_EQ(agent->counter("agent.staging_failures"), 0u);
  // Every LAN depot holds allocations now.
  for (const auto& name : lan_depots_) {
    EXPECT_GT(fabric_.find_depot(name)->allocation_count(), 0u);
  }
}

TEST_F(PipelineTest, StagedAccessIsLanClassAndFast) {
  publish_all();
  auto agent = make_agent(true, false);
  agent->start_staging();
  sim_.run();
  ASSERT_TRUE(agent->staging_complete());

  const ViewSetId id{2, 6};
  std::optional<AccessClass> cls;
  SimDuration comm = 0;
  agent->request_view_set(id, [&](const ClientAgent::Delivery& d) {
    EXPECT_FALSE(d.payload->empty());
    cls = d.cls;
    comm = d.comm_latency;
  });
  sim_.run();
  EXPECT_EQ(cls, AccessClass::kLanDepot);
  // The figure-12 LAN-depot decade: 1e-2..1e-1 s.
  EXPECT_LT(to_seconds(comm), 0.2);
  EXPECT_GT(to_seconds(comm), 0.0005);
}

TEST_F(PipelineTest, StagingOrderFollowsCursorProximity) {
  publish_all();
  auto agent = make_agent(true, false);
  const auto& lattice = source_->lattice();
  const Spherical cursor = lattice.view_set_center({1, 3});
  agent->notify_cursor(cursor);
  agent->start_staging();
  // Let a handful of staging operations finish, then check that what got
  // staged is angularly close to the cursor.
  sim_.run_until(sim_.now() + 3 * kSecond);
  ASSERT_GT(agent->counter("agent.staged"), 0u);
  ASSERT_FALSE(agent->staging_complete());
  const double far_distance = lattice.view_set_distance({1, 3}, {2, 7});
  std::size_t staged_near = 0, staged_far = 0;
  for (const auto& id : lattice.all_view_sets()) {
    if (!agent->is_staged(id)) continue;
    if (lattice.view_set_distance(id, {1, 3}) < far_distance / 2) {
      ++staged_near;
    } else {
      ++staged_far;
    }
  }
  EXPECT_GT(staged_near, staged_far);
}

TEST_F(PipelineTest, ClientDecompressesAndRecordsAccesses) {
  publish_all();
  auto agent = make_agent(false, false);
  ClientConfig client_cfg;
  client_cfg.display_resolution = kResolution;
  client_cfg.timing = ClientConfig::Timing::kModeled;
  client_cfg.decompress_bytes_per_sec = 30e6;
  Client client(sim_, net_, small_config(kResolution), client_node_, *agent, client_cfg);

  const auto& lattice = source_->lattice();
  const Spherical dir = lattice.view_set_center({1, 3});
  bool ready = false;
  client.set_view(dir, [&](bool ok) { ready = ok; });
  sim_.run();
  ASSERT_TRUE(ready);
  ASSERT_EQ(client.accesses().size(), 1u);
  const AccessRecord& record = client.accesses().front();
  EXPECT_EQ(record.cls, AccessClass::kWan);
  EXPECT_GT(record.decompress_time, 0);
  EXPECT_GT(record.total(), record.comm_latency);
  EXPECT_GT(record.compressed_bytes, 0u);

  // The view is now renderable without any further access.
  bool instant = false;
  client.set_view(dir, [&](bool ok) { instant = ok; });
  EXPECT_TRUE(instant);
  EXPECT_EQ(client.accesses().size(), 1u);

  const auto frame = client.render_frame();
  EXPECT_EQ(frame.width(), kResolution);
}

TEST_F(PipelineTest, ClientEvictsBeyondLocalBudget) {
  publish_all();
  auto agent = make_agent(false, false);
  ClientConfig client_cfg;
  client_cfg.keep_view_sets = 1;
  Client client(sim_, net_, small_config(kResolution), client_node_, *agent, client_cfg);

  const auto& lattice = source_->lattice();
  bool ready = false;
  client.set_view(lattice.view_set_center({1, 3}), [&](bool ok) { ready = ok; });
  sim_.run();
  ASSERT_TRUE(ready);
  client.set_view(lattice.view_set_center({2, 5}), [&](bool ok) { ready = ok; });
  sim_.run();
  ASSERT_TRUE(ready);
  EXPECT_EQ(client.renderer().loaded_count(), 1u);
  // Returning to the first view set costs another access (agent hit).
  client.set_view(lattice.view_set_center({1, 3}), [](bool) {});
  sim_.run();
  EXPECT_EQ(client.accesses().size(), 3u);
  EXPECT_EQ(client.accesses().back().cls, AccessClass::kAgentHit);
}

TEST_F(PipelineTest, ClientFrameFallsBackToNearestSampleAtWindowEdge) {
  publish_all();
  auto agent = make_agent(false, false);
  ClientConfig client_cfg;
  client_cfg.display_resolution = kResolution;
  Client client(sim_, net_, small_config(kResolution), client_node_, *agent, client_cfg);

  const auto& lattice = source_->lattice();
  // A direction whose interpolation corners straddle two view sets: with
  // only one set resident the client must still produce a frame (snapped).
  const Spherical left = lattice.sample_direction(4, 8);
  const Spherical right = lattice.sample_direction(4, 9);
  const Spherical edge{left.theta, (left.phi + right.phi) / 2.0};
  bool ready = false;
  client.set_view(edge, [&](bool ok) { ready = ok; });
  sim_.run();
  ASSERT_TRUE(ready);
  EXPECT_FALSE(client.renderer().can_render(edge));  // neighbour not loaded
  const auto frame = client.render_frame();
  // The snapped frame shows real imagery, not black.
  std::uint64_t total = 0;
  for (const auto byte : frame.bytes()) total += byte;
  EXPECT_GT(total, 0u);
}

TEST_F(PipelineTest, ClientRejectsAPayloadForAnotherViewSet) {
  // The DVS names {0,1}'s bytes under {1,3}. The client must not install
  // {0,1} and report {1,3} ready: that set would never be renderable, and
  // every later visit would fetch again.
  publish_payload({1, 3}, source_->build_compressed({0, 1}));
  auto agent = make_agent(false, false);
  obs::Context obs;
  obs.trace.set_enabled(true);
  Client client(sim_, net_, small_config(kResolution), client_node_, *agent, {}, &obs);

  const Spherical dir = source_->lattice().view_set_center({1, 3});
  for (int visit = 0; visit < 2; ++visit) {
    std::optional<bool> ready;
    client.set_view(dir, [&](bool ok) { ready = ok; });
    sim_.run();
    ASSERT_TRUE(ready.has_value());
    EXPECT_FALSE(*ready);
    EXPECT_EQ(client.renderer().loaded_count(), 0u);
  }
  EXPECT_EQ(client.accesses().size(), 2u);
  const std::pair<std::string, std::string> decode_error{"outcome", "decode_error"};
  std::size_t rejected = 0;
  for (const obs::Span& span : obs.trace.spans()) {
    if (span.name != "client.request") continue;
    EXPECT_NE(std::find(span.args.begin(), span.args.end(), decode_error), span.args.end());
    ++rejected;
  }
  EXPECT_EQ(rejected, 2u);
}

TEST_F(PipelineTest, ClientRejectsAPayloadOfAnotherSpan) {
  // The right id on a lattice with 2 x 2 view sets: installed as-is, its
  // block is too small for the client's 3 x 3 lattice and render_frame()
  // would index past it.
  lightfield::LatticeConfig narrow = small_config(kResolution);
  narrow.view_set_span = 2;
  publish_payload({1, 3}, lightfield::ProceduralSource(narrow).build_compressed({1, 3}));
  auto agent = make_agent(false, false);
  ClientConfig client_cfg;
  client_cfg.display_resolution = kResolution;
  Client client(sim_, net_, small_config(kResolution), client_node_, *agent, client_cfg);

  std::optional<bool> ready;
  client.set_view(source_->lattice().view_set_center({1, 3}),
                  [&](bool ok) { ready = ok; });
  sim_.run();
  ASSERT_TRUE(ready.has_value());
  EXPECT_FALSE(*ready);
  EXPECT_EQ(client.renderer().loaded_count(), 0u);
  EXPECT_NO_THROW((void)client.render_frame());
}

TEST_F(PipelineTest, AgentCacheEvictionKeepsSessionCorrect) {
  publish_all();
  // A cache that holds only ~2 compressed view sets forces constant
  // eviction; every delivery must still decompress to the right content.
  ClientAgentConfig cfg;
  cfg.prefetch = false;
  cfg.cache_bytes = 2 * source_->build_compressed({0, 0}).size() + 64;
  auto agent = std::make_unique<ClientAgent>(sim_, net_, fabric_, lors_, *dvs_,
                                             source_->lattice(), agent_node_, cfg);
  const std::vector<ViewSetId> walk = {{0, 0}, {1, 1}, {2, 2}, {0, 0}, {3, 3}, {1, 1}};
  for (const auto& id : walk) {
    Bytes received;
    agent->request_view_set(id, [&](const ClientAgent::Delivery& d) {
      received = *d.payload;
    });
    sim_.run();
    ASSERT_FALSE(received.empty());
    EXPECT_EQ(lightfield::ViewSet::decompress(received).id(), id);
  }
  EXPECT_GT(agent->cache().evictions(), 0u);
  // Revisits after eviction re-fetch from the WAN, not from thin air.
  EXPECT_GT(agent->counter("agent.wan_accesses"), 4u);
}

TEST_F(PipelineTest, ClassifyUsesBestReplicaAcrossAllExtents) {
  // Regression: classify() used to look only at the first extent's replicas.
  // Stripe a view set across one WAN and one LAN depot (upload round-robins
  // blocks over the depot list), so extent 0 lives on the WAN and extent 1 on
  // the LAN: the access must still classify by the best replica overall.
  const ViewSetId id{1, 2};
  Bytes compressed = source_->build_compressed(id);
  ASSERT_GT(compressed.size(), 2048u);  // at least two extents
  lors::UploadOptions up;
  up.depots = {"ca-0", "lan-0"};
  up.block_bytes = 2048;
  bool ok = false;
  lors_.upload_async(server_node_, std::move(compressed), up,
                     [&](const lors::UploadResult& r) {
                       ok = r.status == lors::LorsStatus::kOk;
                       exnode::ExNode node = r.exnode;
                       dvs_->install(id, std::move(node));
                     });
  sim_.run();
  ASSERT_TRUE(ok);

  auto agent = make_agent(false, false);
  std::optional<AccessClass> cls;
  Bytes received;
  agent->request_view_set(id, [&](const ClientAgent::Delivery& d) {
    received = *d.payload;
    cls = d.cls;
  });
  sim_.run();
  ASSERT_TRUE(cls.has_value());
  EXPECT_EQ(*cls, AccessClass::kLanDepot);
  EXPECT_EQ(agent->counter("agent.lan_accesses"), 1u);
  EXPECT_EQ(received, source_->build_compressed(id));
}

TEST_F(PipelineTest, FailedDownloadReportsFailureThenRecovers) {
  // With every replica dark the agent reports an empty delivery instead of
  // hanging; once the depots return, the same agent serves the view set.
  const ViewSetId id{1, 2};
  publish(id);
  ClientAgentConfig cfg;
  cfg.prefetch = false;
  auto agent = std::make_unique<ClientAgent>(sim_, net_, fabric_, lors_, *dvs_,
                                             source_->lattice(), agent_node_, cfg);
  // Both WAN depots dark: every download attempt fails after one round trip.
  fabric_.set_offline("ca-0", true);
  fabric_.set_offline("ca-1", true);
  bool done = false;
  Bytes received = {9};
  agent->request_view_set(id, [&](const ClientAgent::Delivery& d) {
    done = true;
    received = *d.payload;
  });
  sim_.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(received.empty());  // failure reported, not hung
  // The first attempt and every re-resolution the budget allows all failed.
  const auto refetches = static_cast<std::uint64_t>(cfg.max_refetch);
  EXPECT_EQ(agent->counter("agent.refetches"), refetches);

  // Depots return: the same agent then serves the view set on its first try.
  fabric_.set_offline("ca-0", false);
  fabric_.set_offline("ca-1", false);
  Bytes again;
  agent->request_view_set(id, [&](const ClientAgent::Delivery& d) {
    again = *d.payload;
  });
  sim_.run();
  EXPECT_EQ(again, source_->build_compressed(id));
  EXPECT_EQ(agent->counter("agent.refetches"), refetches);
}

TEST_F(PipelineTest, ServerAgentGeneratesOnDvsMiss) {
  // Publish nothing: every request must go through runtime generation.
  ServerAgentConfig server_cfg;
  server_cfg.depots = wan_depots_;
  ServerAgent server(sim_, net_, lors_, *dvs_, server_node_, source_, server_cfg);
  dvs_->register_server_agent(&server);

  auto agent = make_agent(false, false);
  const ViewSetId id{0, 4};
  std::optional<AccessClass> cls;
  Bytes received;
  agent->request_view_set(id, [&](const ClientAgent::Delivery& d) {
    received = *d.payload;
    cls = d.cls;
  });
  sim_.run();
  ASSERT_TRUE(cls.has_value());
  EXPECT_FALSE(received.empty());
  EXPECT_EQ(server.generated_count(), 1u);
  EXPECT_TRUE(dvs_->knows(id));
  EXPECT_EQ(lightfield::ViewSet::decompress(received), source_->build(id));
}

TEST_F(PipelineTest, ServerAgentSchedulesLifo) {
  ServerAgentConfig server_cfg;
  server_cfg.depots = wan_depots_;
  ServerAgent server(sim_, net_, lors_, *dvs_, server_node_, source_, server_cfg);

  std::vector<int> completion_order;
  // The first request occupies the generator; 2 and 3 queue up. LIFO means 3
  // completes before 2.
  server.generate_async({0, 0}, [&](bool, const exnode::ExNode&) {
    completion_order.push_back(1);
  });
  server.generate_async({0, 1}, [&](bool, const exnode::ExNode&) {
    completion_order.push_back(2);
  });
  server.generate_async({0, 2}, [&](bool, const exnode::ExNode&) {
    completion_order.push_back(3);
  });
  sim_.run();
  EXPECT_EQ(completion_order, (std::vector<int>{1, 3, 2}));
}

TEST_F(PipelineTest, ServerAgentGenerationCostScalesWithResolution) {
  ServerAgentConfig cfg;
  cfg.depots = wan_depots_;
  auto small_src = std::make_shared<lightfield::ProceduralSource>(small_config(100));
  auto large_src = std::make_shared<lightfield::ProceduralSource>(small_config(200));
  ServerAgent small_agent(sim_, net_, lors_, *dvs_, server_node_, small_src, cfg);
  ServerAgent large_agent(sim_, net_, lors_, *dvs_, server_node_, large_src, cfg);
  EXPECT_NEAR(static_cast<double>(large_agent.generation_cost()) /
                  static_cast<double>(small_agent.generation_cost()),
              4.0, 0.01);
}

}  // namespace
}  // namespace lon::streaming
