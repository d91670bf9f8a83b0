// Concurrency tests for the parallel demand path.
//
// Covers, in one place:
//   - pooled LoRS stripe download is byte-for-byte AND virtual-time identical
//     to the serial path, on clean, corrupt and short blocks alike (the
//     determinism contract from DESIGN.md section 10);
//   - ViewSetCache and obs::Registry survive a thread-pool hammer with exact
//     invariants;
//   - batched builders (RaycastBuilder across views, Renderer across rows)
//     produce pixels identical to their serial counterparts;
//   - concurrent callers of ViewSet::blank share one set and render from it;
//   - the multi-client session driver converges with no deadlock under a
//     fault plan, and its virtual-time results do not depend on whether a
//     worker pool is attached.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <latch>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "lightfield/builder.hpp"
#include "lightfield/procedural.hpp"
#include "lightfield/renderer.hpp"
#include "lors/lors.hpp"
#include "obs/metrics.hpp"
#include "session/experiment.hpp"
#include "session/scenario.hpp"
#include "streaming/cache.hpp"
#include "util/thread_pool.hpp"
#include "volume/synthetic.hpp"
#include "volume/transfer.hpp"

namespace lon {
namespace {

// --- pooled LoRS download vs serial ------------------------------------------------

/// A self-contained striped-storage world (same topology as test_lors), built
/// as a plain struct so one test can stand up two independent copies and
/// compare their virtual timelines.
struct StripedHarness {
  StripedHarness() : net(sim), fabric(sim, net), lors(sim, net, fabric) {
    client = net.add_node("client");
    const sim::NodeId wan_router = net.add_node("wan-router");
    net.add_link(client, wan_router, {100e6, 35 * kMillisecond, 0.0});
    for (int i = 0; i < 3; ++i) {
      const std::string name = "ca-" + std::to_string(i);
      const sim::NodeId node = net.add_node(name + "-node");
      net.add_link(wan_router, node, {1e9, kMillisecond, 0.0});
      ibp::DepotConfig cfg;
      cfg.capacity_bytes = 1 << 30;
      cfg.max_alloc_bytes = 1 << 28;
      cfg.max_lease = 24 * 3600 * kSecond;
      fabric.add_depot(node, name, cfg);
      depots.push_back(name);
    }
  }

  exnode::ExNode upload(const Bytes& data, std::uint64_t block_bytes, int replicas) {
    lors::UploadOptions opts;
    opts.depots = depots;
    opts.block_bytes = block_bytes;
    opts.replicas = replicas;
    std::optional<lors::UploadResult> result;
    lors.upload_async(client, data, opts, [&](const lors::UploadResult& r) { result = r; });
    sim.run();
    EXPECT_TRUE(result.has_value());
    EXPECT_EQ(result->status, lors::LorsStatus::kOk);
    return result->exnode;
  }

  /// Runs one download to completion; returns the result and how long it
  /// took in virtual time.
  std::pair<lors::DownloadResult, SimDuration> download(const exnode::ExNode& node,
                                                        lors::DownloadOptions opts) {
    const SimTime start = sim.now();
    std::optional<lors::DownloadResult> result;
    SimTime done = 0;
    lors.download_async(client, node, opts, [&](const lors::DownloadResult& r) {
      result = r;
      done = sim.now();
    });
    sim.run();
    EXPECT_TRUE(result.has_value());
    return {*result, done - start};
  }

  sim::Simulator sim;
  sim::Network net;
  ibp::Fabric fabric;
  lors::Lors lors;
  sim::NodeId client = 0;
  std::vector<std::string> depots;
};

Bytes make_payload(std::size_t size) {
  Bytes data(size);
  for (std::size_t i = 0; i < size; ++i) {
    data[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 24);
  }
  return data;
}

exnode::ExNode without_checksums(const exnode::ExNode& node) {
  exnode::ExNode out(node.length());
  for (exnode::Extent extent : node.extents()) {
    extent.checksum.reset();
    out.add_extent(std::move(extent));
  }
  return out;
}

void expect_same_result(const lors::DownloadResult& a, const lors::DownloadResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(*a.data, *b.data);
  EXPECT_EQ(a.blocks_total, b.blocks_total);
  EXPECT_EQ(a.blocks_failed, b.blocks_failed);
  EXPECT_EQ(a.replica_failovers, b.replica_failovers);
  EXPECT_EQ(a.corruption_detected, b.corruption_detected);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.copied_bytes, b.copied_bytes);
}

/// One input of the pooled-vs-serial comparison: what depot ca-0 does to
/// every block it serves, and whether the exNode keeps its checksums.
struct LoadFault {
  const char* name;
  std::function<void(Bytes&)> on_ca0;  ///< null = a clean depot
  bool strip_checksums = false;
};

TEST(ParallelDownload, PooledVerificationMatchesSerialExactly) {
  const Bytes data = make_payload(777'777);  // not block-aligned on purpose
  ThreadPool pool(4);
  const auto flip = [](Bytes& b) { b[b.size() / 2] ^= 0x10; };
  const auto shorten = [](Bytes& b) { b.pop_back(); };
  const std::vector<LoadFault> inputs = {
      {"clean", nullptr},
      {"flipped bit", flip},
      {"one byte short", shorten},
      {"one byte short, no checksums", shorten, /*strip_checksums=*/true},
  };

  for (const LoadFault& input : inputs) {
    SCOPED_TRACE(input.name);
    StripedHarness serial;
    StripedHarness pooled;
    exnode::ExNode node_serial = serial.upload(data, 64 * 1024, 2);
    exnode::ExNode node_pooled = pooled.upload(data, 64 * 1024, 2);
    if (input.strip_checksums) {
      node_serial = without_checksums(node_serial);
      node_pooled = without_checksums(node_pooled);
    }
    if (input.on_ca0) {
      const auto hook = [&input](const std::string& depot, Bytes& b) {
        if (depot == "ca-0") input.on_ca0(b);
      };
      serial.fabric.set_corrupt_hook(hook);
      pooled.fabric.set_corrupt_hook(hook);
    }

    const auto [serial_result, serial_time] = serial.download(node_serial, {});

    lors::DownloadOptions pooled_opts;
    pooled_opts.pool = &pool;
    const auto [pooled_result, pooled_time] = pooled.download(node_pooled, pooled_opts);

    // The same verdict on every block, so the same result, bytes and
    // counters, and the same virtual completion time: the pool only moves
    // real CPU work, never virtual time.
    expect_same_result(pooled_result, serial_result);
    EXPECT_EQ(pooled_time, serial_time);
    // Every bad block from ca-0 failed over to its clean second replica.
    EXPECT_EQ(serial_result.status, lors::LorsStatus::kOk);
    EXPECT_EQ(*serial_result.data, data);
    EXPECT_EQ(serial_result.corruption_detected > 0, input.on_ca0 != nullptr);
  }
}

// --- thread-safe cache and registry (satellite 4 regressions) ----------------------

TEST(ConcurrentCache, HammeredFromPoolKeepsInvariants) {
  constexpr std::uint64_t kBudget = 64 * 1024;
  streaming::ViewSetCache cache(kBudget);
  ThreadPool pool(4);

  constexpr int kLanes = 8;
  constexpr int kIdsPerLane = 16;
  constexpr int kIters = 500;
  pool.parallel_for(0, kLanes, [&](std::size_t lane) {
    for (int i = 0; i < kIters; ++i) {
      const lightfield::ViewSetId id{static_cast<int>(lane), i % kIdsPerLane};
      cache.put(id, Bytes(1024 + 64 * lane, static_cast<std::uint8_t>(lane)));
      // A reader holds shared ownership across concurrent eviction; the
      // payload must stay intact even if it just fell out of the cache.
      if (const auto data = cache.get(id)) {
        EXPECT_EQ(data->size(), 1024 + 64 * lane);
        EXPECT_EQ((*data)[0], static_cast<std::uint8_t>(lane));
      }
      (void)cache.contains(id);
      EXPECT_LE(cache.bytes_used(), kBudget);
    }
  }, /*chunks=*/kLanes);

  // Post-hammer accounting: bytes_used equals the sum of the entries still
  // resident, and the budget held throughout.
  std::uint64_t resident = 0;
  std::size_t entries = 0;
  for (int lane = 0; lane < kLanes; ++lane) {
    for (int i = 0; i < kIdsPerLane; ++i) {
      if (const auto data = cache.get({lane, i})) {
        resident += data->size();
        ++entries;
      }
    }
  }
  EXPECT_EQ(resident, cache.bytes_used());
  EXPECT_EQ(entries, cache.size());
  EXPECT_LE(cache.bytes_used(), kBudget);
  EXPECT_GT(cache.evictions(), 0u);
}

TEST(ConcurrentRegistry, CountersAndHistogramsAreExactUnderContention) {
  obs::Registry registry;
  ThreadPool pool(4);
  constexpr int kLanes = 8;
  constexpr int kIters = 5000;

  std::vector<std::future<void>> lanes;
  lanes.reserve(kLanes);
  for (int lane = 0; lane < kLanes; ++lane) {
    lanes.push_back(pool.submit([&registry, lane] {
      // Half the lanes share each label set, so creation and increment race.
      const std::string labels = "lane=" + std::to_string(lane % 4);
      for (int i = 0; i < kIters; ++i) {
        registry.counter("hammer.count", labels).inc();
        registry.histogram("hammer.latency", labels).record((i % 100) * kMicrosecond);
      }
    }));
  }
  // Exports walk the instrument maps while writers are mid-flight — this is
  // the write_jsonl locking regression.
  for (int i = 0; i < 50; ++i) {
    std::ostringstream sink;
    registry.write_jsonl(sink);
  }
  for (auto& lane : lanes) lane.get();
  std::ostringstream sink;
  registry.write_jsonl(sink);
  EXPECT_FALSE(sink.str().empty());

  EXPECT_EQ(registry.counter_total("hammer.count"),
            static_cast<std::uint64_t>(kLanes) * kIters);
  std::uint64_t recorded = 0;
  for (const auto& [labels, histogram] : registry.histograms_named("hammer.latency")) {
    recorded += histogram->count();
  }
  EXPECT_EQ(recorded, static_cast<std::uint64_t>(kLanes) * kIters);
}

// --- batched builders match serial pixels ------------------------------------------

lightfield::LatticeConfig tiny_lattice(std::size_t resolution) {
  lightfield::LatticeConfig cfg;
  cfg.angular_step_deg = 15.0;  // 12 x 24 lattice, 4 x 8 view sets
  cfg.view_set_span = 3;
  cfg.view_resolution = resolution;
  return cfg;
}

TEST(BatchedGeneration, RaycastBuilderThreadCountDoesNotChangePixels) {
  const auto volume = volume::make_neghip_like(16, 3);
  render::RayCastOptions opts;
  opts.step = 0.05;
  lightfield::RaycastBuilder serial(volume, volume::TransferFunction::neghip_preset(),
                                    tiny_lattice(24), opts, 1);
  lightfield::RaycastBuilder pooled(volume, volume::TransferFunction::neghip_preset(),
                                    tiny_lattice(24), opts, 4);
  EXPECT_EQ(serial.build({1, 2}), pooled.build({1, 2}));
}

TEST(BatchedGeneration, RendererRowParallelismDoesNotChangePixels) {
  const lightfield::LatticeConfig cfg = tiny_lattice(64);
  lightfield::ProceduralSource source(cfg);
  lightfield::Renderer renderer(cfg);
  renderer.add_view_set(source.build({1, 2}));

  // A direction strictly inside view set (1,2), between lattice samples so
  // the interpolation path actually runs.
  const Spherical a = source.lattice().sample_direction(4, 7);
  const Spherical b = source.lattice().sample_direction(4, 8);
  const Spherical dir{a.theta + 0.25 * (b.theta - a.theta),
                      a.phi + 0.25 * (b.phi - a.phi)};

  ThreadPool pool(4);
  const render::ImageRGB8 serial = renderer.render(dir, 64);
  const render::ImageRGB8 pooled = renderer.render(dir, 64, 1.0, &pool);
  EXPECT_EQ(serial, pooled);
}

TEST(SharedBlankViewSet, ConcurrentCallersGetOneSetAndRenderFromIt) {
  // Non-decoding clients of Systems that run at once share their blank sets
  // through one process-wide cache: every caller must get the same set, and
  // renderers on different threads must read it at the same time.
  const lightfield::LatticeConfig cfg = tiny_lattice(32);
  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const lightfield::ViewSet>> sets(kThreads);
  std::vector<render::ImageRGB8> frames(kThreads);
  std::latch start(kThreads);
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        sets[t] = lightfield::ViewSet::blank(cfg.view_set_span, cfg.view_resolution);
        lightfield::Renderer renderer(cfg);
        const lightfield::ViewSetId id{1, static_cast<int>(t % 8)};
        renderer.add_view_set(id, sets[t]);
        frames[t] = renderer.render(renderer.lattice().view_set_center(id), 32);
      });
    }
  }
  ASSERT_NE(sets[0], nullptr);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(sets[t], sets[0]) << t;
    EXPECT_EQ(frames[t], render::ImageRGB8(32, 32)) << t;
  }
}

// --- multi-client driver -----------------------------------------------------------

constexpr std::size_t kAccessesPerClient = 6;

session::Scenario small_multi_client() {
  session::ExperimentConfig base;
  base.lattice = tiny_lattice(24);
  base.which = session::Case::kWanWithLanDepot;
  base.all_filler = true;
  base.client.decode = false;
  base.client.timing = streaming::ClientConfig::Timing::kModeled;
  base.dwell = 500 * kMillisecond;
  return session::multi_client(base, /*clients=*/3, kAccessesPerClient, /*seed=*/100,
                               250 * kMillisecond);
}

TEST(MultiClient, ConvergesUnderFaultPlanWithoutDeadlock) {
  session::Scenario mc = small_multi_client();
  mc.base.pool = &ThreadPool::shared();
  // A WAN depot and a LAN staging depot both crash mid-run and come back;
  // replicas + retries let every access heal.
  mc.base.publish_replicas = 2;
  mc.base.timeouts = {.control = 500 * kMillisecond, .data = 5 * kSecond};
  mc.base.agent.retry.max_attempts = 4;
  mc.base.agent.retry.base_backoff = 250 * kMillisecond;
  mc.base.faults.crashes.push_back(
      {.depot = "ca-0", .at = 2 * kSecond, .restart_after = 6 * kSecond});
  mc.base.faults.crashes.push_back(
      {.depot = "lan-1", .at = 4 * kSecond, .restart_after = 4 * kSecond});

  const session::ScenarioResult result = session::run_scenario(mc);

  ASSERT_EQ(result.clients.size(), 3u);
  EXPECT_EQ(result.failed_accesses, 0u);
  EXPECT_GT(result.duration, 0);
  EXPECT_GE(result.fault_stats.crashes, 2u);
  for (const auto& client : result.clients) {
    // Scripts can emit a couple more records than `accesses_per_client`
    // (boundary-crossing steps re-request); they never emit fewer than the
    // script's transitions.
    EXPECT_GE(client.accesses.size(), kAccessesPerClient - 1);
    EXPECT_EQ(client.failed_accesses, 0u);
    EXPECT_GT(client.p50_total_s, 0.0);
    EXPECT_GE(client.p99_total_s, client.p50_total_s);
  }
  EXPECT_GT(result.obs->metrics.counter_total("agent.requests"), 0u);
}

TEST(MultiClient, VirtualTimelineIndependentOfWorkerPool) {
  // The whole point of the ownership rule in DESIGN.md section 10: attaching
  // a pool moves CPU work, not virtual time. Two runs, with and without a
  // pool, must produce identical traces.
  const session::ScenarioResult without_pool = session::run_scenario(small_multi_client());

  session::Scenario mc = small_multi_client();
  ThreadPool pool(4);
  mc.base.pool = &pool;
  const session::ScenarioResult with_pool = session::run_scenario(mc);

  ASSERT_EQ(with_pool.clients.size(), without_pool.clients.size());
  EXPECT_EQ(with_pool.duration, without_pool.duration);
  for (std::size_t c = 0; c < with_pool.clients.size(); ++c) {
    const auto& a = with_pool.clients[c].accesses;
    const auto& b = without_pool.clients[c].accesses;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].cls, b[i].cls);
      EXPECT_EQ(a[i].requested, b[i].requested);
      EXPECT_EQ(a[i].delivered, b[i].delivered);
    }
  }
}

}  // namespace
}  // namespace lon
