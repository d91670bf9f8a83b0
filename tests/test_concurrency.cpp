// Concurrency tests for the parallel demand path (ISSUE 3).
//
// Covers, in one place:
//   - pooled LoRS stripe download is byte-for-byte AND virtual-time identical
//     to the serial path, on clean, corrupt and short blocks alike (the
//     determinism contract from DESIGN.md section 10);
//   - the decompress pipeline drains cleanly: full overlap, partial stripes,
//     stripes that bypassed on_stripe (retried blocks), corrupt chunks, and
//     non-chunked payloads all resolve to the documented outcomes;
//   - ViewSetCache and obs::Registry survive a thread-pool hammer with exact
//     invariants (the satellite-4 regression tests);
//   - batched builders (RaycastBuilder across views, Renderer across rows)
//     produce pixels identical to their serial counterparts;
//   - the multi-client session driver converges with no deadlock under a
//     fault plan, and its virtual-time results do not depend on whether a
//     worker pool is attached.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "compress/lfz.hpp"
#include "lightfield/builder.hpp"
#include "lightfield/procedural.hpp"
#include "lightfield/renderer.hpp"
#include "lors/lors.hpp"
#include "obs/metrics.hpp"
#include "session/experiment.hpp"
#include "session/scenario.hpp"
#include "streaming/cache.hpp"
#include "streaming/pipeline.hpp"
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
    std::vector<std::pair<std::uint64_t, std::uint64_t>> stripes;
    pooled_opts.on_stripe = [&](const lors::StripeEvent& event) {
      stripes.emplace_back(event.offset, event.length);
    };
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

    // The stripe events cover the payload exactly once, no gaps, no overlap.
    std::sort(stripes.begin(), stripes.end());
    ASSERT_EQ(stripes.size(), pooled_result.blocks_total);
    std::uint64_t expected_offset = 0;
    for (const auto& [offset, length] : stripes) {
      EXPECT_EQ(offset, expected_offset);
      expected_offset = offset + length;
    }
    EXPECT_EQ(expected_offset, data.size());
  }
}

// --- decompress pipeline -----------------------------------------------------------

/// Something lfz can actually compress (repeating structure), unlike random
/// filler.
Bytes make_compressible(std::size_t size) {
  Bytes data(size);
  for (std::size_t i = 0; i < size; ++i) {
    data[i] = static_cast<std::uint8_t>((i / 97) % 251);
  }
  return data;
}

/// Feeds `container` to a pipeline in `stripe_bytes` slices at 1ms virtual
/// intervals, as a LoRS download would.
void feed_stripes(streaming::DecompressPipeline& pipeline, const Bytes& container,
                  std::uint64_t stripe_bytes, std::size_t count_limit = SIZE_MAX) {
  std::size_t fed = 0;
  for (std::uint64_t offset = 0; offset < container.size() && fed < count_limit;
       offset += stripe_bytes, ++fed) {
    lors::StripeEvent event;
    event.offset = offset;
    event.length = std::min<std::uint64_t>(stripe_bytes, container.size() - offset);
    event.buffer = &container;
    pipeline.on_stripe(event, static_cast<SimTime>(fed + 1) * kMillisecond);
  }
}

TEST(DecompressPipeline, OverlapsChunkDecodesWithStripeArrival) {
  const Bytes original = make_compressible(300'000);
  const std::uint64_t chunk_bytes = 32 * 1024;
  const Bytes container = lfz::compress_chunked(original, chunk_bytes);
  const std::size_t expected_chunks = (original.size() + chunk_bytes - 1) / chunk_bytes;

  ThreadPool pool(4);
  streaming::DecompressPipeline pipeline({.pool = &pool, .max_inflight = 4});
  feed_stripes(pipeline, container, 20'000);

  streaming::DecompressPipeline::Report report;
  const auto out = pipeline.finish(container, 100 * kMillisecond, report);
  ASSERT_TRUE(out != nullptr);
  EXPECT_EQ(*out, original);
  EXPECT_TRUE(report.chunked);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.chunks_total, expected_chunks);
  // Every stripe went through on_stripe, so every chunk decode overlapped.
  EXPECT_EQ(report.chunks_overlapped, expected_chunks);
  EXPECT_GT(report.last_stripe_at, 0);

  // Chunk arrival times are nondecreasing — the property the deterministic
  // replay in residual_decompress_time depends on.
  ASSERT_EQ(report.chunks.size(), expected_chunks);
  for (std::size_t i = 1; i < report.chunks.size(); ++i) {
    EXPECT_GE(report.chunks[i].available_at, report.chunks[i - 1].available_at);
  }

  // The replay: an infinitely fast decoder hides everything; a realistic one
  // leaves a residual tail no larger than the full serial cost.
  EXPECT_EQ(streaming::residual_decompress_time(report, 1e18, 4), 0);
  std::uint64_t original_bytes = 0;
  for (const auto& c : report.chunks) original_bytes += c.original_bytes;
  EXPECT_EQ(original_bytes, original.size());
  const double rate = 30e6;
  const SimDuration serial_cost =
      from_seconds(static_cast<double>(original_bytes) / rate);
  const SimDuration residual = streaming::residual_decompress_time(report, rate, 4);
  EXPECT_LE(residual, serial_cost);
}

TEST(DecompressPipeline, DrainsWhenStripesBypassedTheCallback) {
  // Retried/failover blocks never fire on_stripe; finish() must pick them up
  // from the completed buffer. Feed only the first three stripes.
  const Bytes original = make_compressible(200'000);
  const Bytes container = lfz::compress_chunked(original, 16 * 1024);

  ThreadPool pool(2);
  streaming::DecompressPipeline pipeline({.pool = &pool});
  // The compressible pattern packs tightly, so keep the fed prefix tiny —
  // just past the header and the first chunk or two.
  feed_stripes(pipeline, container, 256, /*count_limit=*/2);

  streaming::DecompressPipeline::Report report;
  const auto out = pipeline.finish(container, 50 * kMillisecond, report);
  ASSERT_TRUE(out != nullptr);
  EXPECT_EQ(*out, original);
  EXPECT_TRUE(report.ok);
  EXPECT_LT(report.chunks_overlapped, report.chunks_total);

  // The degenerate case: no stripe events at all (a caller that never wired
  // the hook) still decodes, with zero overlap.
  streaming::DecompressPipeline cold({.pool = &pool});
  streaming::DecompressPipeline::Report cold_report;
  const auto cold_out = cold.finish(container, kMillisecond, cold_report);
  ASSERT_TRUE(cold_out != nullptr);
  EXPECT_EQ(*cold_out, original);
  EXPECT_EQ(cold_report.chunks_overlapped, 0u);
}

TEST(DecompressPipeline, FallsBackOnCorruptChunkAndNonChunkedPayload) {
  const Bytes original = make_compressible(120'000);
  Bytes container = lfz::compress_chunked(original, 16 * 1024);

  // Flip the first body byte of the first chunk (right after the 16-byte
  // LFZC header and the 4-byte length prefix): the chunk's lfz magic breaks
  // and its decode throws.
  container[16 + 4] ^= 0xff;
  ThreadPool pool(2);
  streaming::DecompressPipeline corrupt({.pool = &pool});
  feed_stripes(corrupt, container, 25'000);
  streaming::DecompressPipeline::Report report;
  EXPECT_EQ(corrupt.finish(container, 50 * kMillisecond, report), nullptr);
  EXPECT_TRUE(report.chunked);
  EXPECT_FALSE(report.ok);

  // A plain (non-chunked) lfz payload: the pipeline declines and reports it,
  // so the caller charges the ordinary whole-buffer decompress.
  const Bytes plain = lfz::compress(original);
  streaming::DecompressPipeline passthrough({.pool = &pool});
  feed_stripes(passthrough, plain, 25'000);
  streaming::DecompressPipeline::Report plain_report;
  EXPECT_EQ(passthrough.finish(plain, 50 * kMillisecond, plain_report), nullptr);
  EXPECT_FALSE(plain_report.chunked);
}

TEST(DecompressPipeline, AbortDrainsInflightAndIgnoresLateStripes) {
  // A failed download abandons its pipeline mid-transfer: abort() must wait
  // out the chunk decodes already in flight, release their buffers, and turn
  // straggling stripe callbacks from the dying transfer into no-ops.
  const Bytes original = make_compressible(300'000);
  const Bytes container = lfz::compress_chunked(original, 32 * 1024);

  ThreadPool pool(4);
  streaming::DecompressPipeline pipeline({.pool = &pool, .max_inflight = 4});
  feed_stripes(pipeline, container, 20'000);
  const std::size_t drained = pipeline.abort();
  EXPECT_GT(drained, 0u);  // decodes were in flight and got reaped
  // Stripes that were still queued when the attempt died land on a dead
  // pipeline: no new decodes start, so a second abort finds nothing.
  feed_stripes(pipeline, container, 20'000);
  EXPECT_EQ(pipeline.abort(), 0u);
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

// --- end-to-end pipelined experiment -----------------------------------------------

TEST(PipelinedExperiment, OverlapOnlyShrinksDecompressCharges) {
  session::ExperimentConfig cfg;
  cfg.lattice = tiny_lattice(24);
  cfg.which = session::Case::kWanStreaming;  // demand downloads hit the WAN
  cfg.accesses = 10;
  cfg.dwell = kSecond;
  cfg.client.display_resolution = 24;
  cfg.client.timing = streaming::ClientConfig::Timing::kModeled;
  // Chunked containers small enough that one view set spans several chunks.
  cfg.publish_chunk_bytes = 1024;

  const session::ExperimentResult serial = session::run_experiment(cfg);

  session::ExperimentConfig pipelined_cfg = cfg;
  ThreadPool pool(4);
  pipelined_cfg.pool = &pool;
  pipelined_cfg.agent.pipeline_decompress = true;
  pipelined_cfg.agent.pipeline_inflight = 4;
  const session::ExperimentResult pipelined = session::run_experiment(pipelined_cfg);

  EXPECT_EQ(serial.failed_accesses, 0u);
  EXPECT_EQ(pipelined.failed_accesses, 0u);

  // The request stream is script-driven, so both runs ask for the same view
  // sets in the same order regardless of how latencies shifted.
  ASSERT_EQ(pipelined.accesses.size(), serial.accesses.size());
  SimDuration serial_decompress = 0;
  SimDuration pipelined_decompress = 0;
  std::size_t overlapped = 0;
  for (std::size_t i = 0; i < pipelined.accesses.size(); ++i) {
    EXPECT_EQ(pipelined.accesses[i].id, serial.accesses[i].id);
    EXPECT_FALSE(serial.accesses[i].pipelined);
    serial_decompress += serial.accesses[i].decompress_time;
    pipelined_decompress += pipelined.accesses[i].decompress_time;
    if (pipelined.accesses[i].pipelined) ++overlapped;
  }
  // At least the demand misses went through the pipeline, and overlap never
  // makes the charged decompression larger.
  EXPECT_GE(overlapped, 1u);
  EXPECT_LE(pipelined_decompress, serial_decompress);
  ASSERT_NE(pipelined.obs, nullptr);
  EXPECT_EQ(pipelined.obs->metrics.counter_total("session.pipelined"),
            static_cast<std::uint64_t>(overlapped));
  EXPECT_EQ(serial.obs->metrics.counter_total("session.pipelined"), 0u);
}

}  // namespace
}  // namespace lon
