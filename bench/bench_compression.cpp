// Micro bench: codec throughput, ratio and bytes-on-the-wire per wire format.
//
// One deterministic procedural view set is pushed through every container the
// system can publish — stored and LFZ1 — measuring compressed size (exactly
// reproducible; the perf gate hard-fails on any byte change), ratio against
// raw pixels, and wall-clock MB/s both directions. A separate pair of timings
// decodes the same Huffman symbol stream with the table-driven decoder and the
// bit-at-a-time reference; their ratio is machine-relative, so the gate can
// enforce the table speedup even on a 1-core runner. The same holds for the
// slicing-by-16 CRC-32 that LoRS runs on every block, timed against its
// byte-at-a-time reference.
//
// Flags:
//   --smoke   smaller view set / fewer symbols for the CI perf gate
//   --json    machine-readable output (one JSON object) for ci/perf_gate.py
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "compress/filters.hpp"
#include "compress/huffman.hpp"
#include "compress/lfz.hpp"
#include "lightfield/procedural.hpp"
#include "lors/lors.hpp"
#include "streaming/client_agent.hpp"
#include "streaming/dvs.hpp"
#include "util/buffer_pool.hpp"
#include "util/checksum.hpp"

namespace {

using namespace lon;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Best-of-`reps` wall time of `fn`, in seconds.
template <typename Fn>
double best_time(int reps, Fn&& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, seconds_since(start));
  }
  return best;
}

struct Row {
  const char* mode = "";
  std::uint64_t bytes = 0;          ///< on the wire (deterministic)
  std::uint64_t payload_bytes = 0;  ///< serialized input the codec processed
  double ratio = 0.0;               ///< raw pixel bytes / wire bytes
  double compress_mb_s = 0.0;
  double decompress_mb_s = 0.0;
  std::uint64_t decode_copied_bytes = 0;  ///< metered copies in one decode
};

Row measure(const char* mode, const Bytes& payload, std::uint64_t pixel_bytes, int reps,
            Bytes (*compress)(const Bytes&), Bytes (*decompress)(const Bytes&)) {
  Row row;
  row.mode = mode;
  row.payload_bytes = payload.size();
  const Bytes wire = compress(payload);
  row.bytes = wire.size();
  row.ratio = static_cast<double>(pixel_bytes) / static_cast<double>(wire.size());
  // One metered decode: stored bodies pay exactly one pass through the copy
  // meter, LZ-coded bodies decode without touching it. Deterministic, so the
  // gate pins it exactly.
  const std::uint64_t copied_before = util::payload_bytes_copied();
  if (decompress(wire) != payload) throw std::runtime_error("codec round-trip mismatch");
  row.decode_copied_bytes = util::payload_bytes_copied() - copied_before;
  const double mb = static_cast<double>(payload.size()) / 1e6;
  row.compress_mb_s = mb / best_time(reps, [&] { (void)compress(payload); });
  row.decompress_mb_s = mb / best_time(reps, [&] { (void)decompress(wire); });
  return row;
}

Bytes compress_stored(const Bytes& d) {
  lfz::CompressOptions opt;
  opt.store_only = true;
  return lfz::compress(d, opt);
}
Bytes compress_lfz1(const Bytes& d) { return lfz::compress(d); }
Bytes decompress_plain(const Bytes& d) { return lfz::decompress(d); }

struct DecodeResult {
  std::size_t symbols = 0;
  double table_msym_s = 0.0;
  double bitwise_msym_s = 0.0;
  double speedup = 0.0;
};

/// Times the table decoder against the bit-at-a-time reference over one
/// encoded symbol stream (skewed frequencies, full 286-symbol alphabet).
DecodeResult measure_decode(std::size_t symbols, int reps) {
  constexpr std::size_t kAlphabet = 286;
  std::vector<std::uint64_t> freqs(kAlphabet);
  for (std::size_t s = 0; s < kAlphabet; ++s) {
    freqs[s] = 1 + (s * 2654435761u) % 997;  // deterministic skew, all nonzero
  }
  const auto lengths = lfz::build_code_lengths(freqs);
  const lfz::HuffmanEncoder encoder(lengths);
  const lfz::HuffmanDecoder decoder(lengths);

  std::vector<std::uint16_t> stream(symbols);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (auto& s : stream) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    s = static_cast<std::uint16_t>((state >> 33) % kAlphabet);
  }
  lfz::BitWriter writer;
  for (const auto s : stream) encoder.encode(writer, s);
  const Bytes encoded = writer.take();

  // Checksum both paths so the decode loops cannot be optimized away (and to
  // assert the fast path agrees with the reference on this stream).
  const auto drain = [&](auto&& decode_one) {
    lfz::BitReader reader(encoded);
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < symbols; ++i) sum += decode_one(reader);
    return sum;
  };
  const std::uint64_t want =
      drain([&](lfz::BitReader& r) { return decoder.decode_bitwise(r); });
  std::uint64_t got = 0;
  DecodeResult result;
  result.symbols = symbols;
  const double msym = static_cast<double>(symbols) / 1e6;
  result.table_msym_s = msym / best_time(reps, [&] {
                          got = drain([&](lfz::BitReader& r) { return decoder.decode(r); });
                        });
  if (got != want) throw std::runtime_error("table decode disagrees with bitwise");
  result.bitwise_msym_s =
      msym / best_time(reps, [&] {
        (void)drain([&](lfz::BitReader& r) { return decoder.decode_bitwise(r); });
      });
  result.speedup = result.table_msym_s / result.bitwise_msym_s;
  return result;
}

struct FilterResult {
  double mb = 0.0;
  double fast_mb_s = 0.0;
  double scalar_mb_s = 0.0;
  double speedup = 0.0;
};

/// Times the vectorized unfilter path against the per-byte scalar reference
/// on one deterministic smooth image (the shape predictor filters exist for).
FilterResult measure_filters(bool smoke, int reps) {
  const std::size_t width = smoke ? 256 : 1024;
  const std::size_t height = width;
  constexpr std::size_t kBpp = 3;
  Bytes image(width * height * kBpp);
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width * kBpp; ++x) {
      image[y * width * kBpp + x] = static_cast<std::uint8_t>((x / kBpp + 2 * y) & 0xff);
    }
  }
  const Bytes filtered = lfz::filter_image(image, width, height, kBpp);
  const Bytes fast = lfz::unfilter_image(filtered, width, height, kBpp);
  const Bytes scalar = lfz::unfilter_image_scalar(filtered, width, height, kBpp);
  if (fast != scalar || fast != image) {
    throw std::runtime_error("unfilter fast/scalar mismatch");
  }
  FilterResult result;
  result.mb = static_cast<double>(image.size()) / 1e6;
  result.fast_mb_s = result.mb / best_time(reps, [&] {
                       (void)lfz::unfilter_image(filtered, width, height, kBpp);
                     });
  result.scalar_mb_s = result.mb / best_time(reps, [&] {
                         (void)lfz::unfilter_image_scalar(filtered, width, height, kBpp);
                       });
  result.speedup = result.fast_mb_s / result.scalar_mb_s;
  return result;
}

struct Crc32Result {
  double mb = 0.0;
  double fast_mb_s = 0.0;
  double bytewise_mb_s = 0.0;
  double speedup = 0.0;
};

/// Times crc32() against the byte-at-a-time reference on one deterministic
/// pseudo-random buffer; throws if the two disagree.
Crc32Result measure_crc32(bool smoke, int reps) {
  Bytes data(smoke ? std::size_t{4} << 20 : std::size_t{16} << 20);
  std::uint64_t state = 0x2545f4914f6cdd1dull;
  for (auto& b : data) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<std::uint8_t>(state >> 56);
  }
  std::uint32_t got = 0;
  std::uint32_t want = 0;
  Crc32Result result;
  result.mb = static_cast<double>(data.size()) / 1e6;
  result.fast_mb_s = result.mb / best_time(reps, [&] { got = crc32(data); });
  result.bytewise_mb_s = result.mb / best_time(reps, [&] { want = crc32_bytewise(data); });
  if (got != want) throw std::runtime_error("crc32 disagrees with crc32_bytewise");
  result.speedup = result.fast_mb_s / result.bytewise_mb_s;
  return result;
}

struct DemandCopies {
  std::uint64_t compressed_bytes = 0;   ///< wire size of the published view set
  std::uint64_t cold_copied_bytes = 0;  ///< demand-path copies, cold WAN fetch
  std::uint64_t warm_copied_bytes = 0;  ///< demand-path copies, agent-cache hit
};

/// Virtual-time mini-scenario for the zero-copy demand path: publish one view
/// set across WAN depots, fetch it cold, then hit it warm. Every number is
/// deterministic — the gate pins all three exactly (cold == one pass over the
/// compressed payload, warm == 0).
DemandCopies measure_demand_copies(bool smoke) {
  lightfield::LatticeConfig lattice;
  lattice.angular_step_deg = 15.0;
  lattice.view_set_span = 3;
  lattice.view_resolution = smoke ? 24 : 48;
  auto source = std::make_shared<lightfield::ProceduralSource>(lattice);

  sim::Simulator sim;
  sim::Network net(sim);
  ibp::Fabric fabric(sim, net);
  lors::Lors lors(sim, net, fabric);

  const sim::NodeId lan_switch = net.add_node("lan-switch");
  const sim::NodeId agent_node = net.add_node("agent");
  net.add_link(agent_node, lan_switch, {1e9, 50 * kMicrosecond, 0.0});
  const sim::NodeId wan_router = net.add_node("wan-router");
  net.add_link(lan_switch, wan_router, {100e6, 35 * kMillisecond, 0.0});
  std::vector<std::string> depots;
  for (int i = 0; i < 2; ++i) {
    const std::string name = "ca-" + std::to_string(i);
    const sim::NodeId node = net.add_node(name);
    net.add_link(node, wan_router, {1e9, kMillisecond, 0.0});
    ibp::DepotConfig cfg;
    cfg.capacity_bytes = 1ull << 30;
    fabric.add_depot(node, name, cfg);
    depots.push_back(name);
  }
  const sim::NodeId dvs_node = net.add_node("dvs");
  net.add_link(dvs_node, wan_router, {1e9, kMillisecond, 0.0});
  const sim::NodeId server_node = net.add_node("server");
  net.add_link(server_node, wan_router, {1e9, kMillisecond, 0.0});
  streaming::DvsServer dvs(sim, net, dvs_node, source->lattice());

  const lightfield::ViewSetId id{1, 2};
  DemandCopies result;
  {
    Bytes compressed = source->build_compressed(id);
    result.compressed_bytes = compressed.size();
    lors::UploadOptions up;
    up.depots = depots;
    up.block_bytes = 4096;
    lors.upload_async(server_node, std::move(compressed), up,
                      [&](const lors::UploadResult& r) {
                        if (r.status != lors::LorsStatus::kOk) {
                          throw std::runtime_error("demand scenario upload failed");
                        }
                        exnode::ExNode node = r.exnode;
                        dvs.install(id, std::move(node));
                      });
    sim.run();
  }

  streaming::ClientAgentConfig cfg;
  cfg.prefetch = false;
  streaming::ClientAgent agent(sim, net, fabric, lors, dvs, source->lattice(),
                               agent_node, cfg);
  const auto fetch = [&] {
    bool ok = false;
    agent.request_view_set(id, [&](const streaming::ClientAgent::Delivery& d) {
      ok = !d.payload->empty();
    });
    sim.run();
    if (!ok) throw std::runtime_error("demand scenario fetch failed");
  };
  fetch();
  result.cold_copied_bytes = agent.counter("agent.payload_copy_bytes");
  fetch();
  result.warm_copied_bytes =
      agent.counter("agent.payload_copy_bytes") - result.cold_copied_bytes;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }

  // One deterministic procedural view set (real filter + codec pipeline, no
  // ray casting) at the paper's 2.5-degree view spacing — smoke shrinks the
  // block and resolution to keep the CI gate fast.
  lightfield::LatticeConfig lattice;
  lattice.angular_step_deg = 2.5;
  lattice.view_set_span = smoke ? 3 : 6;
  lattice.view_resolution = smoke ? 128 : 200;
  lightfield::ProceduralSource source(lattice);
  const lightfield::ViewSet vs = source.build(source.lattice().all_view_sets().front());
  const std::uint64_t pixel_bytes = vs.pixel_bytes();

  const Bytes intra = vs.serialize(lightfield::SerializeMode::kIntra);

  const int reps = smoke ? 3 : 5;
  std::vector<Row> rows;
  rows.push_back(measure("stored", intra, pixel_bytes, reps, compress_stored,
                         decompress_plain));
  rows.push_back(measure("lfz1", intra, pixel_bytes, reps, compress_lfz1,
                         decompress_plain));

  const DecodeResult decode = measure_decode(smoke ? std::size_t{1} << 19
                                                   : std::size_t{1} << 21,
                                             reps);
  const FilterResult filters = measure_filters(smoke, reps);
  const Crc32Result crc = measure_crc32(smoke, reps);
  const DemandCopies demand = measure_demand_copies(smoke);

  if (json) {
    std::printf("{\"bench\":\"compression\",\"mode\":\"%s\",\"pixel_bytes\":%llu,"
                "\"results\":[",
                smoke ? "smoke" : "full", static_cast<unsigned long long>(pixel_bytes));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::printf("%s{\"mode\":\"%s\",\"bytes\":%llu,\"payload_bytes\":%llu,"
                  "\"ratio\":%.4f,\"compress_mb_s\":%.2f,\"decompress_mb_s\":%.2f,"
                  "\"decode_copied_bytes\":%llu}",
                  i == 0 ? "" : ",", r.mode, static_cast<unsigned long long>(r.bytes),
                  static_cast<unsigned long long>(r.payload_bytes), r.ratio,
                  r.compress_mb_s, r.decompress_mb_s,
                  static_cast<unsigned long long>(r.decode_copied_bytes));
    }
    std::printf("],\"decode\":{\"symbols\":%zu,\"table_msym_s\":%.2f,"
                "\"bitwise_msym_s\":%.2f,\"speedup\":%.2f},",
                decode.symbols, decode.table_msym_s, decode.bitwise_msym_s,
                decode.speedup);
    std::printf("\"filters\":{\"mb\":%.2f,\"fast_mb_s\":%.1f,\"scalar_mb_s\":%.1f,"
                "\"speedup\":%.2f},",
                filters.mb, filters.fast_mb_s, filters.scalar_mb_s, filters.speedup);
    std::printf("\"crc32\":{\"mb\":%.2f,\"fast_mb_s\":%.1f,\"bytewise_mb_s\":%.1f,"
                "\"speedup\":%.2f},",
                crc.mb, crc.fast_mb_s, crc.bytewise_mb_s, crc.speedup);
    std::printf("\"demand\":{\"compressed_bytes\":%llu,\"cold_copied_bytes\":%llu,"
                "\"warm_copied_bytes\":%llu}}\n",
                static_cast<unsigned long long>(demand.compressed_bytes),
                static_cast<unsigned long long>(demand.cold_copied_bytes),
                static_cast<unsigned long long>(demand.warm_copied_bytes));
    return 0;
  }

  std::printf("codec bench (%s): %llu pixel bytes per view set\n",
              smoke ? "smoke" : "full", static_cast<unsigned long long>(pixel_bytes));
  std::printf("%8s %12s %12s %8s %14s %14s %14s\n", "mode", "wire bytes", "payload",
              "ratio", "comp MB/s", "decomp MB/s", "copied bytes");
  for (const Row& r : rows) {
    std::printf("%8s %12llu %12llu %8.2f %14.1f %14.1f %14llu\n", r.mode,
                static_cast<unsigned long long>(r.bytes),
                static_cast<unsigned long long>(r.payload_bytes), r.ratio,
                r.compress_mb_s, r.decompress_mb_s,
                static_cast<unsigned long long>(r.decode_copied_bytes));
  }
  std::printf("huffman decode: table %.1f Msym/s vs bitwise %.1f Msym/s "
              "(%.2fx, %zu symbols)\n",
              decode.table_msym_s, decode.bitwise_msym_s, decode.speedup,
              decode.symbols);
  std::printf("unfilter: fast %.1f MB/s vs scalar %.1f MB/s (%.2fx on %.1f MB)\n",
              filters.fast_mb_s, filters.scalar_mb_s, filters.speedup, filters.mb);
  std::printf("crc32: slicing-by-16 %.1f MB/s vs bytewise %.1f MB/s (%.2fx on %.1f MB)\n",
              crc.fast_mb_s, crc.bytewise_mb_s, crc.speedup, crc.mb);
  std::printf("demand path: %llu compressed bytes, cold copies %llu "
              "(one landing pass), warm copies %llu\n",
              static_cast<unsigned long long>(demand.compressed_bytes),
              static_cast<unsigned long long>(demand.cold_copied_bytes),
              static_cast<unsigned long long>(demand.warm_copied_bytes));
  return 0;
}
