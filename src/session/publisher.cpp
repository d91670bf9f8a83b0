#include "session/publisher.hpp"

#include <algorithm>
#include <unordered_set>

#include "streaming/types.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace lon::session {

namespace {

constexpr std::uint64_t kFillerSeed = 9;
/// Filler sizes vary this much (fractionally) around the measured mean.
constexpr double kFillerSizeJitter = 0.1;

/// Filler payload: incompressible-looking bytes of a realistic size. These
/// objects are staged and transferred but never decompressed, so only the
/// size matters; random bytes keep any accidental decompression an error.
Bytes make_filler(std::uint64_t size, Rng& rng) {
  Bytes data(size);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  return data;
}

}  // namespace

PublishResult publish_database(sim::Simulator& sim, lors::Lors& lors,
                               streaming::DvsServer& dvs,
                               lightfield::ViewSetSource& source, sim::NodeId server_node,
                               const PublishOptions& options) {
  PublishResult result;
  const auto& lattice = source.lattice();
  const auto all = lattice.all_view_sets();

  std::unordered_set<lightfield::ViewSetId, lightfield::ViewSetIdHash> real_set(
      options.real_ids.begin(), options.real_ids.end());
  const bool all_real = options.real_ids.empty() && !options.all_filler;
  if (options.all_filler && !all.empty()) {
    // Calibrate filler sizes from one genuinely compressed view set.
    real_set.insert(all.front());
  }

  // Pass 1: build the real view sets and measure the mean compressed size.
  std::vector<std::pair<lightfield::ViewSetId, Bytes>> payloads;
  payloads.reserve(all.size());
  std::uint64_t real_bytes = 0;
  std::size_t real_count = 0;
  const std::uint64_t pixel_bytes =
      static_cast<std::uint64_t>(lattice.config().view_set_span) *
      static_cast<std::uint64_t>(lattice.config().view_set_span) *
      lattice.config().view_resolution * lattice.config().view_resolution * 3;

  for (const auto& id : all) {
    if (all_real || real_set.contains(id)) {
      Bytes compressed = source.build_compressed(id);
      real_bytes += compressed.size();
      ++real_count;
      payloads.emplace_back(id, std::move(compressed));
    } else {
      payloads.emplace_back(id, Bytes{});  // filled in pass 2
    }
  }
  if (real_count == 0) {
    // No real content at all: derive a plausible size from the paper's 5-7x
    // ratio regime.
    real_bytes = pixel_bytes / 6;
    real_count = 1;
  }
  const double mean_compressed =
      static_cast<double>(real_bytes) / static_cast<double>(real_count);

  // Pass 2: synthesize filler for the remainder.
  Rng rng(kFillerSeed);
  for (auto& [id, payload] : payloads) {
    if (!payload.empty()) continue;
    const double jitter = 1.0 + kFillerSizeJitter * (2.0 * rng.uniform() - 1.0);
    payload = make_filler(
        static_cast<std::uint64_t>(std::max(1.0, mean_compressed * jitter)), rng);
  }

  // Pass 3: upload everything (LoRS bounds per-call concurrency internally;
  // issue a window of uploads at a time to bound simulator event volume).
  std::size_t next = 0;
  std::size_t outstanding = 0;
  constexpr std::size_t kWindow = 8;
  const std::function<void()> pump = [&]() {
    while (outstanding < kWindow && next < payloads.size()) {
      auto& [id, payload] = payloads[next++];
      ++outstanding;
      result.compressed_bytes += payload.size();
      result.uncompressed_bytes += pixel_bytes;

      lors::UploadOptions upload;
      upload.depots = options.depots;
      upload.replicas = options.replicas;
      upload.lease = streaming::kDatabaseLease;
      upload.net = options.net;
      lors.upload_async(server_node, std::move(payload), upload,
                        [&, id = id](const lors::UploadResult& up) {
                          --outstanding;
                          if (up.status == lors::LorsStatus::kOk) {
                            exnode::ExNode node = up.exnode;
                            node.metadata()["viewset"] = id.key();
                            result.exnodes.emplace_back(id, node);
                            dvs.install(id, std::move(node));
                            ++result.published;
                          } else {
                            ++result.failed;
                            LON_LOG(kWarn, "publisher")
                                << "upload failed for " << id.key() << ": "
                                << lors::to_string(up.status);
                          }
                          pump();
                        });
    }
  };
  pump();
  sim.run();

  result.real = real_count;
  result.mean_compressed = mean_compressed;
  return result;
}

}  // namespace lon::session
