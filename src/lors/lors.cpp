#include "lors/lors.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <span>

#include "util/buffer_pool.hpp"
#include "util/checksum.hpp"
#include "util/log.hpp"

namespace lon::lors {

SimDuration RetryPolicy::backoff_for(int round, Rng& rng) const {
  double backoff = static_cast<double>(base_backoff);
  for (int i = 1; i < round; ++i) backoff *= multiplier;
  backoff = std::min(backoff, static_cast<double>(max_backoff));
  if (jitter_frac > 0.0) {
    backoff *= rng.uniform(1.0 - jitter_frac, 1.0 + jitter_frac);
  }
  return std::max<SimDuration>(1, static_cast<SimDuration>(backoff));
}

const char* to_string(LorsStatus status) {
  switch (status) {
    case LorsStatus::kOk:
      return "ok";
    case LorsStatus::kPartial:
      return "partial";
    case LorsStatus::kNoDepots:
      return "no-depots";
    case LorsStatus::kAllocFailed:
      return "alloc-failed";
    case LorsStatus::kCancelled:
      return "cancelled";
  }
  return "?";
}

// --- upload ------------------------------------------------------------------

namespace {

struct UploadState {
  sim::NodeId client = 0;
  Bytes data;
  UploadOptions options;
  Lors::UploadCallback on_done;

  std::size_t block_count = 0;
  std::size_t next_block = 0;   // next block not yet launched
  std::size_t outstanding = 0;  // launched but unfinished (block, replica) jobs
  std::size_t failures = 0;
  exnode::ExNode exnode;
  ibp::Fabric* fabric = nullptr;
  sim::Simulator* sim = nullptr;
  obs::Tracer* trace = nullptr;
  obs::SpanId span = 0;
};

void upload_launch(const std::shared_ptr<UploadState>& st);

void upload_block_replica(const std::shared_ptr<UploadState>& st, std::size_t block,
                          int replica) {
  const auto& opts = st->options;
  const std::uint64_t offset = block * opts.block_bytes;
  const std::uint64_t length =
      std::min<std::uint64_t>(opts.block_bytes, st->data.size() - offset);
  // Replicas of one block land on distinct depots by rotating the stripe.
  const std::size_t depot_index = (block + static_cast<std::size_t>(replica)) %
                                  opts.depots.size();
  const std::string& depot = opts.depots[depot_index];

  ibp::AllocRequest alloc;
  alloc.size = length;
  alloc.lease = opts.lease;
  alloc.type = opts.alloc_type;

  st->fabric->allocate_async(
      st->client, depot, alloc,
      [st, block, offset, length](ibp::IbpStatus status, const ibp::CapabilitySet& caps) {
        if (status != ibp::IbpStatus::kOk) {
          LON_LOG(kDebug, "lors") << "upload allocate failed: " << ibp::to_string(status);
          ++st->failures;
          --st->outstanding;
          upload_launch(st);
          return;
        }
        // Server-bound staging copy: store_async takes ownership of the block
        // it sends, so striping the source object means one slice per block.
        // This is upload-side cost, not demand-path cost, but it is a real
        // payload pass — account it on the global copy meter.
        Bytes chunk(st->data.begin() + static_cast<long>(offset),
                    st->data.begin() + static_cast<long>(offset + length));
        util::account_payload_copy(length);
        st->fabric->store_async(
            st->client, caps.write, 0, std::move(chunk), st->options.net,
            [st, block, offset, caps](ibp::IbpStatus store_status) {
              if (store_status != ibp::IbpStatus::kOk) {
                ++st->failures;
              } else {
                exnode::Replica rep;
                rep.read = caps.read;
                rep.manage = caps.manage;
                rep.alloc_offset = 0;
                st->exnode.add_replica(offset, std::move(rep));
              }
              --st->outstanding;
              upload_launch(st);
            });
      });
}

void upload_launch(const std::shared_ptr<UploadState>& st) {
  const auto& opts = st->options;
  const std::size_t total_jobs = st->block_count * static_cast<std::size_t>(opts.replicas);
  while (st->next_block < total_jobs &&
         st->outstanding < static_cast<std::size_t>(opts.max_concurrent)) {
    const std::size_t job = st->next_block++;
    ++st->outstanding;
    upload_block_replica(st, job / opts.replicas, static_cast<int>(job % opts.replicas));
  }
  if (st->outstanding == 0 && st->next_block >= total_jobs && st->on_done) {
    UploadResult result;
    result.exnode = std::move(st->exnode);
    if (st->failures == 0 && result.exnode.complete()) {
      result.status = LorsStatus::kOk;
    } else if (result.exnode.complete()) {
      // Every block has at least one replica even though some copies failed.
      result.status = LorsStatus::kOk;
    } else {
      result.status = LorsStatus::kAllocFailed;
    }
    st->trace->arg(st->span, "status", to_string(result.status));
    st->trace->end(st->span, st->sim->now());
    auto cb = std::move(st->on_done);
    st->on_done = nullptr;
    cb(result);
  }
}

}  // namespace

void Lors::upload_async(sim::NodeId client, Bytes data, const UploadOptions& options,
                        UploadCallback on_done) {
  if (options.depots.empty() ||
      static_cast<std::size_t>(options.replicas) > options.depots.size() ||
      options.replicas < 1 || options.block_bytes == 0 || data.empty()) {
    sim_.after(0, [cb = std::move(on_done)] {
      UploadResult r;
      r.status = LorsStatus::kNoDepots;
      cb(r);
    });
    return;
  }
  auto st = std::make_shared<UploadState>();
  st->client = client;
  st->data = std::move(data);
  st->options = options;
  st->on_done = std::move(on_done);
  st->block_count = (st->data.size() + options.block_bytes - 1) / options.block_bytes;
  st->exnode.set_length(st->data.size());
  for (std::size_t b = 0; b < st->block_count; ++b) {
    exnode::Extent extent;
    extent.offset = b * options.block_bytes;
    extent.length = std::min<std::uint64_t>(options.block_bytes,
                                            st->data.size() - extent.offset);
    // Checksum at the source, before any byte crosses the network: the only
    // place the uploader provably holds the true bytes.
    extent.checksum = crc32(std::span(st->data).subspan(extent.offset, extent.length));
    st->exnode.add_extent(std::move(extent));
  }
  st->fabric = &fabric_;
  st->sim = &sim_;
  st->trace = &obs_.trace;
  st->span = obs_.trace.begin("lors.upload", sim_.now());
  obs_.trace.arg(st->span, "bytes", st->data.size());
  obs_.trace.arg(st->span, "blocks", st->block_count);
  upload_launch(st);
}

// --- download ----------------------------------------------------------------

namespace {

struct DownloadState {
  sim::NodeId client = 0;
  exnode::ExNode node;
  DownloadOptions options;
  Lors::DownloadCallback on_done;

  /// Pooled result slab. Extents land in here scatter-gather (the fabric's
  /// destination-buffer load writes each block at its final offset), so the
  /// assembled object is never copied again after the landing pass.
  std::shared_ptr<Bytes> data;
  std::uint64_t copied = 0;  ///< payload bytes landed (incl. re-fetched blocks)
  std::size_t next_extent = 0;
  std::size_t outstanding = 0;
  std::size_t failed = 0;
  std::size_t failovers = 0;
  std::size_t corrupt = 0;
  std::size_t retries = 0;
  ibp::Fabric* fabric = nullptr;
  sim::Network* net = nullptr;
  sim::Simulator* sim = nullptr;
  Rng* rng = nullptr;
  obs::Counter* retries_metric = nullptr;
  obs::Counter* failovers_metric = nullptr;
  obs::Counter* corruption_metric = nullptr;
  obs::Tracer* trace = nullptr;
  obs::SpanId span = 0;

  /// Blocks that landed this virtual instant and await batched verification
  /// on the pool. One zero-delay barrier event is in flight per batch.
  struct ArrivedBlock {
    std::size_t extent_index = 0;
    std::shared_ptr<std::vector<std::size_t>> order;
    std::size_t attempt = 0;
    int round = 1;
    std::size_t received = 0;  ///< bytes the fabric landed in the slab
    bool ok = false;
  };
  std::vector<ArrivedBlock> verify_batch;
  bool verify_scheduled = false;
};

void download_launch(const std::shared_ptr<DownloadState>& st);
void download_extent_try(const std::shared_ptr<DownloadState>& st, std::size_t extent_index,
                         std::shared_ptr<std::vector<std::size_t>> order, std::size_t attempt,
                         int round);

/// The one verdict on a landed block, shared by the serial and pooled
/// paths: the fabric landed exactly the extent's length and, when upload
/// recorded a CRC32, the bytes now in the slab match it.
bool block_ok(const DownloadState& st, const exnode::Extent& ext, std::size_t received) {
  return received == ext.length &&
         (!ext.checksum.has_value() ||
          crc32(std::span<const std::uint8_t>(*st.data).subspan(ext.offset, ext.length)) ==
              *ext.checksum);
}

/// Drains the batch of same-instant arrivals: checksums run across the pool
/// (each block verified in place over its disjoint slab region — nothing is
/// copied), then outcomes are handled on the simulator thread in ascending
/// extent order. The barrier fires via after(0), so no virtual time passes
/// and the serial path's behaviour — bytes, counters, failovers, completion
/// time — is reproduced exactly.
void download_verify_batch(const std::shared_ptr<DownloadState>& st) {
  st->verify_scheduled = false;
  auto batch = std::move(st->verify_batch);
  st->verify_batch.clear();
  if (batch.empty()) return;
  std::sort(batch.begin(), batch.end(),
            [](const DownloadState::ArrivedBlock& a, const DownloadState::ArrivedBlock& b) {
              return a.extent_index < b.extent_index;
            });
  st->options.pool->parallel_for(0, batch.size(), [&](std::size_t i) {
    DownloadState::ArrivedBlock& block = batch[i];
    block.ok = block_ok(*st, st->node.extents()[block.extent_index], block.received);
  });
  for (auto& block : batch) {
    const exnode::Extent& ext = st->node.extents()[block.extent_index];
    if (!block.ok) {
      ++st->corrupt;
      st->corruption_metric->inc();
      st->trace->instant("lors.corruption", st->sim->now(), st->span);
      LON_LOG(kDebug, "lors") << "block at " << ext.offset
                              << " failed verification, failing over";
      download_extent_try(st, block.extent_index, block.order, block.attempt + 1,
                          block.round);
      continue;
    }
    --st->outstanding;
  }
  download_launch(st);
}

/// Replica preference: exNode order is meaningful (staged replicas are
/// placed first), but among equals the closest depot wins.
std::vector<std::size_t> replica_order(const DownloadState& st, const exnode::Extent& extent) {
  std::vector<std::size_t> order(extent.replicas.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto node_of = [&](std::size_t i) {
      return st.fabric->depot_node(extent.replicas[i].read.depot);
    };
    SimDuration la = std::numeric_limits<SimDuration>::max();
    SimDuration lb = la;
    if (st.net->reachable(st.client, node_of(a))) la = st.net->path_latency(st.client, node_of(a));
    if (st.net->reachable(st.client, node_of(b))) lb = st.net->path_latency(st.client, node_of(b));
    return la < lb;
  });
  return order;
}

void download_extent_try(const std::shared_ptr<DownloadState>& st, std::size_t extent_index,
                         std::shared_ptr<std::vector<std::size_t>> order, std::size_t attempt,
                         int round) {
  const exnode::Extent& extent = st->node.extents()[extent_index];
  if (attempt >= order->size()) {
    // This round exhausted every replica. Back off and go again if the
    // policy allows — a transient partition or depot restart may have
    // cleared by then — otherwise the extent is lost for this download.
    if (!order->empty() && round < st->options.retry.max_attempts) {
      ++st->retries;
      st->retries_metric->inc();
      st->trace->instant("lors.retry", st->sim->now(), st->span);
      const SimDuration backoff = st->options.retry.backoff_for(round, *st->rng);
      st->sim->after(backoff, [st, extent_index, round] {
        // Reachability may have changed during the backoff: re-rank.
        auto fresh = std::make_shared<std::vector<std::size_t>>(
            replica_order(*st, st->node.extents()[extent_index]));
        download_extent_try(st, extent_index, fresh, 0, round + 1);
      });
      return;
    }
    // A corrupt or short attempt may have landed bytes in the slab before
    // verification rejected it; the delivery contract is that a failed
    // extent reads as zeros, never as rejected bytes.
    if (st->data != nullptr && extent.offset + extent.length <= st->data->size()) {
      std::fill(st->data->begin() + static_cast<long>(extent.offset),
                st->data->begin() + static_cast<long>(extent.offset + extent.length),
                std::uint8_t{0});
    }
    ++st->failed;
    --st->outstanding;
    download_launch(st);
    return;
  }
  if (attempt > 0) {
    ++st->failovers;
    st->failovers_metric->inc();
    st->trace->instant("lors.failover", st->sim->now(), st->span);
  }
  const exnode::Replica& replica = extent.replicas[(*order)[attempt]];
  // One span per block-fetch attempt: the IBP leg of the lifeline. Failed
  // attempts show as short spans followed by a failover sibling.
  const obs::SpanId load_span = st->trace->begin("ibp.load", st->sim->now(), st->span);
  st->trace->arg(load_span, "depot", replica.read.depot);
  st->trace->arg(load_span, "offset", extent.offset);
  // Scatter-gather fetch: the fabric lands the block directly at its final
  // offset in the pooled result slab, so the landing pass is the only time
  // these payload bytes are touched by a copy.
  st->fabric->load_async(
      st->client, replica.read, replica.alloc_offset, extent.length, st->options.net,
      st->data, extent.offset,
      [st, extent_index, order, attempt, round, load_span](ibp::IbpStatus status,
                                                           std::size_t received) {
        st->trace->arg(load_span, "status", ibp::to_string(status));
        st->trace->end(load_span, st->sim->now());
        const exnode::Extent& ext = st->node.extents()[extent_index];
        if (status != ibp::IbpStatus::kOk) {
          LON_LOG(kDebug, "lors") << "download replica failed (" << ibp::to_string(status)
                                  << "), failing over";
          download_extent_try(st, extent_index, order, attempt + 1, round);
          return;
        }
        // Every landed byte is one physical copy, including blocks a failed
        // verification forces back over the network.
        st->copied += received;
        // CPU-bound verification goes to the pool when one is configured:
        // batch this arrival and drain behind a zero-delay barrier so
        // same-instant blocks are checksummed in parallel.
        if (st->options.pool != nullptr) {
          st->verify_batch.push_back(DownloadState::ArrivedBlock{
              extent_index, order, attempt, round, received});
          if (!st->verify_scheduled) {
            st->verify_scheduled = true;
            st->sim->after(0, [st] { download_verify_batch(st); });
          }
          return;
        }
        // Trust nothing that crossed the network: a depot can serve rotted
        // or short bytes with a straight face. A bad block is a failed fetch
        // — it is re-fetched over (or zeroed out of) its slab region, never
        // delivered.
        if (!block_ok(*st, ext, received)) {
          ++st->corrupt;
          st->corruption_metric->inc();
          st->trace->instant("lors.corruption", st->sim->now(), st->span);
          LON_LOG(kDebug, "lors") << "block at " << ext.offset
                                  << " failed verification, failing over";
          download_extent_try(st, extent_index, order, attempt + 1, round);
          return;
        }
        --st->outstanding;
        download_launch(st);
      });
}

void download_launch(const std::shared_ptr<DownloadState>& st) {
  const auto& extents = st->node.extents();
  while (st->next_extent < extents.size() &&
         st->outstanding < static_cast<std::size_t>(st->options.max_concurrent)) {
    const std::size_t index = st->next_extent++;
    ++st->outstanding;
    auto order = std::make_shared<std::vector<std::size_t>>(
        replica_order(*st, extents[index]));
    download_extent_try(st, index, order, 0, 1);
  }
  if (st->outstanding == 0 && st->next_extent >= extents.size() && st->on_done) {
    DownloadResult result;
    result.blocks_total = extents.size();
    result.blocks_failed = st->failed;
    result.replica_failovers = st->failovers;
    result.corruption_detected = st->corrupt;
    result.retries = st->retries;
    result.status = st->failed == 0 ? LorsStatus::kOk : LorsStatus::kPartial;
    result.data = std::move(st->data);
    result.copied_bytes = st->copied;
    st->trace->arg(st->span, "status", to_string(result.status));
    st->trace->arg(st->span, "blocks_failed", result.blocks_failed);
    st->trace->end(st->span, st->sim->now());
    auto cb = std::move(st->on_done);
    st->on_done = nullptr;
    cb(std::move(result));
  }
}

}  // namespace

void Lors::download_async(sim::NodeId client, const exnode::ExNode& node,
                          const DownloadOptions& options, DownloadCallback on_done) {
  auto st = std::make_shared<DownloadState>();
  st->client = client;
  st->node = node;
  st->options = options;
  st->on_done = std::move(on_done);
  // The result slab comes from a buffer pool: a steady-state client re-uses
  // the same few slabs instead of churning the allocator per access, and the
  // slab travels by reference all the way to the renderer.
  st->data = util::BufferPool::shared().acquire(node.length());
  st->fabric = &fabric_;
  st->net = &net_;
  st->sim = &sim_;
  st->rng = &rng_;
  st->retries_metric = &metrics_.retries;
  st->failovers_metric = &metrics_.failovers;
  st->corruption_metric = &metrics_.corruption_detected;
  st->trace = &obs_.trace;
  st->span = obs_.trace.begin("lors.download", sim_.now(), options.parent_span);
  obs_.trace.arg(st->span, "bytes", node.length());
  obs_.trace.arg(st->span, "blocks", node.extents().size());
  if (node.extents().empty()) {
    sim_.after(0, [st] { download_launch(st); });
    return;
  }
  download_launch(st);
}

// --- augment -----------------------------------------------------------------

namespace {

struct AugmentState {
  sim::NodeId client = 0;
  AugmentOptions options;
  Lors::AugmentCallback on_done;

  exnode::ExNode exnode;
  std::size_t next_extent = 0;
  std::size_t outstanding = 0;
  std::size_t copied = 0;
  std::size_t failed = 0;
  ibp::Fabric* fabric = nullptr;
  sim::Simulator* sim = nullptr;
  obs::Tracer* trace = nullptr;
  obs::SpanId span = 0;
};

void augment_launch(const std::shared_ptr<AugmentState>& st);

void augment_extent(const std::shared_ptr<AugmentState>& st, std::size_t extent_index) {
  const exnode::Extent& extent = st->exnode.extents()[extent_index];
  if (extent.replicas.empty()) {
    ++st->failed;
    --st->outstanding;
    augment_launch(st);
    return;
  }
  const exnode::Replica& source = extent.replicas.front();

  ibp::Fabric::CopyRequest req;
  req.src_read = source.read;
  req.dst_depot = st->options.target_depot;
  req.src_offset = source.alloc_offset;
  req.length = extent.length;
  req.dst_alloc.size = extent.length;
  req.dst_alloc.lease = st->options.lease;
  req.dst_alloc.type = st->options.alloc_type;
  req.net = st->options.net;

  st->fabric->copy_async(
      st->client, req,
      [st, extent_index](ibp::IbpStatus status, const ibp::CapabilitySet& caps) {
        if (status != ibp::IbpStatus::kOk) {
          ++st->failed;
        } else {
          ++st->copied;
          exnode::Replica rep;
          rep.read = caps.read;
          rep.manage = caps.manage;
          rep.alloc_offset = 0;
          st->exnode.add_replica(st->exnode.extents()[extent_index].offset, std::move(rep),
                                 st->options.preferred);
        }
        --st->outstanding;
        augment_launch(st);
      });
}

void augment_launch(const std::shared_ptr<AugmentState>& st) {
  const std::size_t total = st->exnode.extents().size();
  while (st->next_extent < total &&
         st->outstanding < static_cast<std::size_t>(st->options.max_concurrent)) {
    const std::size_t index = st->next_extent++;
    ++st->outstanding;
    augment_extent(st, index);
  }
  if (st->outstanding == 0 && st->next_extent >= total && st->on_done) {
    AugmentResult result;
    result.extents_copied = st->copied;
    result.extents_failed = st->failed;
    result.status = st->failed == 0 ? LorsStatus::kOk : LorsStatus::kPartial;
    result.exnode = std::move(st->exnode);
    st->trace->arg(st->span, "status", to_string(result.status));
    st->trace->arg(st->span, "copied", result.extents_copied);
    st->trace->end(st->span, st->sim->now());
    auto cb = std::move(st->on_done);
    st->on_done = nullptr;
    cb(result);
  }
}

}  // namespace

void Lors::augment_async(sim::NodeId client, const exnode::ExNode& node,
                         const AugmentOptions& options, AugmentCallback on_done) {
  if (options.target_depot.empty() || fabric_.find_depot(options.target_depot) == nullptr) {
    sim_.after(0, [cb = std::move(on_done), node] {
      AugmentResult r;
      r.status = LorsStatus::kNoDepots;
      r.exnode = node;
      cb(r);
    });
    return;
  }
  auto st = std::make_shared<AugmentState>();
  st->client = client;
  st->options = options;
  st->on_done = std::move(on_done);
  st->exnode = node;
  st->fabric = &fabric_;
  st->sim = &sim_;
  st->trace = &obs_.trace;
  st->span = obs_.trace.begin("lors.augment", sim_.now(), options.parent_span);
  obs_.trace.arg(st->span, "target", options.target_depot);
  if (node.extents().empty()) {
    sim_.after(0, [st] { augment_launch(st); });
    return;
  }
  augment_launch(st);
}

// --- refresh -----------------------------------------------------------------

namespace {

struct RefreshState {
  Lors::RefreshResult result;
  std::size_t outstanding = 0;
  bool launched_all = false;
  Lors::RefreshCallback on_done;

  void finish_one() {
    --outstanding;
    maybe_done();
  }
  void maybe_done() {
    if (launched_all && outstanding == 0 && on_done) {
      result.status =
          result.failed == 0 ? LorsStatus::kOk : LorsStatus::kPartial;
      auto cb = std::move(on_done);
      on_done = nullptr;
      cb(result);
    }
  }
};

}  // namespace

void Lors::refresh_async(sim::NodeId client, const exnode::ExNode& node,
                         SimDuration extra, RefreshCallback on_done) {
  auto st = std::make_shared<RefreshState>();
  st->on_done = std::move(on_done);
  for (const auto& extent : node.extents()) {
    for (const auto& replica : extent.replicas) {
      if (!replica.manage.has_value()) {
        ++st->result.failed;
        continue;
      }
      ++st->outstanding;
      fabric_.extend_async(client, *replica.manage, extra, [st](ibp::IbpStatus status) {
        if (status == ibp::IbpStatus::kOk) {
          ++st->result.extended;
        } else {
          ++st->result.failed;
        }
        st->finish_one();
      });
    }
  }
  st->launched_all = true;
  if (st->outstanding == 0) {
    sim_.after(0, [st] { st->maybe_done(); });
  }
}

// --- repair ------------------------------------------------------------------

namespace {

struct RepairState {
  sim::NodeId client = 0;
  RepairOptions options;
  Lors::RepairCallback on_done;

  exnode::ExNode original;
  RepairResult result;
  std::vector<std::vector<bool>> alive;  // [extent][replica] probe outcome
  std::size_t probes_outstanding = 0;
  bool probes_launched = false;

  struct Job {
    std::size_t extent = 0;
    std::string depot;
  };
  std::vector<Job> jobs;
  std::size_t next_job = 0;
  std::size_t jobs_outstanding = 0;

  ibp::Fabric* fabric = nullptr;
  sim::Simulator* sim = nullptr;
  obs::Counter* replicas_lost_metric = nullptr;
  obs::Counter* replicas_repaired_metric = nullptr;
  obs::Tracer* trace = nullptr;
  obs::SpanId span = 0;
};

void repair_plan(const std::shared_ptr<RepairState>& st);
void repair_pump(const std::shared_ptr<RepairState>& st);

void repair_probe_done(const std::shared_ptr<RepairState>& st, std::size_t extent,
                       std::size_t replica, bool ok) {
  st->alive[extent][replica] = ok;
  ++st->result.replicas_probed;
  --st->probes_outstanding;
  if (st->probes_launched && st->probes_outstanding == 0) repair_plan(st);
}

/// Phase 1: every replica answers for itself — a probe through the manage
/// capability when we own one, a 1-byte read otherwise. Anything but kOk
/// (offline, expired, revoked, timed out) counts the replica as gone.
void repair_probe(const std::shared_ptr<RepairState>& st) {
  const auto& extents = st->original.extents();
  st->alive.assign(extents.size(), {});
  for (std::size_t i = 0; i < extents.size(); ++i) {
    st->alive[i].assign(extents[i].replicas.size(), false);
    for (std::size_t j = 0; j < extents[i].replicas.size(); ++j) {
      const exnode::Replica& rep = extents[i].replicas[j];
      ++st->probes_outstanding;
      if (rep.manage.has_value()) {
        st->fabric->probe_async(st->client, *rep.manage,
                                [st, i, j](ibp::IbpStatus status, const ibp::AllocInfo&) {
                                  repair_probe_done(st, i, j, status == ibp::IbpStatus::kOk);
                                });
      } else {
        st->fabric->load_async(st->client, rep.read, rep.alloc_offset, 1,
                               st->options.net, std::make_shared<Bytes>(1), 0,
                               [st, i, j](ibp::IbpStatus status, std::size_t) {
                                 repair_probe_done(st, i, j, status == ibp::IbpStatus::kOk);
                               });
      }
    }
  }
  st->probes_launched = true;
  if (st->probes_outstanding == 0) {
    st->sim->after(0, [st] { repair_plan(st); });
  }
}

/// Phase 2: rebuild the exNode with only the survivors, then plan one copy
/// job per missing replica onto a candidate depot that neither already holds
/// the extent nor is known-offline.
void repair_plan(const std::shared_ptr<RepairState>& st) {
  const auto& extents = st->original.extents();
  exnode::ExNode healed(st->original.length());
  healed.metadata() = st->original.metadata();
  for (std::size_t i = 0; i < extents.size(); ++i) {
    exnode::Extent ext;
    ext.offset = extents[i].offset;
    ext.length = extents[i].length;
    ext.checksum = extents[i].checksum;
    const auto& probes = st->alive[i];
    const bool any_alive =
        std::find(probes.begin(), probes.end(), true) != probes.end();
    if (!any_alive && !extents[i].replicas.empty()) {
      // Every replica went dark at once — almost always a transient
      // multi-depot outage, not data loss. Keep the pointers: a dead
      // capability is strictly better than none, and the next sweep can
      // still tell survivors from corpses after the depots restart.
      ext.replicas = extents[i].replicas;
      ++st->result.extents_dark;
    } else {
      for (std::size_t j = 0; j < extents[i].replicas.size(); ++j) {
        if (probes[j]) {
          ext.replicas.push_back(extents[i].replicas[j]);
        } else {
          ++st->result.replicas_lost;
          st->replicas_lost_metric->inc();
        }
      }
    }
    healed.add_extent(std::move(ext));
  }
  st->result.exnode = std::move(healed);

  for (std::size_t i = 0; i < st->result.exnode.extents().size(); ++i) {
    const exnode::Extent& ext = st->result.exnode.extents()[i];
    const auto& probes = st->alive[i];
    if (std::find(probes.begin(), probes.end(), true) == probes.end()) {
      continue;  // no live replica to copy from
    }
    std::set<std::string> hosting;
    for (const auto& rep : ext.replicas) hosting.insert(rep.read.depot);
    auto needed = static_cast<std::size_t>(st->options.target_replicas);
    std::size_t have = ext.replicas.size();
    for (const std::string& depot : st->options.candidate_depots) {
      if (have >= needed) break;
      if (hosting.contains(depot)) continue;
      if (st->fabric->find_depot(depot) == nullptr || st->fabric->is_offline(depot)) {
        continue;
      }
      hosting.insert(depot);
      ++have;
      st->jobs.push_back({i, depot});
    }
  }
  repair_pump(st);
}

/// Phase 3: run the copy jobs with bounded concurrency, then report.
void repair_pump(const std::shared_ptr<RepairState>& st) {
  while (st->next_job < st->jobs.size() &&
         st->jobs_outstanding < static_cast<std::size_t>(st->options.max_concurrent)) {
    const RepairState::Job job = st->jobs[st->next_job++];
    ++st->jobs_outstanding;
    const exnode::Extent& ext = st->result.exnode.extents()[job.extent];
    const exnode::Replica& source = ext.replicas.front();

    ibp::Fabric::CopyRequest req;
    req.src_read = source.read;
    req.dst_depot = job.depot;
    req.src_offset = source.alloc_offset;
    req.length = ext.length;
    req.dst_alloc.size = ext.length;
    req.dst_alloc.lease = st->options.lease;
    req.dst_alloc.type = st->options.alloc_type;
    req.net = st->options.net;

    st->fabric->copy_async(
        st->client, req,
        [st, job](ibp::IbpStatus status, const ibp::CapabilitySet& caps) {
          if (status == ibp::IbpStatus::kOk) {
            ++st->result.replicas_added;
            st->replicas_repaired_metric->inc();
            exnode::Replica rep;
            rep.read = caps.read;
            rep.manage = caps.manage;
            rep.alloc_offset = 0;
            st->result.exnode.add_replica(
                st->result.exnode.extents()[job.extent].offset, std::move(rep));
          }
          --st->jobs_outstanding;
          repair_pump(st);
        });
  }
  if (st->jobs_outstanding == 0 && st->next_job >= st->jobs.size() && st->on_done) {
    for (const auto& ext : st->result.exnode.extents()) {
      if (ext.replicas.size() < static_cast<std::size_t>(st->options.target_replicas)) {
        ++st->result.extents_short;
      }
    }
    st->result.status = st->result.extents_short == 0 && st->result.extents_dark == 0
                            ? LorsStatus::kOk
                            : LorsStatus::kPartial;
    st->trace->arg(st->span, "status", to_string(st->result.status));
    st->trace->arg(st->span, "lost", st->result.replicas_lost);
    st->trace->arg(st->span, "repaired", st->result.replicas_added);
    st->trace->end(st->span, st->sim->now());
    auto cb = std::move(st->on_done);
    st->on_done = nullptr;
    cb(st->result);
  }
}

}  // namespace

void Lors::repair_async(sim::NodeId client, const exnode::ExNode& node,
                        const RepairOptions& options, RepairCallback on_done) {
  metrics_.repairs_run.inc();
  auto st = std::make_shared<RepairState>();
  st->client = client;
  st->options = options;
  st->on_done = std::move(on_done);
  st->original = node;
  st->fabric = &fabric_;
  st->sim = &sim_;
  st->replicas_lost_metric = &metrics_.replicas_lost;
  st->replicas_repaired_metric = &metrics_.replicas_repaired;
  st->trace = &obs_.trace;
  st->span = obs_.trace.begin("lors.repair", sim_.now());
  repair_probe(st);
}

}  // namespace lon::lors
