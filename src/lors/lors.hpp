// The Logistical Runtime System (LoRS).
//
// Higher-level data movement composed from primitive IBP operations — the
// "higher-level tools and protocols with more abstract semantics running on
// clients" of the exposed LoN architecture (paper section 2.2):
//
//  * upload: stripe an object across depots in fixed-size blocks, with a
//    configurable replica count per block, producing an exNode;
//  * download: reassemble an object from its exNode using a bounded pool of
//    concurrent block fetches over parallel TCP streams (the multi-threaded
//    wide-area download algorithms of Plank et al., CS-02-485), preferring
//    the lowest-latency replica and failing over to others on error;
//  * augment/stage: add a replica of every extent on a target depot via
//    third-party copies, optionally making it the preferred replica — this
//    is the mechanism behind aggressive prestaging to a LAN depot.
//
// All calls are asynchronous in virtual time: they return immediately and
// invoke the callback when the composed operation completes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exnode/exnode.hpp"
#include "ibp/service.hpp"
#include "obs/obs.hpp"
#include "simnet/network.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace lon::lors {

/// Outcome of a composed LoRS operation.
enum class LorsStatus {
  kOk,
  kPartial,      ///< some blocks failed on every replica
  kNoDepots,     ///< no depot available for upload/augment
  kAllocFailed,  ///< allocation refused and no alternative worked
  kCancelled,
};

[[nodiscard]] const char* to_string(LorsStatus status);

struct UploadOptions {
  std::vector<std::string> depots;   ///< round-robin stripe targets (required)
  std::uint64_t block_bytes = 512 * 1024;  ///< stripe unit
  int replicas = 1;                  ///< copies of each block on distinct depots
  SimDuration lease = 3600 * kSecond;
  ibp::AllocType alloc_type = ibp::AllocType::kHard;
  sim::TransferOptions net;          ///< per-block transfer options
  int max_concurrent = 8;            ///< in-flight block uploads
};

/// Retry discipline for a composed operation. One "attempt" is a full round
/// over every replica of an extent; between rounds the client backs off
/// exponentially with seeded jitter so that many clients recovering from the
/// same depot failure do not retry in lockstep.
struct RetryPolicy {
  int max_attempts = 1;              ///< rounds over the replica set (1 = no retry)
  SimDuration base_backoff = 100 * kMillisecond;
  double multiplier = 2.0;           ///< backoff growth per round
  double jitter_frac = 0.25;         ///< +/- fraction applied to each backoff
  SimDuration max_backoff = 10 * kSecond;

  /// Backoff before retry round `round` (1-based: the wait after round
  /// `round` failed). Jitter is drawn from `rng`.
  [[nodiscard]] SimDuration backoff_for(int round, Rng& rng) const;
};

struct DownloadOptions {
  sim::TransferOptions net;          ///< per-block transfer options
  int max_concurrent = 8;            ///< in-flight block downloads
  RetryPolicy retry;                 ///< rounds + backoff when every replica fails
  /// When set, checksum verification and result assembly of blocks that land
  /// at the same virtual instant run batched across this pool instead of
  /// serially on the simulator thread. Results are processed in ascending
  /// extent order behind a zero-delay barrier, so the outcome (bytes, status,
  /// counters, virtual completion time) is identical to the serial path.
  ThreadPool* pool = nullptr;
  /// Parent for the lors.download trace span — lets the span chain survive
  /// the async hop from whoever requested the download.
  obs::SpanId parent_span = 0;
};

struct AugmentOptions {
  std::string target_depot;          ///< depot that receives the new replicas
  bool preferred = false;            ///< place the new replica first
  SimDuration lease = 3600 * kSecond;
  ibp::AllocType alloc_type = ibp::AllocType::kSoft;  ///< staging is soft by default
  sim::TransferOptions net;          ///< options for depot-to-depot flows
  int max_concurrent = 4;
  obs::SpanId parent_span = 0;       ///< parent for the lors.augment trace span
};

struct UploadResult {
  LorsStatus status = LorsStatus::kOk;
  exnode::ExNode exnode;
};

struct DownloadResult {
  LorsStatus status = LorsStatus::kOk;
  /// The assembled object in a pooled slab (never null once the callback
  /// fires). Stripes land scatter-gather directly in here; downstream layers
  /// alias the slab instead of copying it, and the pool reclaims it when the
  /// last holder lets go.
  std::shared_ptr<Bytes> data;
  std::size_t blocks_total = 0;
  std::size_t blocks_failed = 0;
  std::size_t replica_failovers = 0;  ///< fetches that had to try another replica
  std::size_t corruption_detected = 0;  ///< checksum mismatches (never delivered)
  std::size_t retries = 0;            ///< extra retry rounds taken
  /// Payload bytes physically copied assembling this download — one landing
  /// pass per delivered block, plus one per corrupt/failed arrival that had
  /// to be re-fetched. The demand path's bytes-copied-per-access gate is
  /// built on this.
  std::uint64_t copied_bytes = 0;
};

struct AugmentResult {
  LorsStatus status = LorsStatus::kOk;
  exnode::ExNode exnode;             ///< input exNode plus the new replicas
  std::size_t extents_copied = 0;
  std::size_t extents_failed = 0;
};

struct RepairOptions {
  int target_replicas = 2;           ///< desired live replicas per extent
  std::vector<std::string> candidate_depots;  ///< where new replicas may land
  SimDuration lease = 3600 * kSecond;
  ibp::AllocType alloc_type = ibp::AllocType::kHard;
  sim::TransferOptions net;          ///< options for the repair copies
  int max_concurrent = 4;
};

struct RepairResult {
  LorsStatus status = LorsStatus::kOk;  ///< kPartial if any extent stays short
  exnode::ExNode exnode;             ///< input minus dead replicas plus new ones
  std::size_t replicas_probed = 0;
  std::size_t replicas_lost = 0;     ///< dead replicas dropped from the exNode
  std::size_t replicas_added = 0;    ///< repair copies that landed
  std::size_t extents_short = 0;     ///< extents still below target afterwards
  /// Extents whose every replica probed dead in the same sweep. Their
  /// original replicas are kept verbatim (dropping the last pointers would
  /// turn a transient multi-depot outage into permanent loss); a later sweep
  /// separates survivors from corpses once something answers again.
  std::size_t extents_dark = 0;
};

class Lors {
 public:
  /// `seed` drives retry-backoff jitter (and nothing else), so runs are
  /// replayable bit-for-bit.
  Lors(sim::Simulator& sim, sim::Network& net, ibp::Fabric& fabric,
       std::uint64_t seed = 0x10f5, obs::Context* obs = nullptr)
      : sim_(sim),
        net_(net),
        fabric_(fabric),
        rng_(seed),
        obs_(obs != nullptr ? *obs : obs::global()),
        scope_(obs_.metrics.scope("lors")),
        metrics_{scope_.counter("lors.retries"),
                 scope_.counter("lors.failovers"),
                 scope_.counter("lors.corruption_detected"),
                 scope_.counter("lors.repairs_run"),
                 scope_.counter("lors.replicas_repaired"),
                 scope_.counter("lors.replicas_lost")} {}

  Lors(const Lors&) = delete;
  Lors& operator=(const Lors&) = delete;

  using UploadCallback = std::function<void(const UploadResult&)>;
  /// Stripes `data` across options.depots from node `client`.
  void upload_async(sim::NodeId client, Bytes data, const UploadOptions& options,
                    UploadCallback on_done);

  using DownloadCallback = std::function<void(DownloadResult)>;
  /// Reassembles the exNode's object at node `client`. Every landed block is
  /// verified: its length must equal the extent's and, when the extent
  /// records a CRC32 from upload, its checksum must match. A block that
  /// fails either check is a failed fetch (failover to the next replica).
  void download_async(sim::NodeId client, const exnode::ExNode& node,
                      const DownloadOptions& options, DownloadCallback on_done);

  using AugmentCallback = std::function<void(const AugmentResult&)>;
  /// Adds a replica of every extent onto options.target_depot via
  /// third-party copies orchestrated from `client`.
  void augment_async(sim::NodeId client, const exnode::ExNode& node,
                     const AugmentOptions& options, AugmentCallback on_done);

  struct RefreshResult {
    LorsStatus status = LorsStatus::kOk;
    std::size_t extended = 0;  ///< replicas whose lease was renewed
    std::size_t failed = 0;    ///< replicas already gone or refused
  };
  using RefreshCallback = std::function<void(const RefreshResult&)>;
  /// Renews the lease of every replica in the exNode to now + extra — the
  /// maintenance an owner must perform because IBP leases are deliberately
  /// time-limited. Uses each replica's manage capability (populated by
  /// upload/augment); replicas without one count as failed.
  void refresh_async(sim::NodeId client, const exnode::ExNode& node, SimDuration extra,
                     RefreshCallback on_done);

  using RepairCallback = std::function<void(const RepairResult&)>;
  /// Self-healing: probes every replica of every extent, drops the dead ones
  /// from the exNode, then re-augments any extent below target_replicas by
  /// third-party-copying a surviving replica onto a candidate depot that does
  /// not already hold the extent (and is not offline). The caller receives
  /// the healed exNode; persisting it (e.g. back into the DVS) is the
  /// caller's job. Replicas are probed through their manage capability when
  /// present, otherwise with a 1-byte read.
  void repair_async(sim::NodeId client, const exnode::ExNode& node,
                    const RepairOptions& options, RepairCallback on_done);

 private:
  struct Metrics {
    obs::Counter& retries;              ///< extra download rounds
    obs::Counter& failovers;            ///< replica failovers within a round
    obs::Counter& corruption_detected;  ///< blocks that failed verification
    obs::Counter& repairs_run;          ///< repair_async invocations
    obs::Counter& replicas_repaired;    ///< replicas re-created by repair
    obs::Counter& replicas_lost;        ///< dead replicas discovered by repair
  };

  sim::Simulator& sim_;
  sim::Network& net_;
  ibp::Fabric& fabric_;
  Rng rng_;
  obs::Context& obs_;
  obs::Scope scope_;
  Metrics metrics_;
};

}  // namespace lon::lors
