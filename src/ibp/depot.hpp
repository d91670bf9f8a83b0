// An IBP depot: best-effort, time-limited, shareable network storage.
//
// Implements the storage semantics of the Internet Backplane Protocol
// (Plank et al., IEEE Internet Computing 2001; paper section 2.2):
//
//  * allocations are *byte arrays* with read/write/manage capabilities;
//  * every allocation carries a lease — when it expires the storage is
//    reclaimed and the data is gone (lazy reclamation on access plus an
//    explicit sweep);
//  * allocations can be refused outright by admission policy on both size
//    and duration ("much as routers can drop packets");
//  * *soft* allocations can be revoked at any moment to make room for new
//    requests, which is what makes idle resources safely shareable.
//
// Storage is copy-on-write. An allocation's bytes are one immutable,
// reference-counted buffer, null (reading as zeros) until the first store.
// A load hands out a Snapshot that shares the buffer instead of copying it; a
// store covering the whole allocation adopts the caller's buffer, and any
// other store clones before writing, so a snapshot never changes. Capacity
// stays logical: an allocation charges its full size to bytes_used() however
// many allocations share its buffer (DESIGN.md section 16).
//
// The depot itself is purely local state plus the virtual clock; all
// network-visible operations go through ibp::Fabric.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ibp/capability.hpp"
#include "simnet/simulator.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace lon::ibp {

enum class AllocType : std::uint8_t { kHard = 0, kSoft = 1 };

/// Result codes for depot operations, mirroring IBP's weak service model.
enum class IbpStatus {
  kOk,
  kRefused,         ///< admission control rejected the request
  kNoCapacity,      ///< no space even after revoking soft allocations
  kNotFound,        ///< no such allocation (never existed or reclaimed)
  kExpired,         ///< lease ran out
  kRevoked,         ///< soft allocation was reclaimed under pressure
  kBadCapability,   ///< wrong key or wrong rights for the operation
  kBadRange,        ///< offset/length outside the allocated byte array
  kTimeout,         ///< no reply within the fabric's per-operation deadline
};

[[nodiscard]] const char* to_string(IbpStatus status);

struct DepotConfig {
  std::uint64_t capacity_bytes = 1ull << 32;       ///< total storage
  std::uint64_t max_alloc_bytes = 1ull << 30;      ///< admission: size cap
  SimDuration max_lease = 24 * 3600 * kSecond;     ///< admission: duration cap
  std::uint64_t rng_seed = 0x1b9d;                 ///< capability key stream
  /// Disk service rate. Data-bearing operations occupy the depot's single
  /// disk for bytes/rate seconds, FIFO — so heavy staging traffic delays
  /// concurrent reads from the same depot (the contention the paper observed
  /// on the LAN depot during aggressive prestaging, section 4.3).
  double disk_bytes_per_sec = 80e6;
};

struct AllocRequest {
  std::uint64_t size = 0;
  SimDuration lease = kSecond;
  AllocType type = AllocType::kHard;
};

/// Metadata returned by probe().
struct AllocInfo {
  std::uint64_t size = 0;
  std::uint64_t bytes_written = 0;  ///< high-water mark of stored data
  SimTime expires = 0;
  AllocType type = AllocType::kHard;
};

/// `length` bytes of an allocation as they stood when load() served them.
/// It shares the allocation's buffer, which no later store modifies, so it
/// stays valid after the allocation is rewritten, released or revoked.
struct Snapshot {
  std::shared_ptr<const Bytes> buffer;  ///< null: never written, reads as zeros
  std::uint64_t offset = 0;             ///< start of the range within buffer
  std::uint64_t length = 0;

  /// The first byte of the range, or nullptr when it reads as zeros.
  [[nodiscard]] const std::uint8_t* data() const {
    return buffer ? buffer->data() + offset : nullptr;
  }

  /// Writes the range to dst[0, length), through the payload-copy meter.
  void copy_to(std::uint8_t* dst) const;
  /// A private, metered copy of the range.
  [[nodiscard]] Bytes to_bytes() const;
};

class Depot {
 public:
  Depot(sim::Simulator& sim, std::string name, const DepotConfig& config);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const DepotConfig& config() const { return config_; }

  /// Changes the disk service rate at runtime (fault injection: a degraded
  /// or overloaded disk). Rate must be positive.
  void set_disk_rate(double bytes_per_sec);

  /// Attempts an allocation. On success returns the capability triple; on
  /// refusal/no-capacity returns the status instead. Soft allocations may be
  /// revoked to make room (revoking never happens for a request that fails
  /// admission policy).
  struct AllocResult {
    IbpStatus status = IbpStatus::kOk;
    CapabilitySet caps;  ///< valid only when status == kOk
  };
  AllocResult allocate(const AllocRequest& request);

  /// Writes data at the given offset (must lie within the allocation). When
  /// data is a whole buffer that covers the whole allocation, the allocation
  /// adopts that buffer without copying; any other store clones the
  /// allocation's buffer and writes into the clone, so no earlier snapshot
  /// changes.
  IbpStatus store(const Capability& write_cap, std::uint64_t offset, const Snapshot& data);
  /// Copying form (tests): stores a private copy of data.
  IbpStatus store(const Capability& write_cap, std::uint64_t offset,
                  std::span<const std::uint8_t> data);

  /// Serves length bytes at offset as a snapshot of the allocation's buffer.
  IbpStatus load(const Capability& read_cap, std::uint64_t offset, std::uint64_t length,
                 Snapshot& out);
  /// Copying form (tests): reads the bytes into out.
  IbpStatus load(const Capability& read_cap, std::uint64_t offset, std::uint64_t length,
                 Bytes& out);

  /// Queries allocation metadata.
  IbpStatus probe(const Capability& manage_cap, AllocInfo& out);

  /// Renews the lease to now + extra (subject to the admission duration cap).
  IbpStatus extend(const Capability& manage_cap, SimDuration extra);

  /// Explicitly releases an allocation.
  IbpStatus release(const Capability& manage_cap);

  /// Reclaims every expired allocation now (also happens lazily on access).
  std::size_t sweep_expired();

  [[nodiscard]] std::uint64_t bytes_free() const;
  [[nodiscard]] std::uint64_t bytes_used() const { return used_; }
  [[nodiscard]] std::size_t allocation_count() const { return allocations_.size(); }

 private:
  struct Allocation {
    std::uint64_t id = 0;
    std::uint64_t size = 0;
    std::uint64_t keys[3] = {0, 0, 0};  // read, write, manage
    SimTime expires = 0;
    AllocType type = AllocType::kHard;
    SimTime last_access = 0;
    std::shared_ptr<const Bytes> data;  ///< `size` bytes, or null (all zeros)
    std::uint64_t high_water = 0;
  };

  /// Looks up an allocation, verifying key + rights, and stamps its access
  /// time. Reclaims it lazily if the lease expired (returning kExpired);
  /// reports kRevoked for allocations revoked under pressure.
  IbpStatus find(const Capability& cap, CapKind required, Allocation** out);

  /// Frees soft allocations (oldest access first) until `needed` bytes fit.
  /// Returns true on success.
  bool make_room(std::uint64_t needed);

  void reclaim(std::uint64_t id, IbpStatus reason);

  sim::Simulator& sim_;
  std::string name_;
  DepotConfig config_;
  Rng rng_;

  std::map<std::uint64_t, Allocation> allocations_;
  // Reclaimed allocation ids with the reason, so late accesses can
  // distinguish kExpired/kRevoked from never-existed.
  std::map<std::uint64_t, IbpStatus> tombstones_;
  std::uint64_t next_id_ = 1;
  std::uint64_t used_ = 0;
};

}  // namespace lon::ibp
