// Pooled payload buffers and the payload-copy meter — the allocation side of
// the zero-copy demand path (DESIGN.md section 16).
//
// Every view-set payload on the demand path lives in a slab acquired from a
// BufferPool: LoRS assembles stripes scatter-gather directly into the slab,
// and the agent cache and every Delivery alias it by shared_ptr. Slabs are
// refcounted; when the last reference drops the backing allocation returns to
// the pool (bounded by max_retained_bytes) instead of the heap, so downloads
// reach a steady state with no allocator traffic.
//
// The copy meter is the enforcement half: every physical payload copy the
// demand path still performs must go through copy_payload()/
// account_payload_copy(), which feed the `bytes_copied_per_access` gate
// counters. A copy that bypasses the meter is a bug: the perf gate pins the
// per-access totals exactly, so an unaccounted memcpy either shows up as a
// counter mismatch (if accounted elsewhere) or as an unreviewed extra pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/bytes.hpp"

namespace lon::util {

// --- payload-copy meter ------------------------------------------------------

/// Total payload bytes physically copied process-wide (monotonic, relaxed
/// atomic — safe to read from any thread). Gates compute deltas around an
/// operation; there is deliberately no reset.
[[nodiscard]] std::uint64_t payload_bytes_copied();

/// Records `n` payload bytes copied by some path that moves bytes itself
/// (e.g. vector assign / insert that cannot take a raw destination).
void account_payload_copy(std::uint64_t n);

/// memcpy that feeds the meter — the one sanctioned way to move payload
/// bytes. Regions must not overlap.
void copy_payload(std::uint8_t* dst, const std::uint8_t* src, std::size_t n);

// --- BufferPool --------------------------------------------------------------

/// Size-class arena of recycled, refcounted byte slabs.
///
/// acquire(n) hands out a shared_ptr<Bytes> of exactly n zero-filled bytes
/// whose capacity is the power-of-two size class covering n. The custom
/// deleter returns the allocation to the pool, so the slab may outlive the
/// BufferPool object itself (the pool state is itself refcounted). Callers
/// may resize the vector downward freely; growing it past the class capacity
/// reallocates and simply forfeits the recycled storage — legal, never UB.
///
/// Thread-safe: acquire and release take an internal mutex (both are
/// off-hot-path — the hot path only reads and writes slab contents).
class BufferPool {
 public:
  struct Config {
    std::size_t min_class_bytes = 4096;            ///< smallest size class
    std::uint64_t max_retained_bytes = 256ull << 20;  ///< idle-slab budget
  };

  BufferPool() : BufferPool(Config{}) {}
  explicit BufferPool(const Config& config);

  /// A zero-filled buffer of exactly `size` bytes, recycled when possible.
  [[nodiscard]] std::shared_ptr<Bytes> acquire(std::size_t size);

  /// Bytes currently held idle in the free lists.
  [[nodiscard]] std::uint64_t retained_bytes() const;
  /// Slabs handed out that reused a recycled allocation.
  [[nodiscard]] std::uint64_t reuses() const;
  /// Slabs that required a fresh heap allocation.
  [[nodiscard]] std::uint64_t allocations() const;

  /// The process-wide pool backing the demand path (view-set payloads and
  /// decode destinations). Constructed on first use, never destroyed before
  /// exit; safe to call from any thread.
  [[nodiscard]] static BufferPool& shared();

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

}  // namespace lon::util
