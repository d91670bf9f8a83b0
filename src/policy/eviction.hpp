// Cache replacement policies for the client agent's view-set cache.
//
// The seed cache was a pure byte-LRU, which has a known failure mode on this
// workload: an aggressive prefetcher inserts speculative view sets that push
// the *demand* working set (the sets the user actually oscillates between)
// out of the cache — prefetch pollution. The policies here decide, given
// what is resident and what wants in, (a) which entry to sacrifice and (b)
// whether a speculative insert should be admitted at all ("don't evict
// hotter-than-incoming entries").
//
// The interface is deliberately value-based: the cache materializes a
// snapshot of its entries and the policy returns an index. Policies stay
// trivially unit-testable, and at view-set scale (hundreds of resident
// entries at most) the O(n) scan per eviction is noise next to the WAN
// fetches the cache is hiding.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "lightfield/lattice.hpp"

namespace lon::policy {

enum class EvictionStrategy {
  kLru,     ///< seed behaviour: evict the least recently used entry
  kHybrid,  ///< pollution-aware: sacrifice unused prefetches first, protect
            ///< the demand working set, admit prefetches only when colder
            ///< entries exist to displace
};

[[nodiscard]] const char* to_string(EvictionStrategy s);

/// Snapshot of one resident entry, as the policy sees it.
struct CacheEntryInfo {
  lightfield::ViewSetId id;
  std::uint64_t bytes = 0;
  /// Monotonic use sequence; larger = touched more recently.
  std::uint64_t last_use = 0;
  bool prefetched = false;   ///< inserted by the prefetcher...
  bool demand_used = false;  ///< ...and has since served a demand request
  /// Radians between this entry's view set and the cursor's.
  double cursor_distance = 0.0;
};

/// The entry that wants in.
struct CacheInsertInfo {
  lightfield::ViewSetId id;
  std::uint64_t bytes = 0;
  bool prefetched = false;
  double cursor_distance = 0.0;
};

class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  /// Picks the index of the entry to evict to make room for `incoming`. The
  /// cache calls this repeatedly (with already-chosen victims removed from
  /// `entries`) until the budget fits, and commits the evictions only if
  /// every round returns a victim. Returning nullopt rejects the insert
  /// instead — the admission-control arm: a speculative insert must not
  /// displace entries hotter than itself.
  [[nodiscard]] virtual std::optional<std::size_t> pick_victim(
      const std::vector<CacheEntryInfo>& entries,
      const CacheInsertInfo& incoming) const = 0;
};

/// The policy for `s`, or null for kLru: the cache's own LRU list needs no
/// policy.
[[nodiscard]] std::unique_ptr<EvictionPolicy> make_eviction_policy(EvictionStrategy s);

}  // namespace lon::policy
