// Byte-budgeted view-set cache with pluggable replacement policy.
//
// The client agent "maintains a cache of both view sets and the exNodes of
// view sets recently downloaded or pre-fetched" (paper section 3.5). The
// budget applies to payload bytes; exNodes are tiny and tracked separately
// without a budget.
//
// Replacement is LRU by default (the paper's policy), but the cache accepts a
// policy::EvictionPolicy to rank victims differently — angular distance from
// the cursor, or the hybrid policy that shields the demand working set from
// prefetch pollution. A policy may also *reject* an insert (admission
// control); rejected inserts leave the cache untouched. Entries remember
// whether the prefetcher brought them in and whether a demand request has
// since used them, which is what the pollution accounting and the
// useful-prefetch metrics are built on.
//
// Entries are keyed by (ViewSetId, lod): the continuous-LOD path caches a
// coarse tier of a view set next to (never in place of) the full-resolution
// bytes, so a demand hit on the full key can never be silently served coarse.
// lod 0 is full resolution; higher lods are coarser tiers.
//
// Thread-safe: the multi-client session driver hammers one shared agent's
// cache from concurrent fetch completions. All operations take an internal
// mutex, and get() hands out shared ownership of the payload so a reader is
// never left holding bytes that a concurrent put() just evicted.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lightfield/lattice.hpp"
#include "policy/eviction.hpp"
#include "util/bytes.hpp"
#include "util/vec3.hpp"

namespace lon::streaming {

class ViewSetCache {
 public:
  explicit ViewSetCache(std::uint64_t budget_bytes) : budget_(budget_bytes) {}

  /// Installs a replacement policy and the lattice used to measure each
  /// entry's angular distance from the cursor. Null policy = plain LRU.
  void configure(const lightfield::SphericalLattice* lattice,
                 std::unique_ptr<policy::EvictionPolicy> policy) {
    std::lock_guard lock(mutex_);
    lattice_ = lattice;
    policy_ = std::move(policy);
  }

  /// Updates the cursor position the policy measures distances against.
  void set_cursor(const Spherical& dir) {
    std::lock_guard lock(mutex_);
    cursor_ = dir;
    has_cursor_ = true;
  }

  /// Inserts (or refreshes) an entry, evicting entries per policy to stay
  /// within budget. Items larger than the whole budget are not cached, and
  /// the policy may reject the insert outright. Returns whether the entry
  /// was cached.
  bool put(const lightfield::ViewSetId& id, Bytes data, bool prefetched = false,
           int lod = 0) {
    return put(id, std::make_shared<const Bytes>(std::move(data)), prefetched, lod);
  }

  /// Shared-ownership insert: the cache aliases the caller's payload instead
  /// of deep-copying it. This is the demand-path overload — finish_fetch
  /// already holds the decoded bytes in a shared_ptr.
  bool put(const lightfield::ViewSetId& id, std::shared_ptr<const Bytes> data,
           bool prefetched = false, int lod = 0);

  /// Returns shared ownership of the bytes (empty on miss) and marks the
  /// entry most recently used — and, on a demand lookup, *demand-used*. If a
  /// demand lookup is the first hit on a prefetched entry,
  /// `first_prefetch_hit` (when non-null) is set — the "useful prefetch"
  /// signal. The payload stays valid after eviction for as long as the
  /// caller holds the pointer.
  [[nodiscard]] std::shared_ptr<const Bytes> get(const lightfield::ViewSetId& id,
                                                 bool* first_prefetch_hit = nullptr,
                                                 bool demand = true, int lod = 0);

  /// Lookup without touching recency (for inspection).
  [[nodiscard]] bool contains(const lightfield::ViewSetId& id, int lod = 0) const {
    std::lock_guard lock(mutex_);
    return map_.contains(Key{id, lod});
  }

  /// Finest coarse tier (smallest lod > 0, scanning up to `max_lod`) cached
  /// for this id, or 0 when only the full-resolution entry (or nothing) is
  /// cached. This is what the agent serves while the full fetch would blow
  /// the deadline.
  [[nodiscard]] int best_coarse_lod(const lightfield::ViewSetId& id, int max_lod) const {
    std::lock_guard lock(mutex_);
    for (int lod = 1; lod <= max_lod; ++lod) {
      if (map_.contains(Key{id, lod})) return lod;
    }
    return 0;
  }

  /// Drops every coarse (lod > 0) entry for this id — the refinement swap:
  /// once full-resolution bytes land, stale coarse substitutes must never be
  /// served again. Returns how many entries were removed.
  std::size_t erase_coarse(const lightfield::ViewSetId& id, int max_lod) {
    std::lock_guard lock(mutex_);
    std::size_t removed = 0;
    for (int lod = 1; lod <= max_lod; ++lod) {
      auto it = map_.find(Key{id, lod});
      if (it == map_.end()) continue;
      used_ -= it->second->data->size();
      lru_.erase(it->second);
      map_.erase(it);
      ++removed;
    }
    return removed;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return map_.size();
  }
  [[nodiscard]] std::uint64_t bytes_used() const {
    std::lock_guard lock(mutex_);
    return used_;
  }
  [[nodiscard]] std::uint64_t budget() const { return budget_; }
  [[nodiscard]] std::uint64_t evictions() const {
    std::lock_guard lock(mutex_);
    return evictions_;
  }
  /// Evictions of prefetched entries that never served a demand request.
  [[nodiscard]] std::uint64_t pollution_evictions() const {
    std::lock_guard lock(mutex_);
    return pollution_evictions_;
  }
  /// Inserts the policy refused to make room for.
  [[nodiscard]] std::uint64_t rejected_inserts() const {
    std::lock_guard lock(mutex_);
    return rejected_inserts_;
  }
  /// Distinct prefetched entries that later served a demand request.
  [[nodiscard]] std::uint64_t prefetch_hits() const {
    std::lock_guard lock(mutex_);
    return prefetch_hits_;
  }

 private:
  struct Key {
    lightfield::ViewSetId id;
    int lod = 0;
    bool operator==(const Key& other) const {
      return lod == other.lod && id == other.id;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      return lightfield::ViewSetIdHash{}(key.id) * 31u +
             static_cast<std::size_t>(key.lod);
    }
  };
  struct Entry {
    lightfield::ViewSetId id;
    int lod = 0;
    std::shared_ptr<const Bytes> data;
    std::uint64_t last_use = 0;
    bool prefetched = false;
    bool demand_used = false;
  };
  using List = std::list<Entry>;

  void evict_lru_to_fit(std::uint64_t incoming);  // caller holds mutex_
  void account_eviction(const Entry& victim);     // caller holds mutex_
  [[nodiscard]] double cursor_distance(const lightfield::ViewSetId& id) const;

  const std::uint64_t budget_;
  mutable std::mutex mutex_;
  std::uint64_t used_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t pollution_evictions_ = 0;
  std::uint64_t rejected_inserts_ = 0;
  std::uint64_t prefetch_hits_ = 0;
  std::uint64_t seq_ = 0;  // monotonic use counter feeding Entry::last_use
  List lru_;               // front = most recent
  std::unordered_map<Key, List::iterator, KeyHash> map_;
  const lightfield::SphericalLattice* lattice_ = nullptr;
  std::unique_ptr<policy::EvictionPolicy> policy_;
  Spherical cursor_{};
  bool has_cursor_ = false;
};

inline double ViewSetCache::cursor_distance(const lightfield::ViewSetId& id) const {
  if (lattice_ == nullptr || !has_cursor_) return 0.0;
  return angular_distance(cursor_, lattice_->view_set_center(id));
}

inline void ViewSetCache::account_eviction(const Entry& victim) {
  used_ -= victim.data->size();
  ++evictions_;
  if (victim.prefetched && !victim.demand_used) ++pollution_evictions_;
}

inline void ViewSetCache::evict_lru_to_fit(std::uint64_t incoming) {
  while (used_ + incoming > budget_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    account_eviction(victim);
    map_.erase(Key{victim.id, victim.lod});
    lru_.pop_back();
  }
}

inline bool ViewSetCache::put(const lightfield::ViewSetId& id,
                              std::shared_ptr<const Bytes> data, bool prefetched,
                              int lod) {
  std::lock_guard lock(mutex_);
  // Drop any existing entry for this (id, lod) first: even when the new
  // payload is too big to cache, serving the old (possibly invalidated)
  // version from get() would be worse than a miss.
  auto it = map_.find(Key{id, lod});
  if (it != map_.end()) {
    used_ -= it->second->data->size();
    lru_.erase(it->second);
    map_.erase(it);
  }
  const std::uint64_t incoming = data->size();
  if (incoming > budget_) return false;  // would evict everything for nothing

  if (policy_ == nullptr) {
    evict_lru_to_fit(incoming);
  } else if (used_ + incoming > budget_) {
    // Collect victims first, commit only if the policy makes enough room: a
    // rejected insert must leave the cache exactly as it found it.
    const policy::CacheInsertInfo insert{id, incoming, prefetched, cursor_distance(id)};
    std::vector<policy::CacheEntryInfo> snapshot;
    std::vector<List::iterator> snapshot_its;
    snapshot.reserve(lru_.size());
    for (auto e = lru_.begin(); e != lru_.end(); ++e) {
      snapshot.push_back({e->id, e->data->size(), e->last_use, e->prefetched,
                          e->demand_used, cursor_distance(e->id)});
      snapshot_its.push_back(e);
    }
    std::vector<List::iterator> victims;
    std::uint64_t freed = 0;
    while (used_ - freed + incoming > budget_) {
      const auto pick = policy_->pick_victim(snapshot, insert);
      if (!pick) {
        ++rejected_inserts_;
        return false;
      }
      freed += snapshot[*pick].bytes;
      victims.push_back(snapshot_its[*pick]);
      snapshot.erase(snapshot.begin() + static_cast<std::ptrdiff_t>(*pick));
      snapshot_its.erase(snapshot_its.begin() + static_cast<std::ptrdiff_t>(*pick));
    }
    for (auto victim : victims) {
      account_eviction(*victim);
      map_.erase(Key{victim->id, victim->lod});
      lru_.erase(victim);
    }
  }
  used_ += incoming;
  lru_.push_front(Entry{id, lod, std::move(data), ++seq_, prefetched, false});
  map_[Key{id, lod}] = lru_.begin();
  return true;
}

inline std::shared_ptr<const Bytes> ViewSetCache::get(const lightfield::ViewSetId& id,
                                                      bool* first_prefetch_hit,
                                                      bool demand, int lod) {
  std::lock_guard lock(mutex_);
  if (first_prefetch_hit != nullptr) *first_prefetch_hit = false;
  auto it = map_.find(Key{id, lod});
  if (it == map_.end()) return nullptr;
  Entry& entry = *it->second;
  if (demand) {
    if (entry.prefetched && !entry.demand_used) {
      ++prefetch_hits_;
      if (first_prefetch_hit != nullptr) *first_prefetch_hit = true;
    }
    entry.demand_used = true;
  }
  entry.last_use = ++seq_;
  lru_.splice(lru_.begin(), lru_, it->second);  // move to front
  return entry.data;
}

}  // namespace lon::streaming
