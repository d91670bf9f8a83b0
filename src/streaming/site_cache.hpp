// Cooperative site cache — the per-site depot cache index (ROADMAP's
// thousand-user item, in the spirit of the LBNL DPSS network data caches).
//
// Every client agent behind one LAN registers against a shared SiteCache.
// When any of them stages a view set onto a site depot it publishes the
// resulting exNode here, so every co-sited agent discovers the copy and
// serves it LAN-locally instead of restaging the same bytes over the WAN.
// Three mechanisms keep the index honest:
//
//   * single-flight restage coalescing — N agents racing to (re)stage the
//     same (ViewSetId, lod) collapse to one WAN fetch: the first caller of
//     begin_restage becomes the leader and performs the copy, everyone else
//     queues a callback that fires when the leader calls finish_restage;
//   * lease-aware invalidation — entries carry the staging lease's expiry;
//     at that instant (a simulator timer, plus a lazy check on every
//     lookup) the entry is dropped and every registered listener is told,
//     so all co-sited agents forget the copy atomically: there is no
//     stale-serve window in which one agent still trusts a dead replica;
//   * capacity-bounded eviction — an optional byte budget over the tracked
//     copies, evicted LRU. Eviction only forgets the *index* entry (the
//     stager's own replica and lease stay valid), so it does not fan out.
//
// Thread safety: the index is mutex-guarded and the counters are atomic —
// agents on the simulator thread and tests hammering from a pool may call
// concurrently. Listener and restage callbacks are invoked outside the
// lock. Expiry timers touch the simulator and are therefore only scheduled
// when config.expiry_timers is set (off in the multi-threaded hammer).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "exnode/exnode.hpp"
#include "lightfield/viewset.hpp"
#include "obs/obs.hpp"
#include "simnet/simulator.hpp"

namespace lon::streaming {

struct SiteCacheConfig {
  /// Byte budget over the tracked site copies; 0 = unbounded.
  std::uint64_t capacity_bytes = 0;
  /// Schedule a simulator timer at each entry's expiry so the whole site
  /// drops the copy the instant its lease runs out (not just on the next
  /// lookup). Disable for multi-threaded index hammers: the simulator is
  /// not thread-safe, the index is.
  bool expiry_timers = true;
};

class SiteCache {
 public:
  /// Fanout on expiry/invalidation: every co-sited agent drops its own
  /// derived state (staged entry, cached exNode) for (id, lod).
  using InvalidateListener =
      std::function<void(const lightfield::ViewSetId& id, int lod)>;
  /// Completion of a coalesced restage a follower joined.
  using RestageCallback = std::function<void(bool ok, const exnode::ExNode& exnode)>;

  SiteCache(sim::Simulator& sim, SiteCacheConfig config = {},
            obs::Context* obs = nullptr);

  /// Registers an agent's invalidation listener; returns a removal token.
  std::size_t add_listener(InvalidateListener listener);
  void remove_listener(std::size_t token);

  /// Looks `id` up at tier `lod`. A lease already past expiry is dropped
  /// here (and fanned out) before the miss is reported, so even with
  /// timers off no caller can be served a dead copy.
  [[nodiscard]] std::optional<exnode::ExNode> lookup(const lightfield::ViewSetId& id,
                                                     int lod = 0);
  [[nodiscard]] bool contains(const lightfield::ViewSetId& id, int lod = 0) const;

  /// Publishes a freshly staged copy: `bytes` is its payload size (feeds
  /// the capacity budget), `expires_at` the staging lease's end.
  void publish(const lightfield::ViewSetId& id, int lod, const exnode::ExNode& exnode,
               std::uint64_t bytes, SimTime expires_at);

  /// Drops the entry and tells every listener the copy is dead (an agent
  /// saw a download from it fail). Safe when absent — the fanout still
  /// runs, so all co-sited agents drop their derived state together.
  void invalidate(const lightfield::ViewSetId& id, int lod = 0);

  /// Single-flight: returns true if the caller is the leader for
  /// (id, lod) and must perform the WAN copy itself (`on_done` is NOT
  /// queued for a leader). Returns false if a restage is already in
  /// flight; `on_done` then fires when the leader finishes.
  bool begin_restage(const lightfield::ViewSetId& id, int lod, RestageCallback on_done);
  /// Leader's completion: resolves every queued follower callback.
  void finish_restage(const lightfield::ViewSetId& id, int lod, bool ok,
                      const exnode::ExNode& exnode);

  [[nodiscard]] std::size_t size() const;

 private:
  struct Key {
    lightfield::ViewSetId id;
    int lod = 0;
    bool operator==(const Key& other) const {
      return id == other.id && lod == other.lod;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      return lightfield::ViewSetIdHash{}(key.id) * 31u +
             static_cast<std::size_t>(key.lod);
    }
  };
  struct Entry {
    exnode::ExNode exnode;
    std::uint64_t bytes = 0;
    SimTime expires_at = 0;
    std::uint64_t generation = 0;  ///< republish invalidates older timers
    std::list<Key>::iterator lru;  ///< position in lru_ (front = most recent)
  };
  struct Flight {
    std::vector<RestageCallback> waiters;
  };

  struct Metrics {
    obs::Counter& lookups;
    obs::Counter& hits;
    obs::Counter& misses;
    obs::Counter& publishes;
    obs::Counter& invalidations;    ///< explicit invalidate() fanouts
    obs::Counter& expirations;      ///< lease-expiry fanouts (timer or lazy)
    obs::Counter& evictions;        ///< capacity evictions (no fanout)
    obs::Counter& restage_leaders;  ///< begin_restage calls that led
    obs::Counter& restage_joins;    ///< begin_restage calls that joined
    obs::Counter& restage_keys;     ///< distinct (id, lod) keys ever restaged
    obs::Gauge& entries;            ///< resident index entries now
    obs::Gauge& bytes;              ///< tracked payload bytes now
  };

  /// Removes `it` from the index under mutex_ (caller holds it).
  void erase_locked(std::unordered_map<Key, Entry, KeyHash>::iterator it);
  /// Timer body: expire (key, generation) if still current.
  void expire_if_current(const Key& key, std::uint64_t generation);
  /// Snapshot of the listeners (under mutex_) for an outside-lock fanout.
  [[nodiscard]] std::vector<InvalidateListener> listeners_locked() const;
  void fanout(const std::vector<InvalidateListener>& listeners, const Key& key);

  sim::Simulator& sim_;
  SiteCacheConfig config_;
  obs::Context& obs_;
  obs::Scope scope_;
  Metrics metrics_;

  mutable std::mutex mutex_;
  std::unordered_map<Key, Entry, KeyHash> entries_;
  std::list<Key> lru_;  ///< front = most recently used
  std::uint64_t bytes_ = 0;
  std::uint64_t generation_ = 0;
  std::unordered_map<Key, Flight, KeyHash> flights_;
  std::unordered_set<Key, KeyHash> restaged_keys_;
  std::unordered_map<std::size_t, InvalidateListener> listeners_;
  std::size_t next_listener_ = 0;
};

}  // namespace lon::streaming
