#include "streaming/site_cache.hpp"

#include <utility>

namespace lon::streaming {

SiteCache::SiteCache(sim::Simulator& sim, SiteCacheConfig config, obs::Context* obs)
    : sim_(sim),
      config_(config),
      obs_(obs != nullptr ? *obs : obs::global()),
      scope_(obs_.metrics.scope("site")),
      metrics_{scope_.counter("site.lookups"),
               scope_.counter("site.hits"),
               scope_.counter("site.misses"),
               scope_.counter("site.publishes"),
               scope_.counter("site.invalidations"),
               scope_.counter("site.expirations"),
               scope_.counter("site.evictions"),
               scope_.counter("site.restage_leaders"),
               scope_.counter("site.restage_joins"),
               scope_.counter("site.restage_keys"),
               scope_.gauge("site.entries"),
               scope_.gauge("site.bytes")} {}

std::size_t SiteCache::add_listener(InvalidateListener listener) {
  std::lock_guard lock(mutex_);
  const std::size_t token = next_listener_++;
  listeners_.emplace(token, std::move(listener));
  return token;
}

void SiteCache::remove_listener(std::size_t token) {
  std::lock_guard lock(mutex_);
  listeners_.erase(token);
}

std::vector<SiteCache::InvalidateListener> SiteCache::listeners_locked() const {
  std::vector<InvalidateListener> out;
  out.reserve(listeners_.size());
  // Fan out in registration order: agents are constructed in a fixed order,
  // so the wave is deterministic.
  for (std::size_t token = 0; token < next_listener_; ++token) {
    if (auto it = listeners_.find(token); it != listeners_.end()) {
      out.push_back(it->second);
    }
  }
  return out;
}

void SiteCache::fanout(const std::vector<InvalidateListener>& listeners,
                       const Key& key) {
  for (const InvalidateListener& listener : listeners) {
    if (listener) listener(key.id, key.lod);
  }
}

void SiteCache::erase_locked(std::unordered_map<Key, Entry, KeyHash>::iterator it) {
  bytes_ -= it->second.bytes;
  lru_.erase(it->second.lru);
  entries_.erase(it);
  metrics_.entries.set(static_cast<double>(entries_.size()));
  metrics_.bytes.set(static_cast<double>(bytes_));
}

std::optional<exnode::ExNode> SiteCache::lookup(const lightfield::ViewSetId& id,
                                                int lod) {
  metrics_.lookups.inc();
  const Key key{id, lod};
  std::vector<InvalidateListener> expired_listeners;
  {
    std::lock_guard lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      metrics_.misses.inc();
      return std::nullopt;
    }
    // Lazy lease check: a dead copy must never be served, timers or not.
    if (sim_.now() >= it->second.expires_at) {
      metrics_.expirations.inc();
      erase_locked(it);
      expired_listeners = listeners_locked();
    } else {
      metrics_.hits.inc();
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      return it->second.exnode;
    }
  }
  fanout(expired_listeners, key);
  metrics_.misses.inc();
  return std::nullopt;
}

bool SiteCache::contains(const lightfield::ViewSetId& id, int lod) const {
  const Key key{id, lod};
  std::lock_guard lock(mutex_);
  auto it = entries_.find(key);
  return it != entries_.end() && sim_.now() < it->second.expires_at;
}

void SiteCache::publish(const lightfield::ViewSetId& id, int lod,
                        const exnode::ExNode& exnode, std::uint64_t bytes,
                        SimTime expires_at) {
  metrics_.publishes.inc();
  const Key key{id, lod};
  std::uint64_t generation = 0;
  {
    std::lock_guard lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      bytes_ -= it->second.bytes;
      lru_.splice(lru_.begin(), lru_, it->second.lru);
    } else {
      lru_.push_front(key);
      it = entries_.emplace(key, Entry{}).first;
      it->second.lru = lru_.begin();
    }
    it->second.exnode = exnode;
    it->second.bytes = bytes;
    it->second.expires_at = expires_at;
    it->second.generation = generation = ++generation_;
    bytes_ += bytes;
    // Capacity: evict the coldest entries until the fresh copy fits. The
    // stager's replica and lease are untouched — only the index forgets —
    // so no fanout. The entry just published is the LRU front and survives.
    while (config_.capacity_bytes > 0 && bytes_ > config_.capacity_bytes &&
           lru_.size() > 1) {
      metrics_.evictions.inc();
      erase_locked(entries_.find(lru_.back()));
    }
    metrics_.entries.set(static_cast<double>(entries_.size()));
    metrics_.bytes.set(static_cast<double>(bytes_));
  }
  if (config_.expiry_timers && expires_at > sim_.now()) {
    sim_.after(expires_at - sim_.now(),
               [this, key, generation] { expire_if_current(key, generation); });
  }
}

void SiteCache::expire_if_current(const Key& key, std::uint64_t generation) {
  std::vector<InvalidateListener> listeners;
  {
    std::lock_guard lock(mutex_);
    auto it = entries_.find(key);
    // A republish (new lease) supersedes this timer.
    if (it == entries_.end() || it->second.generation != generation) return;
    metrics_.expirations.inc();
    erase_locked(it);
    listeners = listeners_locked();
  }
  fanout(listeners, key);
}

void SiteCache::invalidate(const lightfield::ViewSetId& id, int lod) {
  metrics_.invalidations.inc();
  const Key key{id, lod};
  std::vector<InvalidateListener> listeners;
  {
    std::lock_guard lock(mutex_);
    if (auto it = entries_.find(key); it != entries_.end()) erase_locked(it);
    listeners = listeners_locked();
  }
  // The fanout runs even when the entry was already gone: the caller just
  // proved the copy dead, and every co-sited agent must drop its derived
  // state in the same instant.
  fanout(listeners, key);
}

bool SiteCache::begin_restage(const lightfield::ViewSetId& id, int lod,
                              RestageCallback on_done) {
  const Key key{id, lod};
  std::lock_guard lock(mutex_);
  auto [it, leader] = flights_.try_emplace(key);
  if (!leader) {
    metrics_.restage_joins.inc();
    if (on_done) it->second.waiters.push_back(std::move(on_done));
    return false;
  }
  metrics_.restage_leaders.inc();
  if (restaged_keys_.insert(key).second) metrics_.restage_keys.inc();
  return true;
}

void SiteCache::finish_restage(const lightfield::ViewSetId& id, int lod, bool ok,
                               const exnode::ExNode& exnode) {
  const Key key{id, lod};
  std::vector<RestageCallback> waiters;
  {
    std::lock_guard lock(mutex_);
    auto it = flights_.find(key);
    if (it == flights_.end()) return;
    waiters = std::move(it->second.waiters);
    flights_.erase(it);
  }
  for (RestageCallback& cb : waiters) {
    if (cb) cb(ok, exnode);
  }
}

std::size_t SiteCache::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

}  // namespace lon::streaming
