#include "policy/eviction.hpp"

#include <limits>

namespace lon::policy {
namespace {

/// Index of the least-recently-used entry, or nullopt on an empty snapshot.
std::optional<std::size_t> lru_index(const std::vector<CacheEntryInfo>& entries) {
  if (entries.empty()) return std::nullopt;
  std::size_t best = 0;
  for (std::size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].last_use < entries[best].last_use) best = i;
  }
  return best;
}

class HybridPolicy final : public EvictionPolicy {
 public:
  std::optional<std::size_t> pick_victim(const std::vector<CacheEntryInfo>& entries,
                                         const CacheInsertInfo& incoming) const override {
    if (entries.empty()) return std::nullopt;
    // First choice: pollution — a prefetched entry that never served a demand
    // request. Among those, sacrifice the one farthest from the cursor.
    std::optional<std::size_t> polluter;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const auto& e = entries[i];
      if (!e.prefetched || e.demand_used) continue;
      if (!polluter || e.cursor_distance > entries[*polluter].cursor_distance ||
          (e.cursor_distance == entries[*polluter].cursor_distance &&
           e.last_use < entries[*polluter].last_use)) {
        polluter = i;
      }
    }
    if (polluter) {
      // Still don't let a prefetch displace a *hotter* unused prefetch.
      if (incoming.prefetched &&
          entries[*polluter].cursor_distance <= incoming.cursor_distance) {
        return std::nullopt;
      }
      return polluter;
    }
    // Everything resident is demand working set. Demand inserts may trim it
    // LRU-style; speculative inserts are rejected outright.
    if (incoming.prefetched) return std::nullopt;
    return lru_index(entries);
  }
};

}  // namespace

const char* to_string(EvictionStrategy s) {
  switch (s) {
    case EvictionStrategy::kLru:
      return "lru";
    case EvictionStrategy::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

std::unique_ptr<EvictionPolicy> make_eviction_policy(EvictionStrategy s) {
  if (s == EvictionStrategy::kHybrid) return std::make_unique<HybridPolicy>();
  return nullptr;
}

}  // namespace lon::policy
