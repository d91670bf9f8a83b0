// Shared streaming-layer types: how a view-set access was satisfied and what
// it cost. These records are the raw data behind the paper's figures 8-12.
#pragma once

#include <cstdint>

#include "lightfield/lattice.hpp"
#include "util/time.hpp"

namespace lon::streaming {

/// Where the client agent found a requested view set.
enum class AccessClass : std::uint8_t {
  kAgentHit = 0,   ///< in the client agent's memory cache (a "hit")
  kLanDepot = 1,   ///< prestaged on a depot in the client's LAN
  kWan = 2,        ///< fetched across the wide area network
};

[[nodiscard]] const char* to_string(AccessClass cls);

/// Lease on the server depots' copy of every published view set, whether the
/// publisher uploaded it offline or the server agent generated it at runtime.
inline constexpr SimDuration kDatabaseLease = 24 * 3600 * kSecond;

/// One client-observed view-set access (one point of figures 9-12).
struct AccessRecord {
  lightfield::ViewSetId id;
  AccessClass cls = AccessClass::kWan;
  SimTime requested = 0;        ///< client issued the request
  SimTime delivered = 0;        ///< decompressed and renderable at the client
  SimDuration comm_latency = 0; ///< data-access time as measured at the agent
  SimDuration decompress_time = 0;
  std::uint64_t compressed_bytes = 0;
  /// Payload bytes physically copied to satisfy this access: zero when the
  /// agent served its cached slab by reference, one pass over the compressed
  /// payload when the bytes had to cross the network.
  std::uint64_t copied_bytes = 0;
  /// Always false: the client decodes every delivery whole. Kept only
  /// because benchmark/lonbench.cpp writes it into its digest and compares
  /// it; retire it with the next change to the benchmark.
  bool pipelined = false;
  /// Level of detail this access was served at: 0 = full resolution,
  /// higher = coarser tier (continuous LOD streaming / degradation ladder).
  int lod = 0;

  /// Latency as measured at the client (figures 9-11).
  [[nodiscard]] SimDuration total() const { return delivered - requested; }
};

}  // namespace lon::streaming
