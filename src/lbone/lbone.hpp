// The Logistical Backbone (L-Bone): a directory of IBP depots.
//
// "The Logistical Backbone (L-Bone) allows the user to find the closest set
// of IBP depots that can satisfy the needs of an application. We use the
// L-Bone tools to dynamically identify appropriate depots to serve as the
// network caches." (paper section 2.2)
//
// Our directory ranks depots by network proximity to the requesting node
// (propagation latency along the simulated routes) and filters on free
// space, maximum lease and liveness. Liveness has one source, the fabric: a
// depot it reports offline is never returned.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ibp/service.hpp"
#include "obs/obs.hpp"
#include "simnet/network.hpp"

namespace lon::lbone {

/// Requirements a depot must satisfy to be returned by a query.
struct Requirements {
  std::uint64_t free_bytes = 0;  ///< minimum advertised free space
  SimDuration lease = 0;         ///< minimum supported lease duration
  std::size_t count = 1;         ///< how many depots the caller wants
};

/// One query result, closest first.
struct Candidate {
  std::string name;
  sim::NodeId node = 0;
  SimDuration latency = 0;  ///< one-way latency from the requester
  std::uint64_t free_bytes = 0;
};

class Directory {
 public:
  Directory(sim::Network& net, ibp::Fabric& fabric, obs::Context* obs = nullptr)
      : net_(net),
        fabric_(fabric),
        obs_(obs != nullptr ? *obs : obs::global()),
        scope_(obs_.metrics.scope("lbone")),
        metrics_{scope_.counter("lbone.queries")} {}

  /// Registers a depot already hosted in the fabric.
  void register_depot(const std::string& name);

  [[nodiscard]] bool is_registered(const std::string& name) const;
  [[nodiscard]] std::size_t size() const { return records_.size(); }

  /// Returns up to req.count live, reachable depots satisfying the
  /// requirements, sorted by increasing latency from `requester` (ties by
  /// name for determinism). Depots the fabric currently reports offline are
  /// skipped (IBP assumes depots can vanish at any time); their records
  /// stay, so a restarted depot is returned again. Fewer than req.count
  /// results means the fabric cannot satisfy the query — callers must cope
  /// (best-effort semantics).
  [[nodiscard]] std::vector<Candidate> find(sim::NodeId requester,
                                            const Requirements& req) const;

 private:
  struct Metrics {
    obs::Counter& queries;
  };

  sim::Network& net_;
  ibp::Fabric& fabric_;
  obs::Context& obs_;
  obs::Scope scope_;
  Metrics metrics_;
  std::vector<std::string> records_;  ///< registered depot names
};

}  // namespace lon::lbone
