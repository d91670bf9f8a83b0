// The Logistical Backbone (L-Bone): a directory of IBP depots.
//
// "The Logistical Backbone (L-Bone) allows the user to find the closest set
// of IBP depots that can satisfy the needs of an application. We use the
// L-Bone tools to dynamically identify appropriate depots to serve as the
// network caches." (paper section 2.2)
//
// Our directory ranks depots by network proximity to the requesting node
// (propagation latency along the simulated routes) and filters on free
// space, maximum lease and liveness.
#pragma once

#include <cstdint>
#include <optional>
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
        metrics_{scope_.counter("lbone.queries"),
                 scope_.counter("lbone.sweeps"),
                 scope_.counter("lbone.marked_dead"),
                 scope_.counter("lbone.marked_alive")} {}

  /// Registers a depot already hosted in the fabric.
  void register_depot(const std::string& name);

  /// Marks a depot unavailable without removing its record (transient
  /// failure — IBP assumes depots can vanish at any time).
  void set_alive(const std::string& name, bool alive);

  [[nodiscard]] bool is_registered(const std::string& name) const;
  [[nodiscard]] std::size_t size() const { return records_.size(); }

  /// Returns up to req.count live, reachable depots satisfying the
  /// requirements, sorted by increasing latency from `requester` (ties by
  /// name for determinism). Depots the fabric currently reports offline are
  /// skipped even when the directory still believes them alive — the
  /// directory is a cache of liveness and must not hand out depots the
  /// fabric already knows are down. Fewer than req.count results means the
  /// fabric cannot satisfy the query — callers must cope (best-effort
  /// semantics).
  [[nodiscard]] std::vector<Candidate> find(sim::NodeId requester,
                                            const Requirements& req) const;

  /// Starts a periodic health sweep on the simulator clock: every
  /// `interval`, each record's liveness is set from the fabric's
  /// offline flag, so a crashed depot drops out of query results within
  /// one sweep and re-enters automatically after its restart. Restarting
  /// with a new interval replaces the previous schedule.
  void start_health_probes(SimDuration interval);
  void stop_health_probes();

 private:
  struct Record {
    std::string name;
    bool alive = true;
  };

  struct Metrics {
    obs::Counter& queries;
    obs::Counter& sweeps;
    obs::Counter& marked_dead;   ///< alive -> dead flips
    obs::Counter& marked_alive;  ///< dead -> alive flips
  };

  void probe_sweep();

  sim::Network& net_;
  ibp::Fabric& fabric_;
  obs::Context& obs_;
  obs::Scope scope_;
  Metrics metrics_;
  std::vector<Record> records_;
  SimDuration probe_interval_ = 0;  ///< 0 = probes off
  std::optional<sim::TimerId> probe_timer_;
};

}  // namespace lon::lbone
