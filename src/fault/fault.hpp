// Deterministic fault injection for the simulated Logistical Network.
//
// IBP's service model is explicit that storage is best-effort: "it may be
// necessary to assume that storage can be permanently lost". This module
// turns that assumption into schedulable, replayable events on the virtual
// clock — depot crashes and restarts, link partitions, degraded disks,
// silently dropped requests and silently corrupted reads — so the
// self-healing machinery above (fabric timeouts, LoRS retry/checksum/repair,
// client-agent re-resolution, L-Bone health probes) can be exercised and
// measured without a single nondeterministic input. Every probabilistic
// fault draws from one seeded generator: same plan + same seed = same run,
// bit for bit.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ibp/service.hpp"
#include "obs/obs.hpp"
#include "simnet/network.hpp"
#include "util/rng.hpp"

namespace lon::fault {

/// Take a depot offline at `at`; bring it back `restart_after` later
/// (0 = never restarts). Going offline cancels the depot's in-flight flows.
struct DepotCrash {
  std::string depot;
  SimTime at = 0;
  SimDuration restart_after = 0;
};

/// Cut the link between two nodes at `at`; restore it `up_after` later
/// (0 = stays down). While down, flows across the link stall at rate zero
/// and new requests over it are lost — only timeouts observe the partition.
struct LinkDown {
  sim::NodeId a = sim::kInvalidNode;
  sim::NodeId b = sim::kInvalidNode;
  SimTime at = 0;
  SimDuration up_after = 0;
};

/// Multiply a depot's disk service rate by `factor` (< 1 = slower) for
/// `duration` (0 = for good). Windows on one depot stack: while any are
/// open the rate is the rate before the first of them opened times every
/// open factor, and it returns to exactly that rate when the last closes.
struct DiskDegrade {
  std::string depot;
  SimTime at = 0;
  SimDuration duration = 0;
  double factor = 0.1;
};

/// During [at, at+duration), each fabric request addressed to `depot` (empty
/// = any depot) is eaten with probability `prob`; the caller sees nothing
/// until its deadline fires.
struct DropWindow {
  SimTime at = 0;
  SimDuration duration = 0;
  double prob = 0.0;
  std::string depot;  ///< empty = all depots
};

/// During [at, at+duration), each load served by `depot` (empty = any) has
/// probability `prob` of one flipped bit — silent corruption only block
/// checksums can catch.
struct CorruptWindow {
  SimTime at = 0;
  SimDuration duration = 0;
  double prob = 0.0;
  std::string depot;  ///< empty = all depots
};

struct FaultPlan {
  std::uint64_t seed = 0xfa117;  ///< drives every probabilistic draw
  std::vector<DepotCrash> crashes;
  std::vector<LinkDown> partitions;
  std::vector<DiskDegrade> degradations;
  std::vector<DropWindow> drops;
  std::vector<CorruptWindow> corruptions;
};

struct FaultStats {
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t links_cut = 0;
  std::uint64_t links_restored = 0;
  std::uint64_t disks_degraded = 0;
  std::uint64_t requests_dropped = 0;
  std::uint64_t bits_flipped = 0;
};

class FaultInjector {
 public:
  FaultInjector(sim::Simulator& sim, sim::Network& net, ibp::Fabric& fabric,
                obs::Context* obs = nullptr)
      : sim_(sim),
        net_(net),
        fabric_(fabric),
        obs_(obs != nullptr ? *obs : obs::global()),
        scope_(obs_.metrics.scope("fault")),
        metrics_{scope_.counter("fault.crashes"),
                 scope_.counter("fault.restarts"),
                 scope_.counter("fault.links_cut"),
                 scope_.counter("fault.links_restored"),
                 scope_.counter("fault.disks_degraded"),
                 scope_.counter("fault.requests_dropped"),
                 scope_.counter("fault.bits_flipped")} {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules every event in the plan and installs the drop/corrupt hooks
  /// on the fabric. Call once, before (or at) the plan's earliest event
  /// time; events already in the past throw. If the plan contains drops or
  /// partitions and the fabric has no deadlines configured, default
  /// timeouts are installed (a lost request with no deadline hangs its
  /// caller forever, which no test should ever want).
  void arm(const FaultPlan& plan);

  /// Compatibility view over the obs registry counters.
  [[nodiscard]] const FaultStats& stats() const;

 private:
  struct Metrics {
    obs::Counter& crashes;
    obs::Counter& restarts;
    obs::Counter& links_cut;
    obs::Counter& links_restored;
    obs::Counter& disks_degraded;
    obs::Counter& requests_dropped;
    obs::Counter& bits_flipped;
  };

  /// One depot's disk while slow-disk windows are open on it.
  struct SlowDisk {
    double base_rate = 0.0;       ///< the rate before the first open window
    std::vector<double> factors;  ///< factors of the open windows
  };

  [[nodiscard]] bool in_drop_window(const std::string& depot);
  void maybe_corrupt(const std::string& depot, Bytes& data);
  /// Sets the depot's disk rate to base_rate times every open factor.
  static void apply_slow_disk(ibp::Depot& depot, const SlowDisk& disk);

  sim::Simulator& sim_;
  sim::Network& net_;
  ibp::Fabric& fabric_;
  obs::Context& obs_;
  obs::Scope scope_;
  Metrics metrics_;
  Rng rng_{0xfa117};
  std::vector<DropWindow> drops_;
  std::vector<CorruptWindow> corruptions_;
  std::map<std::string, SlowDisk> slow_disks_;  ///< by depot name
  mutable FaultStats stats_view_;
};

}  // namespace lon::fault
