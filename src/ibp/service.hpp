// The depot fabric: IBP operations as they appear over the network.
//
// Depots are hosted at simulator network nodes. A client at node C operating
// on a depot at node D pays, in virtual time, the request's propagation to D,
// a small depot processing overhead, and — for data-bearing operations — a
// bulk flow through the shared network model. Third-party copy moves data
// directly depot-to-depot, with only control traffic touching the client;
// this is the primitive behind LoRS staging and the aggressive prestaging of
// view sets (paper sections 3.5, 4.3).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "ibp/depot.hpp"
#include "obs/obs.hpp"
#include "simnet/network.hpp"

namespace lon::ibp {

/// Fixed CPU cost charged by a depot per operation (request parsing,
/// allocation table work). Small relative to any transfer.
inline constexpr SimDuration kDepotOpOverhead = 300 * kMicrosecond;

/// Per-operation deadlines. Zero disables the deadline (the seed behaviour):
/// an operation against a partitioned depot then hangs forever, so any
/// deployment that can lose links or drop requests must set these. kTimeout
/// is reported when a deadline fires; the late reply (if any) is discarded.
struct FabricTimeouts {
  SimDuration control = 0;  ///< allocate/probe/extend/release
  SimDuration data = 0;     ///< store/load/copy (bulk transfers)
};

class Fabric {
 public:
  Fabric(sim::Simulator& sim, sim::Network& net, obs::Context* obs = nullptr)
      : sim_(sim),
        net_(net),
        obs_(obs != nullptr ? *obs : obs::global()),
        scope_(obs_.metrics.scope("ibp")),
        metrics_{scope_.counter("ibp.timeouts"),
                 scope_.counter("ibp.requests_lost"),
                 scope_.counter("ibp.requests_dropped"),
                 scope_.counter("ibp.flows_killed_offline")} {}

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // --- Robustness knobs ----------------------------------------------------

  void set_timeouts(const FabricTimeouts& timeouts) { timeouts_ = timeouts; }
  [[nodiscard]] const FabricTimeouts& timeouts() const { return timeouts_; }

  /// Fault-injection hook: return true to silently eat a request addressed
  /// to `depot` (the caller sees nothing until its deadline fires).
  using DropHook = std::function<bool(const std::string& depot)>;
  void set_drop_hook(DropHook hook) { drop_ = std::move(hook); }

  /// Fault-injection hook: mutate bytes as they leave `depot` on a load —
  /// silent on-the-wire/at-rest corruption. Detection is the job of the
  /// layers above (LoRS block checksums). While a hook is installed every
  /// load hands it a private, metered copy of the served range and serves
  /// whatever the hook leaves there (it may change the length); the stored
  /// bytes are never touched, so clearing the hook serves them intact again.
  using CorruptHook = std::function<void(const std::string& depot, Bytes& data)>;
  void set_corrupt_hook(CorruptHook hook) { corrupt_ = std::move(hook); }

  // --- Hosting ------------------------------------------------------------

  /// Creates a depot hosted at `node`. The name must be unique.
  Depot& add_depot(sim::NodeId node, const std::string& name, const DepotConfig& config);

  [[nodiscard]] Depot* find_depot(const std::string& name);
  [[nodiscard]] const Depot* find_depot(const std::string& name) const;
  [[nodiscard]] sim::NodeId depot_node(const std::string& name) const;
  [[nodiscard]] std::size_t depot_count() const { return depots_.size(); }

  /// Takes a depot off the network (transient failure — IBP's service model
  /// explicitly allows depots to vanish; "it may be necessary to assume that
  /// storage can be permanently lost"). Remote operations against an offline
  /// depot fail with kRefused after the request's one-way latency, and every
  /// in-flight bulk flow to or from the depot is cancelled (a crashed host
  /// neither sends nor receives; bytes "in the network" must not complete
  /// delivery as if the crash never happened). Stored data survives and is
  /// served again once the depot returns.
  void set_offline(const std::string& name, bool offline);
  [[nodiscard]] bool is_offline(const std::string& name) const;

  // --- Remote operations (virtual-time async) ------------------------------

  using AllocCallback = std::function<void(IbpStatus, const CapabilitySet&)>;
  /// allocate() at `depot`, requested from node `client`.
  void allocate_async(sim::NodeId client, const std::string& depot,
                      const AllocRequest& request, AllocCallback on_done);

  using StoreCallback = std::function<void(IbpStatus)>;
  /// Uploads `data` into an existing allocation: bulk flow client -> depot.
  /// When `data` covers the whole allocation the depot keeps the moved-in
  /// buffer itself; otherwise it writes into a copy-on-write clone.
  void store_async(sim::NodeId client, const Capability& write_cap, std::uint64_t offset,
                   Bytes data, const sim::TransferOptions& net_options,
                   StoreCallback on_done);

  using LoadCallback = std::function<void(IbpStatus, std::size_t)>;
  /// Downloads bytes from an allocation: request to depot, bulk flow
  /// depot -> client. The depot serves a snapshot of the allocation taken
  /// when the request arrives, and the bytes land directly at
  /// dest->data() + dest_offset (which must already cover `length` bytes) —
  /// the model of a NIC delivering into a caller-owned slab. That landing
  /// pass, straight from the depot's buffer, is the one payload copy of a
  /// download and is charged to the payload-copy meter. The callback reports
  /// how many bytes landed (0 on failure). The destination is written only
  /// on success, and only on the simulator thread.
  void load_async(sim::NodeId client, const Capability& read_cap, std::uint64_t offset,
                  std::uint64_t length, const sim::TransferOptions& net_options,
                  std::shared_ptr<Bytes> dest, std::uint64_t dest_offset,
                  LoadCallback on_done);

  using ProbeCallback = std::function<void(IbpStatus, const AllocInfo&)>;
  /// Remote probe (manage capability).
  void probe_async(sim::NodeId client, const Capability& manage_cap,
                   ProbeCallback on_done);

  using ManageCallback = std::function<void(IbpStatus)>;
  /// Remote lease extension to now + extra.
  void extend_async(sim::NodeId client, const Capability& manage_cap, SimDuration extra,
                    ManageCallback on_done);

  /// Remote release of an allocation.
  void release_async(sim::NodeId client, const Capability& manage_cap,
                     ManageCallback on_done);

  struct CopyRequest {
    Capability src_read;        ///< where the bytes come from
    std::string dst_depot;      ///< depot that receives the copy
    std::uint64_t src_offset = 0;
    std::uint64_t length = 0;
    AllocRequest dst_alloc;     ///< allocation to create on the destination
    sim::TransferOptions net;   ///< options for the depot-to-depot flow
  };
  /// Third-party copy, orchestrated from `client`: allocate on dst, command
  /// src to push, bulk flow src-depot -> dst-depot, ack to client. The
  /// callback receives the capability set of the new destination allocation.
  /// A copy of a whole source allocation into an allocation of the same size
  /// shares the source's buffer, copy-on-write: a later store into either
  /// allocation leaves the other's bytes unchanged.
  using CopyCallback = std::function<void(IbpStatus, const CapabilitySet&)>;
  void copy_async(sim::NodeId client, const CopyRequest& request, CopyCallback on_done);

  /// Time the named depot's disk is busy through (for tests/metrics).
  [[nodiscard]] SimTime disk_busy_until(const std::string& depot) const;

 private:
  struct Hosted {
    Depot depot;
    sim::NodeId node;
    SimTime disk_busy_until = 0;  ///< FIFO disk queue tail
    bool offline = false;
  };

  // The prologue every remote operation shares (defined in service.cpp).

  /// Reports kNotFound to `cb` at the current instant, with no deadline.
  template <typename... Rest>
  void not_found(std::function<void(IbpStatus, Rest...)> cb);

  /// Looks up the depot an operation addresses; an unknown one gets
  /// not_found(). Otherwise replaces `cb` with its deadline-armed wrapper
  /// and rolls the drop hook. Returns the depot, or nullptr when the
  /// operation ends here.
  template <typename... Rest>
  Hosted* open(const std::string& depot, SimDuration timeout,
               std::function<void(IbpStatus, Rest...)>& cb);

  /// Sends a request from `client` to `hosted`. After the one-way
  /// control-message latency plus the depot op overhead, an offline depot
  /// replies kRefused and a live one runs serve(cb). If the two nodes are
  /// partitioned the request is lost: nothing runs and only the caller's
  /// deadline (if any) reports the failure.
  template <typename... Rest, typename Serve>
  void at_depot(sim::NodeId client, Hosted& hosted,
                std::function<void(IbpStatus, Rest...)> cb, Serve serve);

  /// Wraps `cb` so that whichever fires first wins: the real completion or a
  /// timeout event reporting kTimeout. With timeout <= 0 the callback is
  /// returned unwrapped (no deadline). The disarmed timer is cancelled so it
  /// neither runs nor drags the virtual clock forward.
  template <typename... Rest>
  std::function<void(IbpStatus, Rest...)> with_deadline(
      SimDuration timeout, std::function<void(IbpStatus, Rest...)> cb);

  /// Delivers a reply from the depot back to the client, or loses it if the
  /// route vanished while the operation was in progress.
  void reply_to(sim::NodeId depot_node, sim::NodeId client, std::function<void()> fn);

  /// Rolls the fault-injection drop hook for one request.
  [[nodiscard]] bool dropped(const std::string& depot);

  /// Runs the corrupt hook, if one is installed, on a private copy of the
  /// range `depot` is serving, and serves that copy instead.
  void run_corrupt_hook(const std::string& depot, Snapshot& payload);

  /// Books `bytes` of disk service on the depot, returning the delay from
  /// now until that service completes (FIFO behind earlier bookings).
  SimDuration book_disk(Hosted& hosted, std::uint64_t bytes);

  struct Metrics {
    obs::Counter& timeouts;              ///< operations that hit their deadline
    obs::Counter& requests_lost;         ///< sent while the depot was unreachable
    obs::Counter& requests_dropped;      ///< eaten by the fault-injection hook
    obs::Counter& flows_killed_offline;  ///< in-flight flows cancelled by set_offline
  };

  sim::Simulator& sim_;
  sim::Network& net_;
  obs::Context& obs_;
  obs::Scope scope_;
  Metrics metrics_;
  std::unordered_map<std::string, Hosted> depots_;
  FabricTimeouts timeouts_;
  DropHook drop_;
  CorruptHook corrupt_;
};

}  // namespace lon::ibp
