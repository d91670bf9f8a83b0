// Flow-level network model on top of the discrete-event simulator.
//
// Nodes are connected by full-duplex point-to-point links with a propagation
// latency and a capacity. A bulk transfer is a *flow*: it follows the
// lowest-latency route between two nodes, and all flows crossing a link
// share its capacity under weighted max-min fairness (the fluid approximation
// of competing TCP streams). In addition, each flow is individually capped at
// streams * window / RTT — the classic TCP window limit. This cap is what
// made single-socket wide-area transfers slow in 2003 and what the LoRS
// multi-threaded download algorithms (Plank et al., CS-02-485) overcome by
// opening parallel streams; modelling it lets the reproduction show the same
// effect.
//
// Whenever a flow starts or finishes, every flow's progress is integrated up
// to the current instant and rates are recomputed, so the model is exact for
// piecewise-constant rate allocations.
//
// The re-solve is incremental: arrivals and departures mark the directed
// links whose membership changed, same-instant changes coalesce into one
// deferred solve, and the waterfill runs only over the closure of flows and
// links reachable from the marked links (flows in untouched components keep
// their previous rates — bit-for-bit, since they are not even recomputed).
// Each solve arms a completion timer only for the flows due first (the
// earliest target, in FlowId order); the rest hold no event until a later
// solve makes them due. A reallocation storm therefore neither piles dead
// closures into the event queue nor cancels and re-inserts a timer per live
// flow. See DESIGN.md §15 for why the event order stays exact.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "simnet/simulator.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace lon::sim {

using NodeId = std::uint32_t;
using LinkId = std::uint32_t;
using FlowId = std::uint64_t;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

struct LinkConfig {
  double bandwidth_bps = 1e9;     ///< capacity per direction (bits/second)
  SimDuration latency = kMillisecond;  ///< one-way propagation delay
  double jitter_frac = 0.0;       ///< stddev of per-flow latency noise, as a
                                  ///< fraction of latency (deterministic seed)
};

/// Per-link transfer statistics (per direction).
struct LinkStats {
  std::uint64_t bytes_carried = 0;
  std::uint64_t flows_carried = 0;
};

struct TransferOptions {
  double weight = 1.0;        ///< max-min fairness weight (priority)
  int streams = 1;            ///< parallel TCP streams (LoRS threads)
  std::uint64_t window_bytes = 64 * 1024;  ///< per-stream TCP window
  bool handshake = true;      ///< pay one RTT of connection setup
};

/// Outcome handed to a transfer's completion callback.
struct TransferResult {
  FlowId id = 0;
  SimTime started = 0;
  SimTime finished = 0;   ///< instant the last byte arrives at the receiver
  std::uint64_t bytes = 0;
  bool cancelled = false;

  [[nodiscard]] SimDuration elapsed() const { return finished - started; }
};

using TransferCallback = std::function<void(const TransferResult&)>;

class Network {
 public:
  /// The RNG seed drives latency jitter only; 0 disables jitter entirely
  /// regardless of per-link jitter_frac.
  explicit Network(Simulator& sim, std::uint64_t jitter_seed = 0);

  // --- Topology -----------------------------------------------------------

  NodeId add_node(std::string name);
  [[nodiscard]] const std::string& node_name(NodeId id) const;
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  /// Adds a full-duplex link between a and b. Returns the link id (shared by
  /// both directions; stats are tracked per direction).
  LinkId add_link(NodeId a, NodeId b, const LinkConfig& config);

  /// Takes a link down (or brings it back). A down link carries no traffic:
  /// routes are recomputed around it, and flows already crossing it stall at
  /// rate zero — bytes "in the network" do NOT keep arriving, which is what
  /// makes a network partition observable only through timeouts. Flows
  /// resume from where they stalled when the link returns.
  void set_link_up(LinkId id, bool up);
  [[nodiscard]] bool link_up(LinkId id) const { return links_.at(id).up; }

  /// The link connecting a and b directly, if any.
  [[nodiscard]] std::optional<LinkId> link_between(NodeId a, NodeId b) const;

  /// Recomputes all-pairs routes. Called lazily on first use after a
  /// topology change; exposed for tests. Route tables are derived state, so
  /// the rebuild is const (the Network is simulator-thread-confined).
  void recompute_routes() const;

  /// One-way propagation latency along the route from a to b (no jitter).
  [[nodiscard]] SimDuration path_latency(NodeId a, NodeId b) const;

  /// Round-trip propagation latency between a and b.
  [[nodiscard]] SimDuration rtt(NodeId a, NodeId b) const;

  /// True if a route exists between the two nodes.
  [[nodiscard]] bool reachable(NodeId a, NodeId b) const;

  // --- Transfers ----------------------------------------------------------

  /// Starts a bulk transfer of `bytes` from src to dst. The callback fires
  /// (in virtual time) when the final byte arrives, or on cancel.
  /// Zero-byte transfers complete after one latency (plus handshake).
  FlowId start_transfer(NodeId src, NodeId dst, std::uint64_t bytes,
                        const TransferOptions& options, TransferCallback on_done);

  /// Cancels an in-flight transfer; its callback fires with cancelled=true.
  /// Returns false if the flow already completed.
  bool cancel(FlowId id);

  /// Cancels every in-flight flow with `node` as an endpoint (a crashed host
  /// neither sends nor receives). Each cancelled flow's callback fires with
  /// cancelled=true. Returns the number of flows killed.
  std::size_t cancel_node_flows(NodeId node);

  [[nodiscard]] std::size_t active_flows() const { return flows_.size(); }

  /// Instantaneous allocated rate of a flow in bytes/second (0 if finished).
  [[nodiscard]] double flow_rate(FlowId id) const;

  [[nodiscard]] const LinkStats& link_stats(LinkId link, bool forward) const;

  [[nodiscard]] Simulator& simulator() { return sim_; }

  // --- Reallocation instrumentation ---------------------------------------

  /// Number of max-min solves actually executed.
  [[nodiscard]] std::uint64_t reallocs() const { return reallocs_; }
  /// Number of solve requests (same-instant requests coalesce into one solve).
  [[nodiscard]] std::uint64_t realloc_requests() const { return realloc_requests_; }
  /// Total flows whose rate was recomputed, summed over all solves.
  [[nodiscard]] std::uint64_t realloc_flows_touched() const {
    return realloc_flows_touched_;
  }

  /// Debug switch: treat every solve as a full-graph solve instead of the
  /// affected-component solve. Differential tests compare the two modes.
  void set_full_resolve(bool on) { full_resolve_ = on; }
  [[nodiscard]] bool full_resolve() const { return full_resolve_; }

 private:
  struct Link {
    NodeId a = kInvalidNode;
    NodeId b = kInvalidNode;
    LinkConfig config;
    bool up = true;
    LinkStats stats_fwd;  // a -> b
    LinkStats stats_rev;  // b -> a
  };

  // A directed link is (link index, forward?) encoded as 2*index + dir.
  using DirLink = std::uint32_t;
  static DirLink dir_link(LinkId id, bool forward) { return 2 * id + (forward ? 0 : 1); }

  struct Flow {
    FlowId id = 0;
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    std::vector<DirLink> path;
    double remaining = 0.0;      // bytes still to transmit
    std::uint64_t bytes = 0;
    double rate = 0.0;           // bytes/second, current allocation
    double weight = 1.0;
    double rate_cap = 0.0;       // streams * window / rtt, bytes/second
    SimTime last_update = 0;
    SimTime started = 0;
    SimDuration delivery_latency = 0;  // one-way latency incl. jitter
    TimerId completion_event = 0;      // armed only while the flow is due first
    bool completion_scheduled = false;
    // Scratch flags for the waterfill (valid only inside reallocate()).
    bool wf_affected = false;
    bool wf_assigned = false;
    bool wf_on_bottleneck = false;
    TransferCallback on_done;
  };

  /// Integrates progress of all flows up to now, recomputes the weighted
  /// max-min allocation over the affected component, re-targets every
  /// flow's completion, and arms a timer only for the flows whose target is
  /// the earliest; the rest are disarmed until a later solve.
  void reallocate();

  /// Coalesces solve requests: the first request at an instant schedules one
  /// deferred solve that runs after every already-queued same-instant event.
  void request_reallocate();

  /// Registers the flow on its links' member lists and marks them changed.
  void attach_flow(Flow& flow);
  void detach_flow(const Flow& flow);
  void mark_link_changed(DirLink dl);

  /// Runs from the flow's own completion timer, so there is none to cancel.
  void complete_flow(FlowId id);
  [[nodiscard]] std::vector<DirLink> route(NodeId src, NodeId dst) const;

  Simulator& sim_;
  Rng jitter_rng_;
  bool jitter_enabled_ = false;

  std::vector<std::string> nodes_;
  std::vector<Link> links_;
  // adjacency: node -> list of (neighbor, link id)
  std::vector<std::vector<std::pair<NodeId, LinkId>>> adjacency_;

  // Route tables are derived from the topology and rebuilt lazily on first
  // use after a change; mutable so const queries can trigger the rebuild.
  // next_hop_[src][dst] = link id to take, or kNoLink.
  mutable std::vector<std::vector<LinkId>> next_hop_;
  mutable std::vector<std::vector<SimDuration>> latency_table_;
  mutable bool routes_dirty_ = true;

  std::map<FlowId, Flow> flows_;  // node-stable; iterates in FlowId order
  FlowId next_flow_id_ = 1;

  // Per-directed-link member lists, each sorted by FlowId — the waterfill's
  // accumulation order must match iterating flows_ in id order.
  std::vector<std::vector<Flow*>> link_members_;
  std::vector<DirLink> changed_links_;   // membership/capacity changes since
  std::vector<char> link_changed_;       // the last solve (flag per DirLink)
  std::vector<char> link_visited_;       // closure scratch
  std::vector<Flow*> due_;               // solve scratch: flows due first
  bool realloc_pending_ = false;
  bool full_resolve_ = false;

  std::uint64_t reallocs_ = 0;
  std::uint64_t realloc_requests_ = 0;
  std::uint64_t realloc_flows_touched_ = 0;
};

}  // namespace lon::sim
