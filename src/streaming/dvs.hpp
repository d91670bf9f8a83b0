// The Dictionary of View Sets (DVS) — paper section 3.6.
//
// "The DVS server maintains two types of look-up tables: the (i) exNode
// table and the (ii) server agent table. ... In view of the large size of
// exNode tables, the DVS server is implemented in a hierarchical fashion for
// efficient queries. Any query will go through all levels recursively until
// the request is fulfilled. ... In some respects, the DVS service in our
// system is quite similar to the Domain Name Service (DNS)."
//
// We implement the hierarchy as a spatial tree over the view-set grid: each
// internal node routes a query to the child whose region contains the id,
// each hop charging a lookup overhead; leaves hold the exNode entries. On a
// miss the query falls through to the server-agent table: the registered
// generator renders the view set at runtime, uploads it, and the exNode
// table is updated before the reply returns.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "exnode/exnode.hpp"
#include "lightfield/lattice.hpp"
#include "obs/obs.hpp"
#include "simnet/network.hpp"

namespace lon::streaming {

/// The server-agent side of the DVS miss path (implemented by ServerAgent).
class GeneratorService {
 public:
  virtual ~GeneratorService() = default;

  using GenerateCallback =
      std::function<void(bool ok, const exnode::ExNode& exnode)>;

  /// Renders + uploads the view set, returning its new exNode (ok = false:
  /// invalid id or failed upload).
  virtual void generate_async(const lightfield::ViewSetId& id,
                              GenerateCallback on_done) = 0;

  /// Demand-pressure signal: the client side is shedding or degrading
  /// requests for this view set. A generator may react by fanning the view
  /// set's replicas out to more depots (CDN-style tiering). Default: ignore.
  virtual void note_hot(const lightfield::ViewSetId& id, const exnode::ExNode& exnode) {
    (void)id;
    (void)exnode;
  }
};

/// Lookup cost the DVS charges per tree hop.
inline constexpr SimDuration kLevelOverhead = 200 * kMicrosecond;

/// DVS tuning knobs.
struct DvsConfig {
  std::size_t leaf_capacity = 16;                   ///< view-set entries per leaf
  /// Lookup-table shards. The exNode table is partitioned by ViewSetId hash
  /// into `shards` independent spatial trees, each holding ~1/K of the
  /// entries (leaves sized leaf_capacity * shards keep per-leaf density
  /// unchanged), so directory queries from a crowd fan out instead of
  /// serializing. 1 = the classic single-table server, bit-identical to the
  /// pre-shard behaviour.
  std::size_t shards = 1;
  /// Serial service time a query occupies its shard for. 0 (default) models
  /// an uncontended directory — no queueing, identical to pre-shard timing.
  /// When set, concurrent queries to the *same* shard queue behind each
  /// other while different shards proceed in parallel — this is what makes
  /// sharding observable as a latency win under a flash crowd.
  SimDuration shard_service = 0;
};

class DvsServer {
 public:
  DvsServer(sim::Simulator& sim, sim::Network& net, sim::NodeId node,
            const lightfield::SphericalLattice& lattice, DvsConfig config = {},
            obs::Context* obs = nullptr);

  [[nodiscard]] sim::NodeId node() const { return node_; }
  [[nodiscard]] int tree_depth() const { return depth_; }

  /// Registers the generator behind the server-agent table.
  void register_server_agent(GeneratorService* agent) { agent_ = agent; }

  /// Installs an exNode directly (offline database publication).
  void install(const lightfield::ViewSetId& id, exnode::ExNode exnode);

  [[nodiscard]] bool knows(const lightfield::ViewSetId& id) const;

  struct QueryResult {
    bool found = false;
    exnode::ExNode exnode;
    int levels = 0;  ///< tree hops this query made
  };
  using QueryCallback = std::function<void(const QueryResult&)>;

  /// Looks up the exNode for `id` on behalf of a client at `from`.
  /// Charges the control round trip plus per-level lookup overhead. When the
  /// id is unknown and `generate_if_missing` is set and a server agent is
  /// registered, the request is forwarded for runtime generation.
  void query_async(sim::NodeId from, const lightfield::ViewSetId& id,
                   bool generate_if_missing, QueryCallback on_done);

  /// Remote update (e.g. from a server agent after generation).
  void update_async(sim::NodeId from, const lightfield::ViewSetId& id,
                    exnode::ExNode exnode, std::function<void()> on_done);

  /// Demand-pressure report from a client agent: `id` is being shed or
  /// degraded faster than it is served. Fire-and-forget control traffic —
  /// the DVS relays it (with the known exNode) to the server-agent table,
  /// which may augment the view set's replicas.
  void report_hot_async(sim::NodeId from, const lightfield::ViewSetId& id);

 private:
  struct Metrics {
    obs::Counter& queries;
    obs::Counter& hits;
    obs::Counter& misses;           ///< not found and no generation requested
    obs::Counter& forwarded;        ///< sent to the server-agent table
    obs::Counter& updates;
    obs::Counter& levels_visited;   ///< cumulative hops over all queries
    obs::Counter& hot_reports;      ///< demand-pressure reports relayed
  };

  struct Region {
    int row0 = 0, row1 = 0, col0 = 0, col1 = 0;  // half-open view-set ranges

    [[nodiscard]] bool contains(const lightfield::ViewSetId& id) const {
      return id.row >= row0 && id.row < row1 && id.col >= col0 && id.col < col1;
    }
    [[nodiscard]] std::size_t count() const {
      return static_cast<std::size_t>(row1 - row0) * static_cast<std::size_t>(col1 - col0);
    }
  };

  struct Node {
    Region region;
    std::vector<std::unique_ptr<Node>> children;  // empty = leaf
    std::unordered_map<lightfield::ViewSetId, exnode::ExNode, lightfield::ViewSetIdHash>
        entries;  // leaves only
  };

  /// One hash partition of the exNode table: its own spatial tree plus (when
  /// sharded) per-shard dvs.shard.* counters and a serial-service horizon.
  struct Shard {
    std::unique_ptr<Node> root;
    int depth = 1;
    SimTime busy_until = 0;            ///< serial service: shard free again at
    obs::Counter* queries = nullptr;   ///< dvs.shard.queries (shards > 1 only)
    obs::Counter* hits = nullptr;      ///< dvs.shard.hits    (shards > 1 only)
    obs::Counter* waits = nullptr;     ///< dvs.shard.waits   (shards > 1 only)
  };

  static std::unique_ptr<Node> build_tree(const Region& region, std::size_t leaf_capacity,
                                          int* depth_out, int depth);

  [[nodiscard]] std::size_t shard_of(const lightfield::ViewSetId& id) const {
    return lightfield::ViewSetIdHash{}(id) % shards_.size();
  }

  /// Walks the id's shard root -> leaf; returns the leaf and the hop count.
  /// The walk reads only the tree's shape, so it is const; the leaf it
  /// returns stays writable for install() and the query path.
  Node* descend(const lightfield::ViewSetId& id, int* levels) const;

  sim::Simulator& sim_;
  sim::Network& net_;
  sim::NodeId node_;
  DvsConfig config_;
  obs::Context& obs_;
  obs::Scope scope_;
  Metrics metrics_;
  std::vector<Shard> shards_;
  int depth_ = 1;  ///< max tree depth over all shards
  GeneratorService* agent_ = nullptr;
};

}  // namespace lon::streaming
