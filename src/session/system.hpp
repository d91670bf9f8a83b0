// The assembled experiment topology — extracted from experiment.cpp so
// scenario compositions (session/scenario.hpp) can reuse the exact same
// system the canonical experiments run on.
//
// The paper's topology (section 4.3) with `client_count` client machines on
// the LAN, all sharing one client agent. Node-creation order for one client
// matches the historical single-client assembly exactly, so existing seeded
// runs stay bit-identical.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "lbone/lbone.hpp"
#include "lightfield/multidb.hpp"
#include "lightfield/procedural.hpp"
#include "lors/lors.hpp"
#include "session/cursor.hpp"
#include "session/experiment.hpp"
#include "session/publisher.hpp"
#include "streaming/client.hpp"
#include "streaming/client_agent.hpp"
#include "streaming/dvs.hpp"
#include "streaming/server_agent.hpp"
#include "streaming/site_cache.hpp"

namespace lon::session {

struct System {
  std::shared_ptr<obs::Context> obs;
  sim::Simulator sim;
  sim::Network net;
  ibp::Fabric fabric;
  lors::Lors lors;
  lightfield::ProceduralSource source;

  sim::NodeId lan_switch = 0;
  std::vector<sim::NodeId> client_nodes;
  sim::NodeId agent_node = 0;
  /// Extra co-sited agent nodes (config.site_agents > 1). Appended after
  /// every historical node so single-agent runs stay bit-identical.
  std::vector<sim::NodeId> agent_nodes;
  std::vector<std::string> lan_depots;
  sim::NodeId wan_router = 0;
  std::vector<std::string> wan_depots;
  sim::NodeId dvs_node = 0;
  sim::NodeId server_node = 0;

  std::unique_ptr<lbone::Directory> lbone;
  std::unique_ptr<streaming::DvsServer> dvs;
  /// Shared per-site depot cache index (config.site_cache only). Declared
  /// before the agents: they deregister their listeners on destruction.
  std::unique_ptr<streaming::SiteCache> site_cache;
  /// All co-sited client agents (config.site_agents of them; at least one).
  std::vector<std::unique_ptr<streaming::ClientAgent>> agents;
  /// The first (historical) agent — the single-agent topology's only one.
  streaming::ClientAgent* agent = nullptr;
  std::vector<std::unique_ptr<streaming::Client>> clients;
  /// Runtime generator + replica augmenter (config.server_agent only).
  std::unique_ptr<streaming::ServerAgent> server_agent;

  /// Coarse tiers for continuous LOD streaming and the kCoarseLod
  /// degradation rung (config.lod_resolutions): the same
  /// lattice geometry published at lower view resolutions, catalogued next
  /// to the full database in a MultiDatabase manifest (the LOD ladder), each
  /// tier served through its own DVS namespace. Ordered finest first.
  struct LodTier {
    std::size_t resolution = 0;
    std::unique_ptr<lightfield::ProceduralSource> source;
    std::unique_ptr<streaming::DvsServer> dvs;
    /// Per-tier runtime generator (config.server_agent only).
    std::unique_ptr<streaming::ServerAgent> agent;
  };
  lightfield::MultiDatabase multidb;
  std::vector<LodTier> lod_tiers;

  /// The owner's catalog from publish(); the repair daemon works from it.
  PublishResult published;

  System(const ExperimentConfig& config, int client_count);

  /// Publishes the database: real pixels for every view set any script
  /// visits, size-matched filler elsewhere (per the content policy). Also
  /// publishes every coarse tier in config.lod_resolutions.
  PublishResult& publish(const ExperimentConfig& config,
                         const std::vector<const CursorScript*>& scripts);

  void make_agent(const ExperimentConfig& config);
  void make_clients(const ExperimentConfig& config);

  /// Begins aggressive prestaging on every agent.
  void start_staging();
  /// True once every agent's staging queue has drained.
  [[nodiscard]] bool staging_complete() const;
  /// Registers the runtime generator behind the DVS (no-op unless
  /// config.server_agent).
  void make_server_agent(const ExperimentConfig& config);

  /// Starts the publisher's repair daemon (no-op unless repair_interval > 0):
  /// every interval, probe the next repair_batch exNodes in the catalog, drop
  /// dead replicas, re-replicate short extents, and push the healed exNode
  /// back into the DVS so readers stop chasing capabilities on crashed depots.
  void start_repair(const ExperimentConfig& config);

  /// Arms the fault plan with every event shifted to the actual script start
  /// (publication already consumed virtual time).
  void arm_faults(fault::FaultInjector& injector, const fault::FaultPlan& faults,
                  SimTime script_start);

 private:
  void ensure_lod(const ExperimentConfig& config);

  std::vector<lightfield::ViewSetId> visited_;  ///< content policy's real ids
  std::size_t repair_cursor_ = 0;
  std::function<void()> repair_sweep_;
  SimDuration repair_interval_ = 0;
  std::size_t repair_batch_ = 4;
  int repair_replicas_ = 1;
  std::vector<std::string> repair_depots_;
};

}  // namespace lon::session
