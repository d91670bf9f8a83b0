#include "session/system.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "ibp/service.hpp"

namespace lon::session {

System::System(const ExperimentConfig& config, int client_count)
    : obs(std::make_shared<obs::Context>()),
      net(sim, config.net_seed),
      fabric(sim, net, obs.get()),
      lors(sim, net, fabric, 0x10f5, obs.get()),
      source(config.lattice) {
  // A private observability context per run: counters start at zero, spans
  // start empty, and concurrent experiments never share state. Tracing is
  // on so every run comes back with its full span tree.
  obs->trace.set_enabled(true);
  fabric.set_timeouts(config.timeouts);
  net.set_full_resolve(config.full_network_resolve);

  // LAN: client(s), client agent and the LAN depots hang off one switch.
  lan_switch = net.add_node("lan-switch");
  const sim::LinkConfig lan_link{config.lan_bandwidth_bps, config.lan_latency, 0.0};
  for (int i = 0; i < client_count; ++i) {
    const std::string name =
        client_count == 1 ? "client" : "client-" + std::to_string(i);
    const sim::NodeId node = net.add_node(name);
    net.add_link(node, lan_switch, lan_link);
    client_nodes.push_back(node);
  }
  agent_node = net.add_node("client-agent");
  net.add_link(agent_node, lan_switch, lan_link);

  for (int i = 0; i < config.lan_depot_count; ++i) {
    const std::string name = "lan-" + std::to_string(i);
    const sim::NodeId node = net.add_node(name + "-node");
    net.add_link(node, lan_switch, lan_link);
    ibp::DepotConfig depot;
    depot.capacity_bytes = 16ull << 30;
    depot.max_alloc_bytes = 1ull << 30;
    depot.disk_bytes_per_sec = config.depot_disk_bps;
    depot.rng_seed = 0x1a00 + static_cast<std::uint64_t>(i);
    fabric.add_depot(node, name, depot);
    lan_depots.push_back(name);
  }

  // WAN: a shared trunk to the "California" side; server depots, the DVS
  // server and the (publishing) server node live behind it.
  wan_router = net.add_node("wan-router");
  net.add_link(lan_switch, wan_router,
               {config.wan_bandwidth_bps, config.wan_latency, config.wan_jitter});
  const sim::LinkConfig far_lan{1e9, kMillisecond, 0.0};

  for (int i = 0; i < config.wan_depot_count; ++i) {
    const std::string name = "ca-" + std::to_string(i);
    const sim::NodeId node = net.add_node(name + "-node");
    net.add_link(node, wan_router, far_lan);
    ibp::DepotConfig depot;
    depot.capacity_bytes = 64ull << 30;
    depot.max_alloc_bytes = 1ull << 30;
    depot.disk_bytes_per_sec = config.depot_disk_bps;
    depot.rng_seed = 0xca00 + static_cast<std::uint64_t>(i);
    fabric.add_depot(node, name, depot);
    wan_depots.push_back(name);
  }
  dvs_node = net.add_node("dvs-server");
  net.add_link(dvs_node, wan_router, far_lan);
  server_node = net.add_node("server");
  net.add_link(server_node, wan_router, far_lan);

  lbone = std::make_unique<lbone::Directory>(net, fabric, obs.get());
  for (const auto& name : lan_depots) lbone->register_depot(name);
  for (const auto& name : wan_depots) lbone->register_depot(name);

  streaming::DvsConfig dvs_config;
  dvs_config.shards = config.dvs_shards;
  dvs_config.shard_service = config.dvs_shard_service;
  dvs = std::make_unique<streaming::DvsServer>(sim, net, dvs_node, source.lattice(),
                                               dvs_config, obs.get());

  // Extra co-sited agent nodes last, so the historical node-id assignment —
  // and with it every seeded single-agent run — stays bit-identical.
  for (int i = 1; i < config.site_agents; ++i) {
    const sim::NodeId node = net.add_node("client-agent-" + std::to_string(i));
    net.add_link(node, lan_switch, lan_link);
    agent_nodes.push_back(node);
  }
}

PublishResult& System::publish(const ExperimentConfig& config,
                               const std::vector<const CursorScript*>& scripts) {
  PublishOptions publish;
  publish.depots = (config.which == Case::kLanData) ? lan_depots : wan_depots;
  publish.replicas = config.publish_replicas;
  publish.net.streams = 8;
  publish.all_filler = config.all_filler;
  if (!config.all_filler) {
    std::set<std::pair<int, int>> visited;
    for (const CursorScript* script : scripts) {
      for (const CursorStep& step : script->steps()) {
        const auto id = source.lattice().view_set_of(step.direction);
        visited.insert({id.row, id.col});
      }
    }
    for (const auto& [row, col] : visited) {
      publish.real_ids.push_back({row, col});
      visited_.push_back({row, col});
    }
  }
  published = publish_database(sim, lors, *dvs, source, server_node, publish);
  if (published.failed > 0) {
    throw std::runtime_error("run_experiment: database publication failed");
  }
  ensure_lod(config);
  return published;
}

void System::ensure_lod(const ExperimentConfig& config) {
  if (!lod_tiers.empty() || config.lod_resolutions.empty()) return;
  // Tiers finest first; lod_ladder rejects duplicates and non-coarse ones.
  std::vector<std::size_t> resolutions = config.lod_resolutions;
  std::sort(resolutions.begin(), resolutions.end(), std::greater<std::size_t>());

  // Same lattice geometry (identical view-set grid) at lower view
  // resolutions: every full-resolution ViewSetId addresses the matching
  // coarse set, and each tier gets its own DVS namespace.
  multidb = lightfield::MultiDatabase::lod_ladder(config.lattice, resolutions);
  for (std::size_t res : resolutions) {
    LodTier tier;
    tier.resolution = res;
    lightfield::LatticeConfig coarse = config.lattice;
    coarse.view_resolution = res;
    tier.source = std::make_unique<lightfield::ProceduralSource>(coarse);
    tier.dvs = std::make_unique<streaming::DvsServer>(
        sim, net, dvs_node, tier.source->lattice(), streaming::DvsConfig{}, obs.get());

    PublishOptions publish;
    publish.depots = (config.which == Case::kLanData) ? lan_depots : wan_depots;
    publish.replicas = config.publish_replicas;
    publish.net.streams = 8;
    publish.all_filler = config.all_filler;
    if (!config.all_filler) publish.real_ids = visited_;
    const PublishResult coarse_published =
        publish_database(sim, lors, *tier.dvs, *tier.source, server_node, publish);
    if (coarse_published.failed > 0) {
      throw std::runtime_error("run_experiment: coarse-tier publication failed");
    }
    lod_tiers.push_back(std::move(tier));
  }
}

void System::make_agent(const ExperimentConfig& config) {
  // The caller's agent knobs, with the fields this topology owns overwritten.
  streaming::ClientAgentConfig agent_config = config.agent;
  agent_config.staging = (config.which == Case::kWanWithLanDepot);
  agent_config.lan_depots = lan_depots;
  agent_config.pool = config.pool;
  agent_config.lod_tiers.clear();
  for (const auto& tier : lod_tiers) {
    agent_config.lod_tiers.push_back({tier.dvs.get(), tier.resolution});
  }
  agent_config.site_cache = nullptr;
  if (config.site_cache) {
    site_cache = std::make_unique<streaming::SiteCache>(sim, streaming::SiteCacheConfig{},
                                                        obs.get());
    agent_config.site_cache = site_cache.get();
  }
  const int count = std::max(1, config.site_agents);
  agents.clear();
  for (int i = 0; i < count; ++i) {
    const sim::NodeId node =
        i == 0 ? agent_node : agent_nodes[static_cast<std::size_t>(i) - 1];
    agents.push_back(std::make_unique<streaming::ClientAgent>(
        sim, net, fabric, lors, *dvs, source.lattice(), node, agent_config,
        obs.get()));
  }
  agent = agents.front().get();
}

void System::make_clients(const ExperimentConfig& config) {
  for (std::size_t i = 0; i < client_nodes.size(); ++i) {
    clients.push_back(std::make_unique<streaming::Client>(
        sim, net, config.lattice, client_nodes[i], *agents[i % agents.size()],
        config.client, obs.get()));
  }
}

void System::start_staging() {
  for (auto& a : agents) a->start_staging();
}

bool System::staging_complete() const {
  for (const auto& a : agents) {
    if (!a->staging_complete()) return false;
  }
  return true;
}

void System::make_server_agent(const ExperimentConfig& config) {
  if (!config.server_agent) return;
  streaming::ServerAgentConfig sa;
  sa.depots = (config.which == Case::kLanData) ? lan_depots : wan_depots;
  sa.replicas = config.publish_replicas;
  sa.net.streams = 8;
  sa.augment_threshold = config.augment_threshold;
  sa.augment_cooldown = config.augment_cooldown;
  // Fan hot view sets toward the client site: augmented replicas land on
  // the LAN depots, so the flash crowd's next round is served locally.
  sa.augment_depots = lan_depots;
  server_agent = std::make_unique<streaming::ServerAgent>(
      sim, net, lors, *dvs, server_node,
      std::shared_ptr<lightfield::ViewSetSource>(
          std::shared_ptr<lightfield::ViewSetSource>{}, &source),
      sa, obs.get());
  dvs->register_server_agent(server_agent.get());
  // Every coarse tier gets its own generator over the tier's source, so a
  // coarse miss can be rendered on demand exactly like a full-resolution one.
  for (auto& tier : lod_tiers) {
    tier.agent = std::make_unique<streaming::ServerAgent>(
        sim, net, lors, *tier.dvs, server_node,
        std::shared_ptr<lightfield::ViewSetSource>(
            std::shared_ptr<lightfield::ViewSetSource>{}, tier.source.get()),
        sa, obs.get());
    tier.dvs->register_server_agent(tier.agent.get());
  }
}

void System::start_repair(const ExperimentConfig& config) {
  if (config.repair_interval <= 0) return;
  repair_interval_ = config.repair_interval;
  repair_batch_ = config.repair_batch;
  repair_replicas_ = config.publish_replicas;
  repair_depots_ = (config.which == Case::kLanData) ? lan_depots : wan_depots;
  repair_sweep_ = [this] {
    if (published.exnodes.empty()) return;
    auto batch = std::make_shared<std::size_t>(
        std::min(repair_batch_, published.exnodes.size()));
    for (std::size_t i = 0; i < *batch; ++i) {
      auto& [id, owned] = published.exnodes[repair_cursor_++ % published.exnodes.size()];
      lors::RepairOptions options;
      options.target_replicas = repair_replicas_;
      options.candidate_depots = repair_depots_;
      lors.repair_async(server_node, owned, options,
                        [this, batch, id = id](const lors::RepairResult& r) {
                          if (r.status != lors::LorsStatus::kCancelled) {
                            for (auto& [pid, pnode] : published.exnodes) {
                              if (pid == id) pnode = r.exnode;
                            }
                            if (r.replicas_lost > 0 || r.replicas_added > 0) {
                              exnode::ExNode copy = r.exnode;
                              dvs->install(id, std::move(copy));
                            }
                          }
                          if (--*batch == 0) {
                            sim.after(repair_interval_, repair_sweep_);
                          }
                        });
    }
  };
  sim.after(repair_interval_, repair_sweep_);
}

void System::arm_faults(fault::FaultInjector& injector, const fault::FaultPlan& faults,
                        SimTime script_start) {
  fault::FaultPlan plan = faults;
  for (auto& c : plan.crashes) c.at += script_start;
  for (auto& p : plan.partitions) p.at += script_start;
  for (auto& d : plan.degradations) d.at += script_start;
  for (auto& d : plan.drops) d.at += script_start;
  for (auto& c : plan.corruptions) c.at += script_start;
  injector.arm(plan);
}

}  // namespace lon::session
