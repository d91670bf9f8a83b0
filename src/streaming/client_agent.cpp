#include "streaming/client_agent.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "streaming/site_cache.hpp"
#include "util/log.hpp"

namespace lon::streaming {

const char* to_string(AccessClass cls) {
  switch (cls) {
    case AccessClass::kAgentHit:
      return "hit";
    case AccessClass::kLanDepot:
      return "lan-depot";
    case AccessClass::kWan:
      return "wan";
  }
  return "?";
}

const char* to_string(DegradeLevel level) {
  switch (level) {
    case DegradeLevel::kFull:
      return "full";
    case DegradeLevel::kLanOnly:
      return "lan-only";
    case DegradeLevel::kCoarseLod:
      return "coarse-lod";
    case DegradeLevel::kDemandOnly:
      return "demand-only";
  }
  return "?";
}

ClientAgent::ClientAgent(sim::Simulator& sim, sim::Network& net, ibp::Fabric& fabric,
                         lors::Lors& lors, DvsServer& dvs,
                         const lightfield::SphericalLattice& lattice, sim::NodeId node,
                         ClientAgentConfig config, obs::Context* obs)
    : sim_(sim),
      net_(net),
      fabric_(fabric),
      lors_(lors),
      dvs_(dvs),
      lattice_(lattice),
      node_(node),
      config_(std::move(config)),
      obs_(obs != nullptr ? *obs : obs::global()),
      scope_(obs_.metrics.scope("agent")),
      metrics_{scope_.counter("agent.requests"),
               scope_.counter("agent.hits"),
               scope_.counter("agent.lan_accesses"),
               scope_.counter("agent.wan_accesses"),
               scope_.counter("agent.prefetches"),
               scope_.counter("agent.staged"),
               scope_.counter("agent.staging_failures"),
               scope_.counter("agent.refetches"),
               scope_.counter("agent.invalidations"),
               scope_.counter("agent.restaged"),
               scope_.counter("agent.lease_refreshes"),
               scope_.counter("policy.predictions"),
               scope_.counter("prefetch.bytes"),
               scope_.counter("prefetch.useful"),
               scope_.counter("prefetch.useful_bytes"),
               scope_.counter("cache.pollution_evictions"),
               scope_.counter("cache.rejected_prefetch"),
               scope_.counter("agent.demand_shed"),
               scope_.counter("agent.shed_queue_full"),
               scope_.counter("agent.shed_no_tokens"),
               scope_.counter("agent.shed_deadline"),
               scope_.counter("agent.downgrades"),
               scope_.counter("agent.upgrades"),
               scope_.counter("agent.degrade_lan_only"),
               scope_.counter("agent.degrade_lod"),
               scope_.counter("agent.degrade_demand_only"),
               scope_.counter("agent.hot_reports"),
               scope_.counter("agent.lod_coarse_serves"),
               scope_.counter("agent.lod_refinements"),
               scope_.counter("agent.lod_refined"),
               scope_.counter("agent.payload_copy_bytes"),
               scope_.counter("agent.restage_coalesced"),
               scope_.counter("agent.site_hits"),
               scope_.counter("agent.site_adopted"),
               scope_.counter("agent.stage_wan_bytes"),
               scope_.gauge("agent.demand_wan_active")},
      cache_(config_.cache_bytes),
      admission_(config_.admission),
      latency_(config_.latency) {
  if (config_.staging && config_.lan_depots.empty()) {
    throw std::invalid_argument("ClientAgent: staging enabled without LAN depots");
  }
  std::vector<std::size_t> tier_resolutions;
  for (const auto& tier : config_.lod_tiers) {
    if (tier.dvs == nullptr) {
      throw std::invalid_argument("ClientAgent: LOD tier without a DVS");
    }
    tier_resolutions.push_back(tier.resolution);
  }
  lod_cost_ratios_ = policy::LodSelector::cost_ratios(
      lattice_.config().view_resolution, tier_resolutions);
  // Plain LRU has no policy object and keeps the cache's O(1) eviction path;
  // other strategies install one (and the lattice, for cursor distances).
  cache_.configure(&lattice_, policy::make_eviction_policy(config_.eviction));
  prefetch_policy_ = policy::make_prefetch_policy(
      config_.prefetch ? config_.prefetch_strategy : policy::PrefetchStrategy::kNone);
  if (config_.site_cache != nullptr) {
    site_listener_ = config_.site_cache->add_listener(
        [this](const lightfield::ViewSetId& id, int /*lod*/) { on_site_invalidate(id); });
  }
}

ClientAgent::~ClientAgent() {
  if (site_listener_.has_value() && config_.site_cache != nullptr) {
    config_.site_cache->remove_listener(*site_listener_);
  }
}

void ClientAgent::request_view_set(const lightfield::ViewSetId& id,
                                   RichDeliverCallback on_done, obs::SpanId parent_span) {
  request_view_set(id, node_, std::move(on_done), parent_span);
}

void ClientAgent::request_view_set(const lightfield::ViewSetId& id, sim::NodeId requester,
                                   RichDeliverCallback on_done, obs::SpanId parent_span) {
  metrics_.requests.inc();
  // Admission only guards work that would actually be started: a cache hit
  // or joining an already-running fetch costs (almost) nothing and is always
  // served — shedding those would only create retry traffic.
  if (config_.admission.enabled && !cache_.contains(id) && !inflight_.contains(id)) {
    const policy::FetchClass cls = fetch_class_of(id);
    // The estimate only gates while the WAN demand path is actually busy: a
    // frozen-high EWMA on an idle link must not starve the first request
    // that would refresh it.
    const bool congested = cls == policy::FetchClass::kWan && demand_wan_active_ > 0;
    const SimDuration est = congested ? latency_.estimate(cls) : 0;
    const AdmissionDecision decision =
        admission_.admit(static_cast<std::uint64_t>(requester), sim_.now(),
                         static_cast<std::size_t>(demand_inflight_), est, config_.deadline);
    if (decision != AdmissionDecision::kAdmit) {
      deliver_shed(id, decision, std::move(on_done), parent_span);
      return;
    }
  }
  fetch(id, std::move(on_done), /*demand=*/true, parent_span);
}

void ClientAgent::deliver_shed(const lightfield::ViewSetId& id, AdmissionDecision reason,
                               RichDeliverCallback cb, obs::SpanId parent) {
  metrics_.demand_shed.inc();
  switch (reason) {
    case AdmissionDecision::kShedQueueFull:
      metrics_.shed_queue_full.inc();
      break;
    case AdmissionDecision::kShedNoTokens:
      metrics_.shed_no_tokens.inc();
      break;
    case AdmissionDecision::kShedDeadline:
      metrics_.shed_deadline.inc();
      break;
    case AdmissionDecision::kAdmit:
      break;
  }
  const obs::SpanId span = obs_.trace.instant("agent.shed", sim_.now(), parent);
  obs_.trace.arg(span, "view_set", id.key());
  obs_.trace.arg(span, "reason", to_string(reason));
  note_pressure(id);
  observe_deadline(/*miss=*/true);
  if (!cb) return;
  sim_.after(0, [cb = std::move(cb)] {
    static const auto empty = std::make_shared<const Bytes>();
    Delivery delivery{empty, AccessClass::kWan, 0};
    delivery.status = DeliveryStatus::kShed;
    cb(delivery);
  });
}

void ClientAgent::fetch(const lightfield::ViewSetId& id, RichDeliverCallback cb,
                        bool demand, obs::SpanId parent) {
  // 1. Agent cache.
  bool first_prefetch_hit = false;
  if (std::shared_ptr<const Bytes> data = cache_.get(id, &first_prefetch_hit, demand);
      data != nullptr) {
    if (demand) {
      metrics_.hits.inc();
      observe_deadline(/*miss=*/false);  // memory hits always beat the deadline
    }
    if (first_prefetch_hit) {
      metrics_.prefetch_useful.inc();
      metrics_.prefetch_useful_bytes.inc(data->size());
    }
    if (cb) {
      const obs::SpanId span = obs_.trace.begin("agent.fetch", sim_.now(), parent);
      obs_.trace.arg(span, "view_set", id.key());
      obs_.trace.arg(span, "source", "cache");
      // Serving from memory: the figure-12 "hit" latency. The shared_ptr
      // keeps the payload alive even if the entry is evicted meanwhile.
      sim_.after(kAgentHitLatency, [this, span, data = std::move(data),
                                    cb = std::move(cb)] {
        obs_.trace.end(span, sim_.now());
        cb(Delivery{data, AccessClass::kAgentHit, kAgentHitLatency});
      });
    }
    return;
  }

  // 1.5 Continuous LOD: when the selector says a full-resolution fetch
  //     cannot make the deadline and a coarse tier of this view set is
  //     already cached, serve it immediately — degrade resolution, never
  //     fluidity — and upgrade in the background. Checked before the
  //     join below: waiting on an in-flight full fetch would reintroduce
  //     exactly the latency the coarse copy hides.
  if (demand && max_lod() > 0 && choose_lod(id, sim_.now()) > 0) {
    if (const int have = cache_.best_coarse_lod(id, max_lod()); have > 0) {
      if (std::shared_ptr<const Bytes> data =
              cache_.get(id, nullptr, /*demand=*/true, have)) {
        metrics_.hits.inc();
        metrics_.lod_coarse_serves.inc();
        observe_deadline(/*miss=*/false);
        start_refinement(id);
        if (cb) {
          const obs::SpanId span = obs_.trace.begin("agent.fetch", sim_.now(), parent);
          obs_.trace.arg(span, "view_set", id.key());
          obs_.trace.arg(span, "source", "cache-coarse");
          obs_.trace.arg(span, "lod", std::to_string(have));
          sim_.after(kAgentHitLatency,
                     [this, span, have, data = std::move(data), cb = std::move(cb)] {
                       obs_.trace.end(span, sim_.now());
                       Delivery delivery{data, AccessClass::kAgentHit, kAgentHitLatency};
                       delivery.lod = have;
                       cb(delivery);
                     });
        }
        return;
      }
    }
  }

  // 2. Join an in-flight fetch of the same view set (e.g. the user caught up
  //    with an ongoing prefetch — part of the latency is already hidden).
  auto it = inflight_.find(id);
  if (it != inflight_.end()) {
    // A demand request catching up with its own prefetch is the other shape
    // of "useful prefetch": part of the latency is already hidden.
    if (demand && it->second.prefetch_origin) it->second.demand_joined = true;
    it->second.waiters.push_back(Waiter{std::move(cb), sim_.now(), demand, parent});
    return;
  }

  // 3. Start a fresh fetch.
  Inflight flight;
  flight.waiters.push_back(Waiter{std::move(cb), sim_.now(), demand, parent});
  flight.started = sim_.now();
  flight.prefetch_origin = !demand;
  if (demand) ++demand_inflight_;
  flight.span = obs_.trace.begin("agent.fetch", sim_.now(), parent);
  obs_.trace.arg(flight.span, "view_set", id.key());
  obs_.trace.arg(flight.span, "demand", demand ? "true" : "false");
  inflight_.emplace(id, std::move(flight));
  resolve_and_download(id);
}

AccessClass ClientAgent::classify(const exnode::ExNode& exnode) const {
  // Scan every extent, not just the first: partial staging or post-repair
  // dark extents can leave the LAN replica out of extent 0 while the rest of
  // the view set is served locally. Judging only the front extent then
  // misclassifies the access as WAN — inflating agent.wan_accesses and
  // wrongly pausing staging under pause_staging_on_miss.
  SimDuration best = std::numeric_limits<SimDuration>::max();
  for (const auto& extent : exnode.extents()) {
    for (const auto& replica : extent.replicas) {
      const sim::NodeId depot = fabric_.depot_node(replica.read.depot);
      if (!net_.reachable(node_, depot)) continue;
      best = std::min(best, net_.path_latency(node_, depot));
    }
  }
  if (best == std::numeric_limits<SimDuration>::max()) return AccessClass::kWan;
  return best <= kLanThreshold ? AccessClass::kLanDepot : AccessClass::kWan;
}

policy::FetchClass ClientAgent::fetch_class_of(const lightfield::ViewSetId& id) const {
  if (staged_.contains(id)) return policy::FetchClass::kLan;
  // A neighbour's staged copy counts too: the site index would serve it LAN-locally.
  if (config_.site_cache != nullptr && config_.site_cache->contains(id)) {
    return policy::FetchClass::kLan;
  }
  if (auto cached = exnode_cache_.find(id); cached != exnode_cache_.end()) {
    return classify(cached->second) == AccessClass::kLanDepot ? policy::FetchClass::kLan
                                                              : policy::FetchClass::kWan;
  }
  return policy::FetchClass::kWan;
}

int ClientAgent::choose_lod(const lightfield::ViewSetId& id, SimTime started) const {
  if (config_.lod_tiers.empty()) return 0;
  // Ladder rung: overload already proved full resolution unaffordable —
  // serve the coarsest tier regardless of the per-access prediction.
  if (config_.degrade && level_ >= DegradeLevel::kCoarseLod) return max_lod();
  if (!config_.lod_streaming || config_.deadline <= 0) return 0;
  const SimDuration budget = config_.deadline - (sim_.now() - started);
  return lod_selector_.pick(latency_.estimate(fetch_class_of(id)), budget,
                            lod_cost_ratios_);
}

void ClientAgent::resolve_and_download(const lightfield::ViewSetId& id, bool allow_coarse) {
  // Prestaged? Prefer the LAN copy.
  if (auto staged = staged_.find(id); staged != staged_.end()) {
    if (auto it = inflight_.find(id); it != inflight_.end()) it->second.from_staged = true;
    download(id, staged->second, AccessClass::kLanDepot);
    return;
  }
  // A co-sited agent's staged copy? The shared site index names it, and the
  // bytes are already on a LAN depot.
  if (config_.site_cache != nullptr) {
    if (auto site = config_.site_cache->lookup(id); site.has_value()) {
      metrics_.site_hits.inc();
      if (auto it = inflight_.find(id); it != inflight_.end())
        it->second.from_staged = true;
      download(id, *site, classify(*site));
      return;
    }
  }
  // Which tier should a demand flight target? Only demand traffic degrades:
  // a prefetch at a coarse tier would anticipate the wrong bytes.
  int want = 0;
  if (allow_coarse) {
    if (auto flight = inflight_.find(id);
        flight != inflight_.end() && !flight->second.refinement &&
        (!flight->second.prefetch_origin || flight->second.demand_joined)) {
      want = choose_lod(id, flight->second.started);
    }
  }
  // Known exNode?
  if (auto cached = exnode_cache_.find(id); cached != exnode_cache_.end()) {
    const AccessClass cls = classify(cached->second);
    // Coarse substitution only pays when the full fetch would be WAN-bound.
    if (cls == AccessClass::kWan && want > 0 && try_lod(id, want)) return;
    download(id, cached->second, cls);
    return;
  }
  // Unknown exNode means a WAN round trip at best — degrade before asking.
  if (want > 0 && try_lod(id, want)) return;
  // Ask the DVS (runtime generation allowed: the miss path of section 3.6).
  // The ambient register parents the DVS query span under this fetch.
  const auto flight = inflight_.find(id);
  const obs::Tracer::Ambient ambient(
      obs_.trace, flight != inflight_.end() ? flight->second.span : 0);
  dvs_.query_async(node_, id, /*generate_if_missing=*/true,
                   [this, id](const DvsServer::QueryResult& result) {
                     if (!result.found) {
                       LON_LOG(kWarn, "client-agent")
                           << "view set " << id.key() << " unavailable";
                       finish_fetch(id, nullptr, 0);
                       return;
                     }
                     exnode_cache_[id] = result.exnode;
                     download(id, result.exnode, classify(result.exnode));
                   });
}

bool ClientAgent::try_lod(const lightfield::ViewSetId& id, int lod) {
  if (lod <= 0 || lod > max_lod()) return false;
  auto it = inflight_.find(id);
  if (it == inflight_.end()) return false;
  // Only demand traffic degrades; a refinement exists to fetch full bytes.
  if (it->second.refinement) return false;
  if (it->second.prefetch_origin && !it->second.demand_joined) return false;
  const obs::Tracer::Ambient ambient(obs_.trace, it->second.span);
  config_.lod_tiers[static_cast<std::size_t>(lod) - 1].dvs->query_async(
      node_, id, /*generate_if_missing=*/false,
      [this, id, lod](const DvsServer::QueryResult& result) {
        if (!result.found) {
          // No coarse copy either — fall through to the full-resolution
          // path, with coarse lookups suppressed to break the recursion.
          resolve_and_download(id, /*allow_coarse=*/false);
          return;
        }
        // The ladder's forced pick keeps its historical counter; streaming
        // picks are counted per delivery (lod_coarse_serves) instead.
        if (config_.degrade && level_ >= DegradeLevel::kCoarseLod) {
          metrics_.degrade_lod.inc();
        }
        note_pressure(id);
        if (auto flight = inflight_.find(id); flight != inflight_.end()) {
          flight->second.lod = lod;
          obs_.trace.arg(flight->second.span, "lod", std::to_string(lod));
        }
        download(id, result.exnode, classify(result.exnode));
      });
  return true;
}

void ClientAgent::start_refinement(const lightfield::ViewSetId& id) {
  if (!config_.lod_refine || !config_.lod_streaming) return;
  if (cache_.contains(id) || inflight_.contains(id)) return;
  // The ladder's WAN-yielding rungs apply to refinement just as they do to
  // prefetch: background upgrades must not fight a demand-path overload.
  if (config_.degrade && level_ >= DegradeLevel::kLanOnly &&
      fetch_class_of(id) != policy::FetchClass::kLan) {
    return;
  }
  metrics_.lod_refinements.inc();
  fetch(id, nullptr, /*demand=*/false);
  // fetch() always goes async for a non-resident id, so the flight exists;
  // tagging it keeps refinement out of the prefetch slot/byte accounting.
  if (auto it = inflight_.find(id); it != inflight_.end()) {
    it->second.refinement = true;
    obs_.trace.arg(it->second.span, "refinement", "true");
  }
}

void ClientAgent::download(const lightfield::ViewSetId& id, const exnode::ExNode& exnode,
                           AccessClass cls) {
  auto it = inflight_.find(id);
  if (it != inflight_.end()) it->second.cls = cls;
  if (cls == AccessClass::kWan) metrics_.demand_wan_active.set(++demand_wan_active_);

  lors::DownloadOptions options;
  options.net = (cls == AccessClass::kLanDepot) ? config_.lan_net : config_.wan_net;
  options.retry = config_.retry;
  options.parent_span = it != inflight_.end() ? it->second.span : 0;
  // Stripe verification batches across the pool, off the simulator thread.
  options.pool = config_.pool;
  lors_.download_async(node_, exnode, options,
                       [this, id, cls](lors::DownloadResult result) {
                         if (cls == AccessClass::kWan) {
                           metrics_.demand_wan_active.set(--demand_wan_active_);
                           staging_pump();  // resume if paused on miss
                         }
                         if (result.status != lors::LorsStatus::kOk) {
                           LON_LOG(kWarn, "client-agent")
                               << "download of " << id.key() << " failed: "
                               << lors::to_string(result.status);
                           // The failed attempt's landed bytes were real
                           // copy work even though nothing is delivered.
                           metrics_.payload_copy_bytes.inc(result.copied_bytes);
                           // The exNode we trusted may be stale: leases run
                           // out, soft staged copies get revoked, depots
                           // crash. Forget everything we believed about this
                           // view set and resolve it from scratch before
                           // giving the client a failure.
                           auto it = inflight_.find(id);
                           if (it != inflight_.end() &&
                               it->second.attempts < config_.max_refetch) {
                             ++it->second.attempts;
                             metrics_.refetches.inc();
                             obs_.trace.instant("agent.refetch", sim_.now(),
                                                it->second.span);
                             // The retry re-decides its tier from scratch: a
                             // failed coarse attempt may be re-resolved at
                             // full resolution, and stale lod would mislabel
                             // (and mis-cache) those bytes.
                             it->second.lod = 0;
                             // Drop the staged/site copy only if this flight
                             // was actually served from it — a WAN-side
                             // failure must not destroy a healthy (possibly
                             // freshly restaged) LAN replica, nor count a
                             // second restage for the same incident.
                             const bool drop = it->second.from_staged;
                             it->second.from_staged = false;
                             invalidate(id, drop);
                             resolve_and_download(id);
                             return;
                           }
                           finish_fetch(id, nullptr, 0);
                           return;
                         }
                         finish_fetch(id, std::move(result.data), result.copied_bytes);
                       });
}

void ClientAgent::invalidate(const lightfield::ViewSetId& id, bool drop_staged) {
  metrics_.invalidations.inc();
  obs_.trace.instant("agent.invalidate", sim_.now());
  exnode_cache_.erase(id);
  if (!drop_staged) return;
  const bool had_staged = staged_.erase(id) > 0;
  const bool had_site =
      config_.site_cache != nullptr && config_.site_cache->contains(id);
  // Telling the site fans out to every co-sited agent (this one included;
  // its own listener just deduplicates against the restage queue).
  if (had_site) config_.site_cache->invalidate(id);
  if (had_staged || had_site) queue_restage(id);
}

void ClientAgent::queue_restage(const lightfield::ViewSetId& id) {
  if (!staging_active_ || !config_.restage_on_failure) return;
  if (staged_.contains(id)) return;  // a fresh copy already landed
  // One incident, one restage: queue_restage can re-enter while the pump is
  // already staging this id (the local invalidate and the site-wide fanout
  // both fire for the same drop), and unstaged_ alone cannot see an attempt
  // that the pump has already picked up.
  if (staging_ids_.contains(id)) return;
  if (std::find(unstaged_.begin(), unstaged_.end(), id) != unstaged_.end()) return;
  unstaged_.push_back(id);
  metrics_.restaged.inc();
  staging_pump();
}

void ClientAgent::on_site_invalidate(const lightfield::ViewSetId& id) {
  // A shared copy this agent may rely on is dead: drop the derived local
  // beliefs in the same instant as every co-sited agent, then heal.
  exnode_cache_.erase(id);
  staged_.erase(id);
  queue_restage(id);
}

void ClientAgent::finish_fetch(const lightfield::ViewSetId& id, std::shared_ptr<Bytes> data,
                               std::uint64_t copied_bytes) {
  auto it = inflight_.find(id);
  if (it == inflight_.end()) return;
  Inflight flight = std::move(it->second);
  inflight_.erase(it);
  if (!flight.prefetch_origin && demand_inflight_ > 0) --demand_inflight_;

  const bool ok = data != nullptr && !data->empty();
  // The pooled download slab is handed onward by reference — cache entries
  // and deliveries all alias it; nothing below copies a payload byte.
  std::shared_ptr<const Bytes> payload =
      data != nullptr ? std::shared_ptr<const Bytes>(std::move(data))
                      : std::make_shared<const Bytes>();
  metrics_.payload_copy_bytes.inc(copied_bytes);
  // A prefetch the user never caught up with is the speculative kind the
  // eviction policy may sacrifice or refuse; one a demand request joined is
  // demand working set from the start. A refinement is neither: the demand
  // path already consumed the coarse serve it upgrades, so its bytes are
  // working set.
  const bool speculative =
      flight.prefetch_origin && !flight.demand_joined && !flight.refinement;
  if (ok) {
    // Shared-ownership insert: the cache aliases this payload rather than
    // deep-copying every delivered view set. Coarse payloads are cached too,
    // but under their own (id, lod) key — a full-resolution lookup can never
    // be served coarse bytes.
    cache_.put(id, payload, speculative, flight.lod);
    sync_cache_metrics();
    if (flight.lod == 0) {
      // Full-resolution bytes landed: retire every coarse substitute so a
      // post-upgrade access is never served stale coarse bytes, and feed the
      // estimators (coarse fetches are not representative of either the
      // payload size or the full-fetch latency).
      cache_.erase_coarse(id, max_lod());
      if (flight.refinement) metrics_.lod_refined.inc();
      const auto size = static_cast<double>(payload->size());
      payload_bytes_ewma_ =
          payload_bytes_ewma_ <= 0.0 ? size : 0.3 * size + 0.7 * payload_bytes_ewma_;
      if (flight.cls != AccessClass::kAgentHit) {
        latency_.observe(flight.cls == AccessClass::kLanDepot
                             ? policy::FetchClass::kLan
                             : policy::FetchClass::kWan,
                         sim_.now() - flight.started);
      }
    }
  }
  // Ladder feed: one outcome per delivered demand flight. A hard failure is
  // availability, not overload, and does not move the ladder.
  if ((!flight.prefetch_origin || flight.demand_joined) && ok && config_.deadline > 0) {
    observe_deadline(sim_.now() - flight.started > config_.deadline);
  }
  // Refinements ride the prefetch_origin plumbing (null callback, no demand
  // accounting) but were never charged a prefetch slot or bytes — releasing
  // one here would free a slot a real prefetch still holds.
  if (flight.prefetch_origin && !flight.refinement) {
    if (prefetch_inflight_ > 0) --prefetch_inflight_;
    prefetch_bytes_inflight_ -= std::min(prefetch_bytes_inflight_, flight.prefetch_charge);
    if (ok) {
      metrics_.prefetch_bytes.inc(payload->size());
      if (flight.demand_joined) {
        metrics_.prefetch_useful.inc();
        metrics_.prefetch_useful_bytes.inc(payload->size());
      }
    }
  }

  obs_.trace.arg(flight.span, "class", to_string(flight.cls));
  obs_.trace.arg(flight.span, "outcome", ok ? "ok" : "failed");
  obs_.trace.end(flight.span, sim_.now());

  for (const Waiter& waiter : flight.waiters) {
    if (waiter.demand) {
      switch (flight.cls) {
        case AccessClass::kLanDepot:
          metrics_.lan_accesses.inc();
          break;
        case AccessClass::kWan:
          metrics_.wan_accesses.inc();
          break;
        case AccessClass::kAgentHit:
          metrics_.hits.inc();
          break;
      }
      if (ok && flight.lod > 0) metrics_.lod_coarse_serves.inc();
    }
    if (waiter.cb) {
      Delivery delivery{payload, flight.cls, sim_.now() - waiter.arrived};
      delivery.status = ok ? DeliveryStatus::kOk : DeliveryStatus::kFailed;
      delivery.copied_bytes = copied_bytes;
      delivery.lod = flight.lod;
      waiter.cb(delivery);
    }
  }
  // A fresh coarse serve leaves the full-resolution bytes still missing:
  // upgrade in the background so later accesses (and the estimators) see
  // the canonical view set.
  if (ok && flight.lod > 0 && !flight.prefetch_origin) start_refinement(id);
}

void ClientAgent::observe_deadline(bool miss) {
  if (!config_.degrade) return;
  if (miss) {
    hit_streak_ = 0;
    if (++miss_streak_ >= config_.degrade_after_misses &&
        level_ != DegradeLevel::kDemandOnly) {
      miss_streak_ = 0;
      level_ = static_cast<DegradeLevel>(static_cast<int>(level_) + 1);
      metrics_.downgrades.inc();
      const obs::SpanId span = obs_.trace.instant("agent.degrade", sim_.now());
      obs_.trace.arg(span, "level", to_string(level_));
    }
  } else {
    miss_streak_ = 0;
    if (++hit_streak_ >= config_.upgrade_after_hits && level_ != DegradeLevel::kFull) {
      hit_streak_ = 0;
      level_ = static_cast<DegradeLevel>(static_cast<int>(level_) - 1);
      metrics_.upgrades.inc();
      const obs::SpanId span = obs_.trace.instant("agent.upgrade", sim_.now());
      obs_.trace.arg(span, "level", to_string(level_));
    }
  }
}

void ClientAgent::note_pressure(const lightfield::ViewSetId& id) {
  if (config_.hot_report_threshold <= 0) return;
  if (++pressure_[id] < config_.hot_report_threshold) return;
  pressure_[id] = 0;
  metrics_.hot_reports.inc();
  dvs_.report_hot_async(node_, id);
}

void ClientAgent::notify_cursor(const Spherical& dir) {
  cursor_vs_ = lattice_.view_set_of(dir);
  cache_.set_cursor(dir);
  motion_.observe(dir, sim_.now());

  if (config_.prefetch) run_prefetch(dir);
  // A cursor move reorders the staging queue (proximity order re-evaluates
  // lazily in pick_next_stage), and may open staging slots.
  staging_pump();
}

void ClientAgent::run_prefetch(const Spherical& dir) {
  // Bottom ladder rung: demand-only — anticipation is suppressed entirely.
  if (config_.degrade && level_ >= DegradeLevel::kDemandOnly) {
    metrics_.degrade_demand_only.inc();
    return;
  }
  // Free inflight slots bound how many targets the policy may propose.
  std::size_t slots = std::numeric_limits<std::size_t>::max();
  if (config_.prefetch_max_inflight > 0) {
    if (prefetch_inflight_ >= config_.prefetch_max_inflight) return;
    slots = config_.prefetch_max_inflight - prefetch_inflight_;
  }

  policy::PrefetchContext ctx;
  ctx.lattice = &lattice_;
  ctx.motion = &motion_;
  ctx.cursor = dir;
  ctx.cursor_vs = cursor_vs_;
  ctx.quadrant = lattice_.quadrant_of(dir);
  ctx.now = sim_.now();
  ctx.budget = slots;
  ctx.is_resident = [this](const lightfield::ViewSetId& id) {
    return cache_.contains(id) || inflight_.contains(id);
  };
  ctx.fetch_estimate = [this](const lightfield::ViewSetId& id) {
    return latency_.estimate(fetch_class_of(id));
  };

  const auto targets = prefetch_policy_->targets(ctx);
  metrics_.predictions.inc(targets.size());
  // Charge each flight the running estimate of a payload's size; until the
  // first payload lands the estimate is zero and the byte budget cannot
  // meaningfully gate.
  const auto charge = static_cast<std::uint64_t>(payload_bytes_ewma_);
  for (const auto& target : targets) {
    if (config_.prefetch_max_bytes > 0 && charge > 0 &&
        prefetch_bytes_inflight_ + charge > config_.prefetch_max_bytes) {
      break;
    }
    // kLanOnly rung: anticipation may only touch data already on the LAN —
    // the WAN belongs to demand traffic until the overload clears.
    if (config_.degrade && level_ >= DegradeLevel::kLanOnly &&
        fetch_class_of(target) != policy::FetchClass::kLan) {
      metrics_.degrade_lan_only.inc();
      continue;
    }
    metrics_.prefetches.inc();
    ++prefetch_inflight_;
    prefetch_bytes_inflight_ += charge;
    fetch(target, nullptr, /*demand=*/false);
    // fetch() always goes async for a non-resident id, so the flight exists.
    if (auto it = inflight_.find(target);
        it != inflight_.end() && it->second.prefetch_origin) {
      it->second.prefetch_charge = charge;
    }
  }
}

void ClientAgent::sync_cache_metrics() {
  const std::uint64_t pollution = cache_.pollution_evictions();
  if (pollution > synced_pollution_) {
    metrics_.pollution_evictions.inc(pollution - synced_pollution_);
    synced_pollution_ = pollution;
  }
  const std::uint64_t rejected = cache_.rejected_inserts();
  if (rejected > synced_rejected_) {
    metrics_.rejected_prefetch.inc(rejected - synced_rejected_);
    synced_rejected_ = rejected;
  }
}

void ClientAgent::start_staging() {
  if (!config_.staging || staging_active_) return;
  staging_active_ = true;
  unstaged_ = lattice_.all_view_sets();
  start_lease_refresh();
  staging_pump();
}

void ClientAgent::start_lease_refresh() {
  if (!config_.lease_refresh || refresh_timer_.has_value()) return;
  const SimDuration interval = config_.lease_refresh_interval > 0
                                   ? config_.lease_refresh_interval
                                   : config_.staging_lease / 4;
  refresh_timer_ = sim_.after(interval, [this, interval] { lease_refresh_tick(interval); });
}

void ClientAgent::stop_lease_refresh() {
  if (refresh_timer_.has_value()) {
    sim_.cancel(*refresh_timer_);
    refresh_timer_.reset();
  }
}

void ClientAgent::lease_refresh_tick(SimDuration interval) {
  // Snapshot the ids: refresh callbacks may invalidate staged entries while
  // the sweep is still issuing requests.
  std::vector<lightfield::ViewSetId> ids;
  ids.reserve(staged_.size());
  for (const auto& [id, exnode] : staged_) ids.push_back(id);
  for (const auto& id : ids) {
    auto it = staged_.find(id);
    if (it == staged_.end()) continue;
    // Refresh only the replicas the agent owns: the soft staged copies on
    // the LAN depots. The WAN replicas in the same exNode belong to the
    // publisher on far longer leases — extending them to now + staging_lease
    // would *shorten* those leases and rot the database itself.
    exnode::ExNode lan_only = it->second;
    for (const auto& depot : lan_only.depots()) {
      const auto& lan = config_.lan_depots;
      if (std::find(lan.begin(), lan.end(), depot) == lan.end()) {
        lan_only.drop_depot(depot);
      }
    }
    lors_.refresh_async(node_, lan_only, config_.staging_lease,
                        [this, id](const lors::Lors::RefreshResult& result) {
                          metrics_.lease_refreshes.inc(result.extended);
                          if (result.failed > 0) {
                            // Some allocation behind this staged copy is
                            // already gone (expired or revoked): stop
                            // trusting it and stage the view set afresh.
                            invalidate(id);
                          }
                        });
  }
  refresh_timer_ = sim_.after(interval, [this, interval] { lease_refresh_tick(interval); });
}

std::size_t ClientAgent::start_staging(const lbone::Directory& directory,
                                       std::size_t count, std::uint64_t database_bytes,
                                       SimDuration lease) {
  if (staging_active_ || count == 0) return 0;
  lbone::Requirements req;
  req.count = count;
  req.free_bytes = database_bytes / count + 1;
  req.lease = lease;
  const auto candidates = directory.find(node_, req);
  if (candidates.empty()) return 0;
  config_.lan_depots.clear();
  for (const auto& c : candidates) config_.lan_depots.push_back(c.name);
  config_.staging = true;
  config_.staging_lease = lease;
  start_staging();
  return candidates.size();
}

std::optional<std::size_t> ClientAgent::pick_next_stage() const {
  if (unstaged_.empty()) return std::nullopt;
  if (config_.staging_order == ClientAgentConfig::StagingOrder::kFifo) return 0;
  // Proximity: the view set closest to the cursor, dynamically reordered —
  // "prestaging of individual view sets is ordered by distance from the
  // current position of the cursor, and this order is updated dynamically as
  // the cursor moves."
  std::size_t best = 0;
  double best_distance = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < unstaged_.size(); ++i) {
    const double d = lattice_.view_set_distance(unstaged_[i], cursor_vs_);
    if (d < best_distance) {
      best_distance = d;
      best = i;
    }
  }
  return best;
}

void ClientAgent::staging_pump() {
  if (!staging_active_) return;
  if (config_.pause_staging_on_miss && demand_wan_active_ > 0) return;
  // Demand-only rung: staging's third-party copies also yield the WAN.
  if (config_.degrade && level_ >= DegradeLevel::kDemandOnly) return;
  while (staging_inflight_ < config_.staging_concurrency) {
    const auto pick = pick_next_stage();
    if (!pick.has_value()) break;
    const lightfield::ViewSetId id = unstaged_[*pick];
    unstaged_.erase(unstaged_.begin() + static_cast<long>(*pick));
    if (staged_.contains(id)) continue;
    ++staging_inflight_;
    staging_ids_.insert(id);
    stage_one(id);
  }
}

void ClientAgent::stage_one(const lightfield::ViewSetId& id) {
  // Staging is a root span of its own: it is background work, not part of
  // any client request's lifeline.
  const obs::SpanId span = obs_.trace.begin("agent.stage", sim_.now());
  obs_.trace.arg(span, "view_set", id.key());

  // A co-sited agent already staged this view set? Adopt the shared copy —
  // no WAN traffic, no second replica. Synchronous, so only the inflight
  // slot is released; stage_one's caller (staging_pump) keeps looping.
  if (config_.site_cache != nullptr) {
    if (auto site = config_.site_cache->lookup(id); site.has_value()) {
      metrics_.site_adopted.inc();
      staged_[id] = *site;
      exnode_cache_[id] = *site;
      --staging_inflight_;
      staging_ids_.erase(id);
      obs_.trace.arg(span, "outcome", "site-adopted");
      obs_.trace.end(span, sim_.now());
      return;
    }
  }

  // Resolve the exNode first (cheap control traffic), then issue third-party
  // copies toward a LAN depot. The data path is depot-to-depot.
  auto do_stage = [this, id, span](const exnode::ExNode& exnode) {
    // Single-flight: N co-sited agents racing to (re)stage the same view
    // set collapse to one WAN fetch. Followers park a callback and adopt
    // whatever the leader's copy turns out to be.
    if (config_.site_cache != nullptr) {
      const bool leader = config_.site_cache->begin_restage(
          id, 0, [this, id, span](bool ok, const exnode::ExNode& staged) {
            --staging_inflight_;
            staging_ids_.erase(id);
            if (ok) {
              metrics_.staged.inc();
              staged_[id] = staged;
              exnode_cache_[id] = staged;
            } else {
              metrics_.staging_failures.inc();
            }
            obs_.trace.arg(span, "outcome", ok ? "coalesced" : "coalesced-failed");
            obs_.trace.end(span, sim_.now());
            staging_pump();
          });
      if (!leader) {
        metrics_.restage_coalesced.inc();
        return;
      }
    }
    lors::AugmentOptions options;
    options.target_depot = config_.lan_depots[staging_rr_++ % config_.lan_depots.size()];
    options.preferred = true;  // downloads should find the LAN replica first
    options.lease = config_.staging_lease;
    options.alloc_type = ibp::AllocType::kSoft;  // revocable: polite sharing
    options.net = config_.staging_net;
    options.parent_span = span;
    lors_.augment_async(node_, exnode, options,
                        [this, id, span](const lors::AugmentResult& result) {
                          --staging_inflight_;
                          staging_ids_.erase(id);
                          const bool ok = result.status == lors::LorsStatus::kOk;
                          if (ok) {
                            metrics_.staged.inc();
                            metrics_.stage_wan_bytes.inc(result.exnode.length());
                            staged_[id] = result.exnode;
                            exnode_cache_[id] = result.exnode;
                            if (config_.site_cache != nullptr) {
                              config_.site_cache->publish(
                                  id, 0, result.exnode, result.exnode.length(),
                                  sim_.now() + config_.staging_lease);
                            }
                          } else {
                            metrics_.staging_failures.inc();
                            LON_LOG(kDebug, "client-agent")
                                << "staging of " << id.key() << " failed: "
                                << lors::to_string(result.status);
                          }
                          obs_.trace.arg(span, "outcome",
                                         lors::to_string(result.status));
                          obs_.trace.end(span, sim_.now());
                          if (config_.site_cache != nullptr) {
                            config_.site_cache->finish_restage(id, 0, ok,
                                                               result.exnode);
                          }
                          staging_pump();
                        });
  };

  if (auto cached = exnode_cache_.find(id); cached != exnode_cache_.end()) {
    do_stage(cached->second);
    return;
  }
  const obs::Tracer::Ambient ambient(obs_.trace, span);
  dvs_.query_async(node_, id, /*generate_if_missing=*/false,
                   [this, id, span, do_stage](const DvsServer::QueryResult& result) {
                     if (!result.found) {
                       metrics_.staging_failures.inc();
                       --staging_inflight_;
                       staging_ids_.erase(id);
                       obs_.trace.arg(span, "outcome", "unresolved");
                       obs_.trace.end(span, sim_.now());
                       staging_pump();
                       return;
                     }
                     // The DVS round trip took virtual time: a co-sited
                     // leader may have finished (and published) this very
                     // view set meanwhile. Re-check the index so the late
                     // arrival adopts instead of leading a redundant
                     // second restage.
                     if (config_.site_cache != nullptr) {
                       if (auto site = config_.site_cache->lookup(id);
                           site.has_value()) {
                         metrics_.site_adopted.inc();
                         staged_[id] = *site;
                         exnode_cache_[id] = *site;
                         --staging_inflight_;
                         staging_ids_.erase(id);
                         obs_.trace.arg(span, "outcome", "site-adopted");
                         obs_.trace.end(span, sim_.now());
                         staging_pump();
                         return;
                       }
                     }
                     exnode_cache_[id] = result.exnode;
                     do_stage(result.exnode);
                   });
}

std::uint64_t ClientAgent::counter(const std::string& name) const {
  const obs::Counter* c = obs_.metrics.find_counter(name, scope_.labels());
  if (c == nullptr) {
    throw std::invalid_argument("ClientAgent::counter: no counter named " + name);
  }
  return c->value();
}

}  // namespace lon::streaming
