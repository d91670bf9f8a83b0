#include "lbone/lbone.hpp"

#include <algorithm>
#include <stdexcept>

namespace lon::lbone {

void Directory::register_depot(const std::string& name) {
  if (fabric_.find_depot(name) == nullptr) {
    throw std::invalid_argument("Directory: depot not hosted in fabric: " + name);
  }
  if (is_registered(name)) return;
  records_.push_back(Record{name, true});
}

void Directory::set_alive(const std::string& name, bool alive) {
  for (auto& record : records_) {
    if (record.name == name) {
      record.alive = alive;
      return;
    }
  }
  throw std::out_of_range("Directory: unknown depot " + name);
}

bool Directory::is_registered(const std::string& name) const {
  return std::any_of(records_.begin(), records_.end(),
                     [&](const Record& r) { return r.name == name; });
}

std::vector<Candidate> Directory::find(sim::NodeId requester, const Requirements& req) const {
  metrics_.queries.inc();
  std::vector<Candidate> out;
  for (const auto& record : records_) {
    if (!record.alive) continue;
    const ibp::Depot* depot = fabric_.find_depot(record.name);
    if (depot == nullptr) continue;
    // The directory's liveness flag lags reality (it only updates on
    // set_alive or a probe sweep); the fabric's offline flag is the ground
    // truth, so cross-check it rather than returning a depot every request
    // to which will fail.
    if (fabric_.is_offline(record.name)) continue;
    if (depot->bytes_free() < req.free_bytes) continue;
    if (depot->config().max_lease < req.lease) continue;
    const sim::NodeId node = fabric_.depot_node(record.name);
    if (!net_.reachable(requester, node)) continue;
    Candidate c;
    c.name = record.name;
    c.node = node;
    c.latency = net_.path_latency(requester, node);
    c.free_bytes = depot->bytes_free();
    out.push_back(std::move(c));
  }
  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    return a.latency != b.latency ? a.latency < b.latency : a.name < b.name;
  });
  if (out.size() > req.count) out.resize(req.count);
  return out;
}

void Directory::start_health_probes(SimDuration interval) {
  if (interval <= 0) throw std::invalid_argument("Directory: non-positive probe interval");
  stop_health_probes();
  probe_interval_ = interval;
  probe_timer_ = net_.simulator().after(interval, [this] { probe_sweep(); });
}

void Directory::stop_health_probes() {
  if (probe_timer_.has_value()) {
    net_.simulator().cancel(*probe_timer_);
    probe_timer_.reset();
  }
  probe_interval_ = 0;
}

void Directory::probe_sweep() {
  metrics_.sweeps.inc();
  for (auto& record : records_) {
    const bool up = !fabric_.is_offline(record.name);
    if (record.alive && !up) metrics_.marked_dead.inc();
    if (!record.alive && up) metrics_.marked_alive.inc();
    record.alive = up;
  }
  probe_timer_ = net_.simulator().after(probe_interval_, [this] { probe_sweep(); });
}

}  // namespace lon::lbone
