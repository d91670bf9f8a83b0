#include "lbone/lbone.hpp"

#include <algorithm>
#include <stdexcept>

namespace lon::lbone {

void Directory::register_depot(const std::string& name) {
  if (fabric_.find_depot(name) == nullptr) {
    throw std::invalid_argument("Directory: depot not hosted in fabric: " + name);
  }
  if (is_registered(name)) return;
  records_.push_back(name);
}

bool Directory::is_registered(const std::string& name) const {
  return std::find(records_.begin(), records_.end(), name) != records_.end();
}

std::vector<Candidate> Directory::find(sim::NodeId requester, const Requirements& req) const {
  metrics_.queries.inc();
  std::vector<Candidate> out;
  for (const std::string& name : records_) {
    const ibp::Depot* depot = fabric_.find_depot(name);
    if (depot == nullptr) continue;
    if (fabric_.is_offline(name)) continue;
    if (depot->bytes_free() < req.free_bytes) continue;
    if (depot->config().max_lease < req.lease) continue;
    const sim::NodeId node = fabric_.depot_node(name);
    if (!net_.reachable(requester, node)) continue;
    Candidate c;
    c.name = name;
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

}  // namespace lon::lbone
