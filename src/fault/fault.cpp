#include "fault/fault.hpp"

#include <algorithm>
#include <stdexcept>

namespace lon::fault {

namespace {

/// Deadlines installed when a plan needs them and the fabric has none.
/// Generous relative to any simulated WAN round trip, so they only ever
/// fire for genuinely lost requests.
constexpr SimDuration kDefaultControlTimeout = 2 * kSecond;
constexpr SimDuration kDefaultDataTimeout = 20 * kSecond;

}  // namespace

const FaultStats& FaultInjector::stats() const {
  stats_view_.crashes = metrics_.crashes.value();
  stats_view_.restarts = metrics_.restarts.value();
  stats_view_.links_cut = metrics_.links_cut.value();
  stats_view_.links_restored = metrics_.links_restored.value();
  stats_view_.disks_degraded = metrics_.disks_degraded.value();
  stats_view_.requests_dropped = metrics_.requests_dropped.value();
  stats_view_.bits_flipped = metrics_.bits_flipped.value();
  return stats_view_;
}

void FaultInjector::arm(const FaultPlan& plan) {
  rng_ = Rng(plan.seed);
  drops_ = plan.drops;
  corruptions_ = plan.corruptions;

  if (!plan.drops.empty() || !plan.partitions.empty()) {
    ibp::FabricTimeouts timeouts = fabric_.timeouts();
    if (timeouts.control <= 0) timeouts.control = kDefaultControlTimeout;
    if (timeouts.data <= 0) timeouts.data = kDefaultDataTimeout;
    fabric_.set_timeouts(timeouts);
  }

  for (const DepotCrash& crash : plan.crashes) {
    if (fabric_.find_depot(crash.depot) == nullptr) {
      throw std::invalid_argument("FaultInjector: unknown depot " + crash.depot);
    }
    if (crash.at < sim_.now()) {
      throw std::invalid_argument("FaultInjector: crash scheduled in the past");
    }
    sim_.at(crash.at, [this, depot = crash.depot] {
      fabric_.set_offline(depot, true);
      metrics_.crashes.inc();
      const obs::SpanId ev = obs_.trace.instant("fault.crash", sim_.now());
      obs_.trace.arg(ev, "depot", depot);
    });
    if (crash.restart_after > 0) {
      sim_.at(crash.at + crash.restart_after, [this, depot = crash.depot] {
        fabric_.set_offline(depot, false);
        metrics_.restarts.inc();
        const obs::SpanId ev = obs_.trace.instant("fault.restart", sim_.now());
        obs_.trace.arg(ev, "depot", depot);
      });
    }
  }

  for (const LinkDown& cut : plan.partitions) {
    const auto link = net_.link_between(cut.a, cut.b);
    if (!link.has_value()) {
      throw std::invalid_argument("FaultInjector: no direct link between nodes");
    }
    if (cut.at < sim_.now()) {
      throw std::invalid_argument("FaultInjector: partition scheduled in the past");
    }
    sim_.at(cut.at, [this, id = *link] {
      net_.set_link_up(id, false);
      metrics_.links_cut.inc();
      obs_.trace.instant("fault.link_cut", sim_.now());
    });
    if (cut.up_after > 0) {
      sim_.at(cut.at + cut.up_after, [this, id = *link] {
        net_.set_link_up(id, true);
        metrics_.links_restored.inc();
        obs_.trace.instant("fault.link_restored", sim_.now());
      });
    }
  }

  for (const DiskDegrade& deg : plan.degradations) {
    ibp::Depot* depot = fabric_.find_depot(deg.depot);
    if (depot == nullptr) {
      throw std::invalid_argument("FaultInjector: unknown depot " + deg.depot);
    }
    if (deg.at < sim_.now()) {
      throw std::invalid_argument("FaultInjector: degradation scheduled in the past");
    }
    if (deg.factor <= 0.0) {
      throw std::invalid_argument("FaultInjector: non-positive disk factor");
    }
    sim_.at(deg.at, [this, depot, deg] {
      // Windows may overlap without nesting, so a closing window cannot
      // restore the rate it saw when it opened: the rate is recomputed from
      // the depot's pre-window base and the factors still open.
      SlowDisk& disk = slow_disks_[deg.depot];
      if (disk.factors.empty()) disk.base_rate = depot->config().disk_bytes_per_sec;
      disk.factors.push_back(deg.factor);
      apply_slow_disk(*depot, disk);
      metrics_.disks_degraded.inc();
      const obs::SpanId ev = obs_.trace.instant("fault.disk_degraded", sim_.now());
      obs_.trace.arg(ev, "depot", deg.depot);
      if (deg.duration > 0) {
        sim_.after(deg.duration, [this, depot, deg] {
          SlowDisk& open = slow_disks_[deg.depot];
          open.factors.erase(std::find(open.factors.begin(), open.factors.end(), deg.factor));
          apply_slow_disk(*depot, open);
        });
      }
    });
  }

  if (!drops_.empty()) {
    fabric_.set_drop_hook(
        [this](const std::string& depot) { return in_drop_window(depot); });
  }
  if (!corruptions_.empty()) {
    fabric_.set_corrupt_hook(
        [this](const std::string& depot, Bytes& data) { maybe_corrupt(depot, data); });
  }
}

void FaultInjector::apply_slow_disk(ibp::Depot& depot, const SlowDisk& disk) {
  double rate = disk.base_rate;
  for (const double factor : disk.factors) rate *= factor;
  depot.set_disk_rate(rate);
}

bool FaultInjector::in_drop_window(const std::string& depot) {
  const SimTime now = sim_.now();
  for (const DropWindow& w : drops_) {
    if (now < w.at || now >= w.at + w.duration) continue;
    if (!w.depot.empty() && w.depot != depot) continue;
    if (rng_.uniform() < w.prob) {
      metrics_.requests_dropped.inc();
      const obs::SpanId ev = obs_.trace.instant("fault.drop", sim_.now());
      obs_.trace.arg(ev, "depot", depot);
      return true;
    }
  }
  return false;
}

void FaultInjector::maybe_corrupt(const std::string& depot, Bytes& data) {
  if (data.empty()) return;
  const SimTime now = sim_.now();
  for (const CorruptWindow& w : corruptions_) {
    if (now < w.at || now >= w.at + w.duration) continue;
    if (!w.depot.empty() && w.depot != depot) continue;
    if (rng_.uniform() < w.prob) {
      const std::uint64_t bit = rng_.below(data.size() * 8);
      data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      metrics_.bits_flipped.inc();
      const obs::SpanId ev = obs_.trace.instant("fault.bitflip", sim_.now());
      obs_.trace.arg(ev, "depot", depot);
      return;  // one flip per load is plenty to prove the point
    }
  }
}

}  // namespace lon::fault
