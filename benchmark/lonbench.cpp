// lonbench: what a viewer of the browsing system sees, and what it costs the
// host, on four workloads.
//
// lonbench makes the same public session::System calls that
// session::run_scenario makes (constructor, publish, agents and clients,
// staging plus fault and repair arming, the sim.step() loop) and times each
// phase from outside with steady_clock. Each viewer's view is timed on the
// virtual clock from its set_view call to the on_ready callback, so the view
// latency includes shed back-off and retries; a failed view counts as an SLO
// miss and as slower than every delivered one.
//
//   lonbench --workload W [--seed N] [--seconds S] [--trace] [--out DIR]
//
// One run pools K realizations of the workload (see realize()) because a
// crowd's percentiles depend on timing luck; host times are medians over
// every rep. Without --trace it prints the end-to-end metrics; with
// --trace, the per-layer ones (span self times, layer counters, codec and
// renderer probes, tracing overhead) and, with --out, the run's trace and
// metric dumps. The last line of stdout is one JSON object. Built-in checks
// (repeat identity, equality with run_scenario, one AccessRecord per fetch
// step, each workload's mechanism actually firing) make the exit code 1 when
// any fails.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <numbers>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "lightfield/renderer.hpp"
#include "session/scenario.hpp"
#include "session/system.hpp"

namespace {

using namespace lon;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr SimDuration kSlo = kSecond;     // the paper's interactivity window
constexpr std::size_t kProbeSets = 6;
constexpr std::size_t kOverheadPairs = 8;  // traced/untraced rep pairs, --trace only
/// Frames rendered per rep, at least one per step: enough that the median
/// frame time of a run does not hang on a handful of frames.
constexpr std::size_t kFramesPerRep = 48;

/// Layer counters the per-layer metrics and the workload checks read.
const char* const kLayerCounters[] = {
    "agent.requests",         "agent.hits",          "agent.demand_shed",
    "agent.lod_coarse_serves", "agent.stage_wan_bytes", "agent.site_adopted",
    "agent.restage_coalesced", "agent.prefetches",    "prefetch.useful",
    "prefetch.bytes",         "lors.retries",        "lors.failovers",
    "lors.corruption_detected", "ibp.timeouts",      "codec.bytes_out",
};

/// Spans whose self time the per-layer metrics report, root first.
const char* const kSpans[] = {
    "client.request", "agent.fetch",       "dvs.query",   "lors.download",
    "ibp.load",       "client.decompress", "agent.stage",
};

// --- What one rep measures ---------------------------------------------------

struct Rep {
  std::size_t realization = 0;

  // Host seconds.
  double build_s = 0.0;    ///< System constructor
  double publish_s = 0.0;  ///< publish
  double agents_s = 0.0;   ///< make_agent + make_server_agent + make_clients
  double browse_s = 0.0;   ///< start_staging .. last step, minus frame renders
  std::vector<double> frame_ms;

  // Virtual results: identical whenever the realization repeats.
  std::vector<double> view_s;       ///< per fetch step; +inf when it failed
  std::vector<double> shed_wait_s;  ///< per delivered fetch step
  std::size_t failed = 0;
  std::size_t slo_miss = 0;
  std::uint64_t wan_bytes = 0;  ///< WAN trunk, both directions, browse only
  std::uint64_t events = 0, reallocs = 0, flows_touched = 0;  ///< browse deltas
  std::uint64_t events_total = 0, reallocs_total = 0, flows_touched_total = 0;
  std::map<std::string, std::uint64_t> totals;  ///< kLayerCounters
  std::map<std::string, std::vector<double>> span_self_ms;  ///< kSpans, traced reps
  std::uint64_t span_count = 0;
  std::vector<std::vector<streaming::AccessRecord>> accesses;
  fault::FaultStats faults;
  std::string counters;  ///< every registry counter, JSONL
  std::uint64_t digest = 0;

  bool records_match_steps = true;
  bool asks_on_schedule = true;
  bool frames_nonblank = false;

  std::shared_ptr<obs::Context> obs;

  [[nodiscard]] double setup_s() const { return build_s + publish_s + agents_s; }
};

// --- Workloads ---------------------------------------------------------------

/// The paper's section 4.3 case 3 (WAN data, aggressive LAN prestaging), one
/// viewer on the standard 58-access walk. Visited view sets carry real
/// content and the client decodes every delivery; decode time is modeled so
/// the virtual results do not depend on the host. Views are 100^2 rather than
/// figure 9's 200^2: publishing the walk's real sets at 200^2 takes about
/// 12 s per rep, too long to repeat inside one run.
session::Scenario paper_case3() {
  session::Scenario s;
  s.name = "paper_case3";
  s.base = bench::paper_config(100, session::Case::kWanWithLanDepot);
  s.base.client.timing = streaming::ClientConfig::Timing::kModeled;
  const lightfield::SphericalLattice lattice(s.base.lattice);
  session::ScenarioClient sc;
  sc.script = session::CursorScript::standard(lattice, s.base.dwell, s.base.accesses,
                                              s.base.seed);
  s.clients.push_back(std::move(sc));
  return s;
}

using Checks = std::vector<std::pair<std::string, bool>>;

struct Workload {
  const char* name;
  session::Scenario (*make)();
  std::size_t realizations;  ///< pooled into one run's virtual metrics
  /// The mechanism the workload was chosen for must fire on every rep.
  Checks (*checks)(const Rep&);
};

const Workload kWorkloads[] = {
    {"paper_case3", paper_case3, 3,
     [](const Rep& r) -> Checks {
       return {{"codec_bytes_out", r.totals.at("codec.bytes_out") > 0},
               {"frames_nonblank", r.frames_nonblank}};
     }},
    {"flash_crowd_400", [] { return session::flash_crowd(400, /*admission=*/true); }, 12,
     [](const Rep& r) -> Checks {
       return {{"sheds", r.totals.at("agent.demand_shed") > 0}};
     }},
    {"co_sited_200", [] { return session::co_sited_crowd(/*site=*/true, 200); }, 4,
     [](const Rep& r) -> Checks {
       return {{"restage_coalesced", r.totals.at("agent.restage_coalesced") > 0},
               {"site_adopted", r.totals.at("agent.site_adopted") > 0}};
     }},
    {"faults_64", [] { return session::teleport_under_faults(64); }, 64,
     [](const Rep& r) -> Checks {
       return {{"crash_fired", r.faults.crashes > 0},
               {"drops_fired", r.faults.requests_dropped > 0},
               {"corruption_detected", r.totals.at("lors.corruption_detected") > 0}};
     }},
};

/// Realization j of the run with seed N. Every viewer's walk is turned about
/// the polar axis by N + j*cols/K view-set columns: phi wraps, so a walk
/// keeps its shape and fetch-step count while the view sets it touches
/// (content, staging order, DVS shard, depot stripes) change. The offsets of
/// one run's K realizations are evenly spaced, so each run covers the whole
/// circle rather than one arc of it; the workloads are not symmetric under
/// the turn. Each realization also draws its own WAN jitter stream
/// (net_seed N*K + j). N = 0, j = 0 is the canned scenario.
session::Scenario realize(const Workload& w, std::uint64_t seed, std::size_t j) {
  session::Scenario s = w.make();
  const std::uint64_t sub = seed * w.realizations + j;
  if (sub == 0) return s;
  s.base.net_seed = sub;
  const lightfield::SphericalLattice lattice(s.base.lattice);
  const std::size_t grid_cols = lattice.view_set_cols();
  const auto cols = static_cast<int>(grid_cols);
  const auto shift = static_cast<int>((seed + j * grid_cols / w.realizations) % grid_cols);
  const double turn = shift * 2.0 * std::numbers::pi / cols;
  for (session::ScenarioClient& sc : s.clients) {
    std::vector<session::CursorStep> steps = sc.script.steps();
    for (session::CursorStep& step : steps) {
      const lightfield::ViewSetId before = lattice.view_set_of(step.direction);
      step.direction.phi = std::fmod(step.direction.phi + turn, 2.0 * std::numbers::pi);
      const lightfield::ViewSetId after = lattice.view_set_of(step.direction);
      if (after.row != before.row || after.col != (before.col + shift) % cols) {
        throw std::logic_error("realize: the turn left the view-set grid");
      }
    }
    sc.script = session::CursorScript(std::move(steps));
  }
  return s;
}

// --- Driving one rep ---------------------------------------------------------

/// Counters that run_scenario adds to the registry after its loop.
bool added_by_run_scenario(const std::string& line) {
  for (const char* name : {"sim.events_executed", "sim.events_scheduled",
                           "sim.events_cancelled", "net.reallocs", "net.realloc_requests",
                           "net.realloc_flows_touched"}) {
    if (line.find("\"name\":\"" + std::string(name) + "\"") != std::string::npos) {
      return true;
    }
  }
  return false;
}

std::string counter_lines(const obs::Registry& registry) {
  std::istringstream in(registry.jsonl());
  std::string line, out;
  while (std::getline(in, line)) {
    const bool counter = line.find("\"type\":\"counter\"") != std::string::npos;
    if (counter && !added_by_run_scenario(line)) {
      out += line + '\n';
    }
  }
  return out;
}

void write_record(std::ostream& os, const streaming::AccessRecord& r) {
  os << r.id.key() << ' ' << static_cast<int>(r.cls) << ' ' << r.requested << ' '
     << r.delivered << ' ' << r.comm_latency << ' ' << r.decompress_time << ' '
     << r.compressed_bytes << ' ' << r.copied_bytes << ' ' << r.pipelined << ' ' << r.lod
     << '\n';
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Self time of every closed interval span: its duration minus the union of
/// its children's intervals clipped to it. Summing child durations instead
/// would give lors.download no self time, because its parallel ibp.load
/// stripes overlap.
std::map<std::string, std::vector<double>> span_self_ms(const obs::Tracer& trace) {
  const auto& spans = trace.spans();
  std::vector<std::vector<std::pair<SimTime, SimTime>>> children(spans.size());
  for (const obs::Span& s : spans) {
    if (s.instant || s.open || s.parent == 0 || s.parent > spans.size()) continue;
    children[s.parent - 1].push_back({s.begin, s.end});
  }
  std::map<std::string, std::vector<double>> out;
  for (const obs::Span& s : spans) {
    if (s.instant || s.open) continue;
    auto& kids = children[s.id - 1];
    std::sort(kids.begin(), kids.end());
    SimDuration covered = 0;
    SimTime reach = s.begin;
    for (auto [b, e] : kids) {
      b = std::max(b, reach);
      e = std::min(e, s.end);
      if (e > b) {
        covered += e - b;
        reach = e;
      }
    }
    out[s.name].push_back(static_cast<double>(s.end - s.begin - covered) / 1e6);
  }
  return out;
}

Rep run_rep(const session::Scenario& scenario, std::size_t realization, bool tracing) {
  if (scenario.warm_site_cache) {
    throw std::invalid_argument("lonbench: warm-start scenarios are not driven");
  }
  Rep rep;
  rep.realization = realization;
  const session::ExperimentConfig& config = scenario.base;
  const std::size_t n = scenario.clients.size();

  auto t = Clock::now();
  session::System sys(config, static_cast<int>(n));
  sys.obs->trace.set_enabled(tracing);
  rep.build_s = seconds_since(t);

  t = Clock::now();
  std::vector<const session::CursorScript*> scripts;
  for (const session::ScenarioClient& sc : scenario.clients) scripts.push_back(&sc.script);
  sys.publish(config, scripts);
  rep.publish_s = seconds_since(t);

  t = Clock::now();
  sys.make_agent(config);
  sys.make_server_agent(config);
  sys.make_clients(config);
  rep.agents_s = seconds_since(t);

  t = Clock::now();
  double frame_s = 0.0;
  sim::Simulator& sim = sys.sim;
  const SimTime script_start = sim.now();
  sys.start_staging();
  fault::FaultInjector injector(sim, sys.net, sys.fabric, sys.obs.get());
  sys.arm_faults(injector, config.faults, script_start);
  sys.start_repair(config);

  const sim::LinkId trunk = *sys.net.link_between(sys.lan_switch, sys.wan_router);
  const auto trunk_bytes = [&] {
    return sys.net.link_stats(trunk, true).bytes_carried +
           sys.net.link_stats(trunk, false).bytes_carried;
  };
  const std::uint64_t wan0 = trunk_bytes();
  const std::uint64_t events0 = sim.executed();
  const std::uint64_t reallocs0 = sys.net.reallocs();
  const std::uint64_t touched0 = sys.net.realloc_flows_touched();

  // Closed loop per viewer (next step after the view plus a dwell), open
  // arrivals across viewers (each first ask is at its fixed start offset).
  struct Viewer {
    std::size_t step = 0;
    SimTime asked = 0;
    bool in_set_view = false;
    std::vector<SimDuration> latency;  ///< per fetch step; -1 = failed
  };
  std::vector<Viewer> viewers(n);
  const std::size_t frames_per_step =
      std::max<std::size_t>(1, kFramesPerRep / scenario.clients.front().script.size());
  std::size_t remaining = n;
  std::vector<std::function<void()>> advance(n);
  for (std::size_t i = 0; i < n; ++i) {
    advance[i] = [&, i] {
      Viewer& v = viewers[i];
      const session::CursorScript& script = scenario.clients[i].script;
      if (v.step >= script.size()) {
        --remaining;
        return;
      }
      if (v.step == 0 && sim.now() != script_start + scenario.clients[i].start) {
        rep.asks_on_schedule = false;
      }
      const session::CursorStep step = script.steps()[v.step++];
      v.asked = sim.now();
      v.in_set_view = true;
      sys.clients[i]->set_view(step.direction, [&, i, dwell = step.dwell](bool ok) {
        Viewer& w = viewers[i];
        // A callback inside set_view means the view set was resident: no fetch.
        if (!w.in_set_view) w.latency.push_back(ok ? sim.now() - w.asked : -1);
        // Viewer 0 watches the view it reached for the rest of the step.
        for (std::size_t f = 0; i == 0 && f < frames_per_step; ++f) {
          const auto f0 = Clock::now();
          const render::ImageRGB8 frame = sys.clients[i]->render_frame();
          const double s = seconds_since(f0);
          frame_s += s;
          rep.frame_ms.push_back(s * 1e3);
          rep.frames_nonblank = rep.frames_nonblank ||
                                std::any_of(frame.bytes().begin(), frame.bytes().end(),
                                            [](std::uint8_t b) { return b != 0; });
        }
        sim.after(dwell, advance[i]);
      });
      v.in_set_view = false;
    };
    sim.after(scenario.clients[i].start, advance[i]);
  }
  while (remaining > 0 && sim.step()) {
  }
  if (scenario.drain) {
    while (sim.step()) {
    }
  }
  rep.browse_s = seconds_since(t) - frame_s;

  rep.wan_bytes = trunk_bytes() - wan0;
  rep.events = sim.executed() - events0;
  rep.reallocs = sys.net.reallocs() - reallocs0;
  rep.flows_touched = sys.net.realloc_flows_touched() - touched0;
  rep.events_total = sim.executed();
  rep.reallocs_total = sys.net.reallocs();
  rep.flows_touched_total = sys.net.realloc_flows_touched();
  rep.faults = injector.stats();
  rep.counters = counter_lines(sys.obs->metrics);
  for (const char* name : kLayerCounters) {
    rep.totals[name] = sys.obs->metrics.counter_total(name);
  }
  if (tracing) {
    rep.span_count = sys.obs->trace.spans().size();
    auto self = span_self_ms(sys.obs->trace);
    for (const char* name : kSpans) rep.span_self_ms[name] = std::move(self[name]);
  }

  std::ostringstream virt;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& records = sys.clients[i]->accesses();
    rep.accesses.push_back(records);
    const auto& latency = viewers[i].latency;
    if (records.size() != latency.size() ||
        viewers[i].step != scenario.clients[i].script.size()) {
      rep.records_match_steps = false;
    }
    for (std::size_t k = 0; k < latency.size(); ++k) {
      const bool ok = latency[k] >= 0;
      rep.view_s.push_back(ok ? static_cast<double>(latency[k]) / 1e9
                              : std::numeric_limits<double>::infinity());
      if (!ok) ++rep.failed;
      if (!ok || latency[k] > kSlo) ++rep.slo_miss;
      if (ok && k < records.size()) {
        const SimDuration wait = latency[k] - records[k].total();
        rep.shed_wait_s.push_back(static_cast<double>(wait) / 1e9);
      }
      virt << i << ' ' << latency[k] << '\n';
    }
    for (const auto& r : records) write_record(virt, r);
  }
  virt << rep.counters << rep.wan_bytes << ' ' << rep.events_total << ' '
       << rep.reallocs_total << ' ' << rep.flows_touched_total << '\n';
  rep.digest = fnv1a(virt.str());
  rep.obs = sys.obs;
  return rep;
}

bool same_record(const streaming::AccessRecord& a, const streaming::AccessRecord& b) {
  return a.id == b.id && a.cls == b.cls && a.requested == b.requested &&
         a.delivered == b.delivered && a.comm_latency == b.comm_latency &&
         a.decompress_time == b.decompress_time &&
         a.compressed_bytes == b.compressed_bytes && a.copied_bytes == b.copied_bytes &&
         a.pipelined == b.pipelined && a.lod == b.lod;
}

/// lonbench's loop must be the library's loop: same AccessRecords, same
/// counters, same simulator cost, same faults.
bool matches_run_scenario(const Rep& rep, const session::ScenarioResult& ref,
                          const std::string& ref_counters) {
  if (ref.clients.size() != rep.accesses.size()) return false;
  for (std::size_t i = 0; i < rep.accesses.size(); ++i) {
    const auto& a = rep.accesses[i];
    const auto& b = ref.clients[i].accesses;
    if (a.size() != b.size() || !std::equal(a.begin(), a.end(), b.begin(), same_record)) {
      return false;
    }
  }
  const fault::FaultStats& f = rep.faults;
  const fault::FaultStats& g = ref.fault_stats;
  return ref_counters == rep.counters && ref.sim_events == rep.events_total &&
         ref.net_reallocs == rep.reallocs_total &&
         ref.net_realloc_flows_touched == rep.flows_touched_total &&
         f.crashes == g.crashes && f.restarts == g.restarts && f.links_cut == g.links_cut &&
         f.links_restored == g.links_restored && f.disks_degraded == g.disks_degraded &&
         f.requests_dropped == g.requests_dropped && f.bits_flipped == g.bits_flipped;
}

// --- Statistics --------------------------------------------------------------

/// Exact nearest-rank order statistic: the smallest sample with at least
/// `q` of the samples at or below it.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

template <typename F>
double median_of(const std::vector<Rep>& reps, F field) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(field(r));
  return median(std::move(v));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The first rep of each realization, pooled (frames come from every rep).
struct Pool {
  std::vector<double> view_s, shed_wait_s, frame_ms;
  std::map<std::string, std::vector<double>> span_self_ms;
  std::map<std::string, double> totals;
  double steps = 0, failed = 0, slo_miss = 0, wan_bytes = 0;
  double events = 0, reallocs = 0, flows_touched = 0, spans = 0, browse_s = 0;
  double realizations = 0;

  Pool(const std::vector<Rep>& reps, std::size_t k) {
    realizations = static_cast<double>(k);
    for (std::size_t i = 0; i < k; ++i) {
      const Rep& r = reps[i];
      view_s.insert(view_s.end(), r.view_s.begin(), r.view_s.end());
      shed_wait_s.insert(shed_wait_s.end(), r.shed_wait_s.begin(), r.shed_wait_s.end());
      for (const auto& [name, v] : r.span_self_ms) {
        span_self_ms[name].insert(span_self_ms[name].end(), v.begin(), v.end());
      }
      for (const auto& [name, v] : r.totals) totals[name] += static_cast<double>(v);
      steps += static_cast<double>(r.view_s.size());
      failed += static_cast<double>(r.failed);
      slo_miss += static_cast<double>(r.slo_miss);
      wan_bytes += static_cast<double>(r.wan_bytes);
      events += static_cast<double>(r.events);
      reallocs += static_cast<double>(r.reallocs);
      flows_touched += static_cast<double>(r.flows_touched);
      spans += static_cast<double>(r.span_count);
      browse_s += r.browse_s;
    }
    for (const Rep& r : reps) {
      frame_ms.insert(frame_ms.end(), r.frame_ms.begin(), r.frame_ms.end());
    }
  }
  /// Per-realization mean of a layer counter.
  [[nodiscard]] double mean(const char* name) const {
    return totals.at(name) / realizations;
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> e2e_metrics(const std::vector<Rep>& reps, const Pool& pool) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {
      {"view_p50_s", quantile(pool.view_s, 0.50), "sim_s"},
      {"view_p90_s", quantile(pool.view_s, 0.90), "sim_s"},
      {"view_p99_s", quantile(pool.view_s, 0.99), "sim_s"},
      {"slo_met_frac", 1.0 - ratio(pool.slo_miss, pool.steps), "frac"},
      {"wan_mb_per_view", ratio(pool.wan_bytes / 1e6, pool.steps), "MB"},
      {"frame_ms_p50", median(pool.frame_ms), "ms"},
      {"setup_s", median_of(reps, [](const Rep& r) { return r.setup_s(); }), "s"},
      {"browse_s", median_of(reps, [](const Rep& r) { return r.browse_s; }), "s"},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
  };
}

struct ProbeTimes {
  std::vector<double> synth_ms, encode_ms, decode_ms, render_ms, compression;
};

/// Times the codec and renderer on the first kProbeSets view sets viewer 0
/// visits, one call at a time.
ProbeTimes run_probes(const session::Scenario& scenario) {
  const session::ExperimentConfig& config = scenario.base;
  lightfield::ProceduralSource source(config.lattice);
  const lightfield::SphericalLattice& lattice = source.lattice();
  std::vector<lightfield::ViewSetId> ids;
  for (const session::CursorStep& step : scenario.clients.front().script.steps()) {
    const lightfield::ViewSetId id = lattice.view_set_of(step.direction);
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
    if (ids.size() == kProbeSets) break;
  }
  ProbeTimes p;
  for (const lightfield::ViewSetId& id : ids) {
    auto t = Clock::now();
    lightfield::ViewSet vs = source.build(id);
    p.synth_ms.push_back(seconds_since(t) * 1e3);
    t = Clock::now();
    const Bytes compressed = vs.compress();
    p.encode_ms.push_back(seconds_since(t) * 1e3);
    t = Clock::now();
    lightfield::ViewSet decoded = lightfield::ViewSet::decompress(compressed);
    p.decode_ms.push_back(seconds_since(t) * 1e3);
    p.compression.push_back(ratio(static_cast<double>(decoded.pixel_bytes()),
                                  static_cast<double>(compressed.size())));
    lightfield::Renderer renderer(config.lattice);
    renderer.add_view_set(std::move(decoded));
    t = Clock::now();
    const render::ImageRGB8 frame =
        renderer.render(lattice.view_set_center(id), config.client.display_resolution);
    p.render_ms.push_back(seconds_since(t) * 1e3);
    if (frame.byte_size() == 0) throw std::logic_error("lonbench: empty probe frame");
  }
  return p;
}

std::vector<Metric> layer_metrics(const session::Scenario& scenario,
                                  const std::vector<Rep>& reps, const Pool& pool,
                                  double trace_overhead) {
  const ProbeTimes probes = run_probes(scenario);
  const double k = pool.realizations;
  std::vector<Metric> out = {
      {"session.build_s", median_of(reps, [](const Rep& r) { return r.build_s; }), "s"},
      {"session.publish_s", median_of(reps, [](const Rep& r) { return r.publish_s; }), "s"},
      {"lightfield.synth_ms", median(probes.synth_ms), "ms"},
      {"compress.encode_ms", median(probes.encode_ms), "ms"},
      {"compress.decode_ms", median(probes.decode_ms), "ms"},
      {"compress.ratio", median(probes.compression), "x"},
      {"lightfield.render_ms", median(probes.render_ms), "ms"},
      {"simnet.events", pool.events / k, "count"},
      {"simnet.reallocs", pool.reallocs / k, "count"},
      {"simnet.flows_touched", pool.flows_touched / k, "count"},
      {"simnet.events_per_s", ratio(pool.events, pool.browse_s), "1/s"},
      {"obs.spans", pool.spans / k, "count"},
      {"obs.trace_overhead_frac", trace_overhead, "frac"},
      {"streaming.shed_frac",
       ratio(pool.mean("agent.demand_shed"), pool.mean("agent.requests")), "frac"},
      {"streaming.shed_wait_ms_p99", quantile(pool.shed_wait_s, 0.99) * 1e3, "sim_ms"},
      {"policy.lod_coarse_serves", pool.mean("agent.lod_coarse_serves"), "count"},
      {"streaming.stage_wan_mb", pool.mean("agent.stage_wan_bytes") / 1e6, "MB"},
      {"streaming.site_adopted", pool.mean("agent.site_adopted"), "count"},
      {"streaming.restage_coalesced", pool.mean("agent.restage_coalesced"), "count"},
      {"streaming.hit_rate", ratio(pool.mean("agent.hits"), pool.mean("agent.requests")),
       "frac"},
      {"policy.prefetch_useful_frac",
       ratio(pool.mean("prefetch.useful"), pool.mean("agent.prefetches")), "frac"},
      {"policy.prefetch_mb", pool.mean("prefetch.bytes") / 1e6, "MB"},
      {"lors.retries", pool.mean("lors.retries"), "count"},
      {"lors.failovers", pool.mean("lors.failovers"), "count"},
      {"lors.corruption_detected", pool.mean("lors.corruption_detected"), "count"},
      {"ibp.timeouts", pool.mean("ibp.timeouts"), "count"},
  };
  for (const char* name : kSpans) {
    const std::vector<double>& v = pool.span_self_ms.at(name);
    const std::string base = std::string("span.") + name;
    out.push_back({base + ".count", static_cast<double>(v.size()) / k, "count"});
    out.push_back({base + ".self_ms_p50", v.empty() ? 0.0 : quantile(v, 0.50), "sim_ms"});
    out.push_back({base + ".self_ms_p99", v.empty() ? 0.0 : quantile(v, 0.99), "sim_ms"});
  }
  return out;
}

// --- Output ------------------------------------------------------------------

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

void write_file(const std::string& path, const std::function<void(std::ostream&)>& body) {
  std::ofstream os(path);
  body(os);
  if (!os) throw std::runtime_error("lonbench: cannot write " + path);
}

int usage() {
  std::fprintf(stderr,
               "usage: lonbench --workload W [--seed N] [--seconds S] [--trace]"
               " [--out DIR]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int run(int argc, char** argv) {
  std::string workload, out_dir;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::stod(argv[++i]);
    } else if (arg == "--out" && has_value) {
      out_dir = argv[++i];
    } else if (arg == "--trace") {
      trace = true;
    } else {
      return usage();
    }
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) return usage();

  const std::size_t k = w->realizations;
  std::vector<session::Scenario> scenarios;
  for (std::size_t j = 0; j < k; ++j) scenarios.push_back(realize(*w, seed, j));

  // Warm-up rep: the library's own scenario loop, untimed, which the
  // loop here must reproduce exactly.
  session::ScenarioResult ref = session::run_scenario(scenarios.front());
  const std::string ref_counters = counter_lines(ref.obs->metrics);
  ref.obs.reset();

  // Every realization once, then round again until --seconds is spent; at
  // least one realization repeats, so run-to-run identity is always checked.
  std::vector<Rep> reps;
  const auto start = Clock::now();
  while (reps.size() < k + 1 || seconds_since(start) < seconds) {
    const std::size_t j = reps.size() % k;
    reps.push_back(run_rep(scenarios[j], j, /*tracing=*/true));
    if (reps.size() > 1) reps.back().obs.reset();  // keep the first rep's for --out
  }
  const Rep& first = reps.front();

  Checks checks;
  checks.push_back(
      {"matches_run_scenario", matches_run_scenario(first, ref, ref_counters)});
  bool identical = true, one_record = true, on_schedule = true;
  std::map<std::string, bool> workload_checks;
  for (const Rep& r : reps) {
    identical = identical && r.digest == reps[r.realization].digest;
    one_record = one_record && r.records_match_steps;
    on_schedule = on_schedule && r.asks_on_schedule;
    for (const auto& [name, ok] : w->checks(r)) {
      workload_checks.try_emplace(name, true);
      workload_checks[name] = workload_checks[name] && ok;
    }
  }
  checks.push_back({"reps_identical", identical});
  checks.push_back({"one_record_per_fetch_step", one_record});
  checks.push_back({"asks_on_schedule", on_schedule});
  for (const auto& [name, ok] : workload_checks) checks.push_back({name, ok});

  const Pool pool(reps, k);
  std::vector<Metric> metrics;
  if (trace) {
    // Tracing overhead from untraced and traced reps of one realization run
    // back to back, so that the host's drift cancels within each pair.
    double traced_s = 0.0, untraced_s = 0.0;
    bool same = true;
    for (std::size_t j = 0; j < std::min(k, kOverheadPairs); ++j) {
      const Rep off = run_rep(scenarios[j], j, false);
      const Rep on = run_rep(scenarios[j], j, true);
      same = same && off.digest == reps[j].digest && on.digest == reps[j].digest;
      untraced_s += off.browse_s;
      traced_s += on.browse_s;
    }
    checks.push_back({"trace_on_off_identical", same});
    metrics =
        layer_metrics(scenarios.front(), reps, pool, ratio(traced_s, untraced_s) - 1.0);
    if (!out_dir.empty()) {
      const std::string base = out_dir + "/" + w->name;
      write_file(base + ".trace.json",
                 [&](std::ostream& os) { first.obs->trace.write_chrome_trace(os); });
      write_file(base + ".metrics.jsonl",
                 [&](std::ostream& os) { first.obs->metrics.write_jsonl(os); });
      write_file(base + ".layers.json",
                 [&](std::ostream& os) { os << metrics_json(metrics) << '\n'; });
    }
  } else {
    metrics = e2e_metrics(reps, pool);
  }
  checks.push_back({"metrics_finite",
                    std::all_of(metrics.begin(), metrics.end(),
                                [](const Metric& m) { return std::isfinite(m.value); })});

  bool ok = true;
  std::string checks_json = "{";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    ok = ok && checks[i].second;
    if (i > 0) checks_json += ", ";
    checks_json += "\"" + checks[i].first + "\": " + (checks[i].second ? "true" : "false");
  }
  checks_json += "}";
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(first.digest));
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"reps\": %zu, "
      "\"realizations\": %zu, \"fetch_steps\": %.0f, \"failed\": %.0f, \"digest\": \"%s\", "
      "\"ok\": %s, \"checks\": %s, \"metrics\": %s}\n",
      w->name, static_cast<unsigned long long>(seed), trace ? 1 : 0, reps.size(), k,
      pool.steps, pool.failed, digest, ok ? "true" : "false", checks_json.c_str(),
      metrics_json(metrics).c_str());
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lonbench: %s\n", e.what());
    return 2;
  }
}
