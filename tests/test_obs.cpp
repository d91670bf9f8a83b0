// Observability layer tests: registry identity and aggregation, latency
// histogram semantics, span parenting across virtual-time hops, exporter
// output — plus regression tests for the cache re-put and thread-pool
// exception-propagation fixes that shipped with the layer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "session/experiment.hpp"
#include "session/metrics.hpp"
#include "simnet/simulator.hpp"
#include "streaming/cache.hpp"
#include "util/thread_pool.hpp"

namespace lon {
namespace {

// --- registry -----------------------------------------------------------------

TEST(ObsRegistry, SameNameAndLabelsYieldTheSameCounter) {
  obs::Registry registry;
  obs::Counter& a = registry.counter("x.events");
  obs::Counter& b = registry.counter("x.events");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);

  obs::Counter& labeled = registry.counter("x.events", "component=x,inst=0");
  EXPECT_NE(&a, &labeled);
  labeled.inc(4);
  EXPECT_EQ(registry.counter_total("x.events"), 7u);
  EXPECT_EQ(registry.counter_total("x.absent"), 0u);
  EXPECT_EQ(registry.find_counter("x.absent"), nullptr);
}

TEST(ObsRegistry, ScopesMintDistinctInstanceLabels) {
  obs::Registry registry;
  obs::Scope first = registry.scope("agent");
  obs::Scope second = registry.scope("agent");
  EXPECT_EQ(first.labels(), "component=agent,inst=0");
  EXPECT_EQ(second.labels(), "component=agent,inst=1");

  first.counter("agent.requests").inc(2);
  second.counter("agent.requests").inc(5);
  EXPECT_EQ(first.counter("agent.requests").value(), 2u);
  EXPECT_EQ(second.counter("agent.requests").value(), 5u);
  EXPECT_EQ(registry.counter_total("agent.requests"), 7u);
}

TEST(ObsRegistry, CounterTotalsSumInstancesAndLeaveOutOtherMetrics) {
  obs::Registry registry;
  obs::Scope first = registry.scope("site");
  obs::Scope second = registry.scope("site");
  first.counter("site.hits").inc(2);
  second.counter("site.hits").inc(5);
  (void)first.counter("site.evictions");  // registered, never incremented
  first.gauge("site.bytes").set(300.0);
  (void)second.histogram("site.lookup_ns");
  registry.counter("agent.requests").inc(4);

  const std::map<std::string, std::uint64_t> totals = registry.counter_totals();
  const std::map<std::string, std::uint64_t> want = {
      {"agent.requests", 4}, {"site.evictions", 0}, {"site.hits", 7}};
  EXPECT_EQ(totals, want);
  for (const auto& [name, total] : totals) {
    EXPECT_EQ(total, registry.counter_total(name)) << name;
  }
  EXPECT_TRUE(obs::Registry().counter_totals().empty());
}

TEST(ObsRegistry, ReferencesStayValidAsTheRegistryGrows) {
  obs::Registry registry;
  obs::Counter& pinned = registry.counter("pinned");
  for (int i = 0; i < 200; ++i) {
    registry.counter("filler." + std::to_string(i)).inc();
  }
  pinned.inc(9);
  EXPECT_EQ(registry.find_counter("pinned")->value(), 9u);
}

TEST(ObsRegistry, JsonlDumpIsDeterministicAndSelfDescribing) {
  obs::Registry registry;
  registry.counter("b.count", "component=b,inst=0").inc(2);
  registry.counter("a.count").inc(1);
  registry.gauge("a.depth").set(1.5);
  registry.histogram("a.lat").record(1000);

  const std::string expected =
      "{\"name\":\"a.count\",\"labels\":\"\",\"type\":\"counter\",\"value\":1}\n"
      "{\"name\":\"b.count\",\"labels\":\"component=b,inst=0\",\"type\":\"counter\","
      "\"value\":2}\n"
      "{\"name\":\"a.depth\",\"labels\":\"\",\"type\":\"gauge\",\"value\":1.5}\n"
      "{\"name\":\"a.lat\",\"labels\":\"\",\"type\":\"histogram\",\"count\":1,"
      "\"sum_ns\":1000,\"min_ns\":1000,\"max_ns\":1000,\"p50_ns\":1000,"
      "\"p90_ns\":1000,\"p99_ns\":1000}\n";
  EXPECT_EQ(registry.jsonl(), expected);

  registry.reset();
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.jsonl(), "");
  // Instance numbering restarts too.
  EXPECT_EQ(registry.scope("b").labels(), "component=b,inst=0");
}

// --- latency histogram --------------------------------------------------------

TEST(ObsHistogram, TracksExactCountSumMinMax) {
  obs::LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0.0);

  for (const SimDuration v : {100, 200, 700}) h.record(v);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1000);
  EXPECT_EQ(h.min(), 100);
  EXPECT_EQ(h.max(), 700);
}

TEST(ObsHistogram, PercentilesUseCeilRankAndClampToObservedRange) {
  obs::LatencyHistogram h;
  // 9 samples in [512, 1024) and one far outlier.
  for (int i = 0; i < 9; ++i) h.record(600);
  h.record(1'000'000);

  // ceil(0.5 * 10) = 5th sample: the [512, 1024) bucket, midpoint 768.
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 768.0);
  // ceil(0.9 * 10) = 9th sample: still the low bucket.
  EXPECT_DOUBLE_EQ(h.percentile(0.9), 768.0);
  // The 10th sample lives in the outlier's [2^19, 2^20) bucket: its midpoint
  // is the estimate (within [min, max], so no clamping applies).
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 786432.0);
  // fraction 0 still means "the first sample", never an empty rank.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 768.0);
  // Monotonic in fraction.
  EXPECT_LE(h.percentile(0.5), h.percentile(0.99));

  obs::LatencyHistogram single;
  single.record(12345);
  // Clamping pins every percentile of a single sample to its exact value.
  EXPECT_DOUBLE_EQ(single.percentile(0.01), 12345.0);
  EXPECT_DOUBLE_EQ(single.percentile(0.99), 12345.0);
}

TEST(ObsHistogram, NonPositiveSamplesLandInBucketZero) {
  obs::LatencyHistogram h;
  h.record(0);
  h.record(-5);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.min(), -5);
  EXPECT_EQ(h.max(), 0);
}

// --- tracer -------------------------------------------------------------------

TEST(ObsTracer, DisabledTracerRecordsNothing) {
  obs::Tracer tracer;
  const obs::SpanId id = tracer.begin("noop", 10);
  EXPECT_EQ(id, 0u);
  tracer.arg(id, "k", "v");  // must be a safe no-op
  tracer.end(id, 20);
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(ObsTracer, AmbientGuardSuppliesTheParentAcrossSynchronousCalls) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  const obs::SpanId root = tracer.begin("root", 0);
  obs::SpanId child = 0;
  {
    const obs::Tracer::Ambient ambient(tracer, root);
    child = tracer.begin("child", 5);
  }
  const obs::SpanId sibling = tracer.begin("sibling", 6);

  EXPECT_EQ(tracer.find(child)->parent, root);
  EXPECT_EQ(tracer.find(sibling)->parent, 0u);  // guard restored on exit
  EXPECT_EQ(tracer.root_of(child), root);
}

TEST(ObsTracer, ExplicitParentIdsSurviveVirtualTimeHops) {
  sim::Simulator sim;
  obs::Tracer tracer;
  tracer.set_enabled(true);

  const obs::SpanId root = tracer.begin("request", sim.now());
  obs::SpanId child = 0;
  obs::SpanId grandchild = 0;
  sim.after(10, [&] {
    // The call stack (and any Ambient guard) from the scheduling site is
    // gone by now; the id threaded through the closure is what links us.
    child = tracer.begin("fetch", sim.now(), root);
    sim.after(5, [&] {
      grandchild = tracer.begin("download", sim.now(), child);
      tracer.end(grandchild, sim.now());
      tracer.end(child, sim.now());
    });
  });
  sim.run();
  tracer.end(root, sim.now());

  ASSERT_NE(child, 0u);
  ASSERT_NE(grandchild, 0u);
  EXPECT_EQ(tracer.find(child)->parent, root);
  EXPECT_EQ(tracer.find(grandchild)->parent, child);
  EXPECT_EQ(tracer.root_of(grandchild), root);
  EXPECT_EQ(tracer.find(child)->begin, 10);
  EXPECT_EQ(tracer.find(grandchild)->begin, 15);
  EXPECT_FALSE(tracer.find(root)->open);
}

TEST(ObsTracer, ChromeTraceExportsCompleteAndInstantEvents) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  const obs::SpanId root = tracer.begin("request", 1000);
  tracer.arg(root, "view_set", "vs1_2");
  const obs::SpanId mark = tracer.instant("retry", 1500, root);
  tracer.end(root, 3000);

  const std::string json = tracer.chrome_trace();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // 1000 ns -> 1 us; 2000 ns duration -> 2 us.
  EXPECT_NE(json.find("\"name\":\"request\",\"cat\":\"lon\",\"ph\":\"X\",\"ts\":1"
                      ",\"dur\":2"),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\",\"ts\":1.5,\"s\":\"t\""), std::string::npos);
  // Both events share the root's lane and carry their ids and annotations.
  EXPECT_NE(json.find("\"tid\":" + std::to_string(root)), std::string::npos);
  EXPECT_NE(json.find("\"view_set\":\"vs1_2\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\":" + std::to_string(root)), std::string::npos);
  EXPECT_EQ(json.find("\"open\":true"), std::string::npos);
  EXPECT_EQ(mark, 2u);
}

// --- regression: ViewSetCache::put -------------------------------------------

TEST(ViewSetCacheRegression, OverBudgetReputDropsTheStaleEntry) {
  streaming::ViewSetCache cache(100);
  const lightfield::ViewSetId id{1, 2};
  cache.put(id, Bytes(50, 0xaa));
  ASSERT_TRUE(cache.contains(id));

  // The refreshed payload is too large to cache. Serving the old version
  // would hand out data the caller just replaced — it must be gone.
  cache.put(id, Bytes(200, 0xbb));
  EXPECT_FALSE(cache.contains(id));
  EXPECT_EQ(cache.get(id), nullptr);
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(ViewSetCacheRegression, ReputDoesNotEvictOtherEntriesToFitItsOwnOldBytes) {
  streaming::ViewSetCache cache(100);
  const lightfield::ViewSetId a{0, 0};
  const lightfield::ViewSetId b{0, 1};
  cache.put(a, Bytes(60, 1));
  cache.put(b, Bytes(40, 2));
  // Refreshing `a` at the same size fits exactly once its old bytes are
  // released first; `b` must survive.
  cache.put(a, Bytes(60, 3));
  EXPECT_TRUE(cache.contains(a));
  EXPECT_TRUE(cache.contains(b));
  EXPECT_EQ(cache.bytes_used(), 100u);
  EXPECT_EQ(cache.evictions(), 0u);
}

// --- regression: ThreadPool::parallel_for -------------------------------------

TEST(ThreadPoolRegression, ParallelForWaitsForAllChunksBeforeRethrowing) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  const std::size_t n = 8;
  // One chunk per index: index 0 throws immediately, the others finish
  // slowly. The rethrow must not happen until every chunk is done —
  // otherwise workers would still be calling `fn` (a reference to a local)
  // after parallel_for returned.
  EXPECT_THROW(
      pool.parallel_for(
          0, n,
          [&](std::size_t i) {
            if (i == 0) throw std::runtime_error("chunk failed");
            std::this_thread::sleep_for(std::chrono::milliseconds(30));
            completed.fetch_add(1);
          },
          /*chunks=*/n),
      std::runtime_error);
  EXPECT_EQ(completed.load(), static_cast<int>(n - 1));
}

// --- end-to-end: experiment observability -------------------------------------

session::ExperimentConfig obs_experiment_config() {
  session::ExperimentConfig cfg;
  cfg.lattice.angular_step_deg = 15.0;
  cfg.lattice.view_set_span = 3;  // 4 x 8 = 32 view sets
  cfg.lattice.view_resolution = 24;
  cfg.which = session::Case::kWanStreaming;
  cfg.accesses = 12;
  cfg.dwell = kSecond;
  cfg.client.display_resolution = 24;
  return cfg;
}

TEST(ObsExperiment, RegistryReproducesAccessAndRobustnessSummaries) {
  session::ExperimentConfig cfg = obs_experiment_config();
  // A crash window plus deadlines and retries so the self-healing counters
  // actually move.
  cfg.publish_replicas = 2;
  cfg.timeouts = {.control = 500 * kMillisecond, .data = 5 * kSecond};
  cfg.agent.retry.max_attempts = 4;
  cfg.agent.retry.base_backoff = 250 * kMillisecond;
  cfg.faults.crashes.push_back(
      {.depot = "ca-0", .at = 2 * kSecond, .restart_after = 6 * kSecond});

  const session::ExperimentResult result = session::run_experiment(cfg);
  ASSERT_NE(result.obs, nullptr);
  const obs::Registry& reg = result.obs->metrics;

  // session.* mirrors the AccessRecord trace exactly.
  EXPECT_EQ(reg.counter_total("session.accesses"), result.summary.total);
  EXPECT_EQ(reg.counter_total("session.hits"), result.summary.hits);
  EXPECT_EQ(reg.counter_total("session.lan"), result.summary.lan);
  EXPECT_EQ(reg.counter_total("session.wan"), result.summary.wan);

  std::int64_t total_ns = 0;
  std::int64_t comm_ns = 0;
  for (const auto& r : result.accesses) {
    total_ns += r.total();
    comm_ns += r.comm_latency;
  }
  const obs::LatencyHistogram* h =
      reg.find_histogram("session.total_ns", "component=client,inst=0");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), result.summary.total);
  EXPECT_EQ(h->sum(), total_ns);
  EXPECT_EQ(reg.find_histogram("session.comm_ns", "component=client,inst=0")->sum(),
            comm_ns);

  // The run exercised the self-healing machinery the registry reports on.
  EXPECT_GT(reg.counter_total("lors.retries") + reg.counter_total("lors.failovers") +
                reg.counter_total("ibp.timeouts"),
            0u);

  // The dump stays line-structured JSON.
  const std::string jsonl = reg.jsonl();
  EXPECT_NE(jsonl.find("\"name\":\"session.accesses\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"histogram\""), std::string::npos);
}

TEST(ObsExperiment, TraceNestsTheFullDemandLifeline) {
  const session::ExperimentResult result =
      session::run_experiment(obs_experiment_config());
  ASSERT_NE(result.obs, nullptr);
  const obs::Tracer& tracer = result.obs->trace;
  ASSERT_FALSE(tracer.spans().empty());

  const auto parent_name = [&](const obs::Span& s) -> std::string {
    const obs::Span* p = tracer.find(s.parent);
    return p == nullptr ? std::string{} : p->name;
  };

  // At least one complete demand lifeline:
  // client.request -> agent.fetch -> lors.download -> ibp.load, and
  // client.request -> client.decompress.
  bool fetch_under_request = false;
  bool download_under_fetch = false;
  bool load_under_download = false;
  bool decompress_under_request = false;
  bool dvs_under_fetch = false;
  for (const obs::Span& s : tracer.spans()) {
    if (s.name == "agent.fetch" && parent_name(s) == "client.request") {
      fetch_under_request = true;
    }
    if (s.name == "lors.download" && parent_name(s) == "agent.fetch") {
      download_under_fetch = true;
    }
    if (s.name == "ibp.load" && parent_name(s) == "lors.download") {
      load_under_download = true;
    }
    if (s.name == "client.decompress" && parent_name(s) == "client.request") {
      decompress_under_request = true;
    }
    if (s.name == "dvs.query" && parent_name(s) == "agent.fetch") {
      dvs_under_fetch = true;
    }
  }
  EXPECT_TRUE(fetch_under_request);
  EXPECT_TRUE(download_under_fetch);
  EXPECT_TRUE(load_under_download);
  EXPECT_TRUE(decompress_under_request);
  EXPECT_TRUE(dvs_under_fetch);

  // Every demand lifeline collapses to a client.request (or agent.stage /
  // lors.upload background root); roots are well-formed.
  for (const obs::Span& s : tracer.spans()) {
    const obs::SpanId root = tracer.root_of(s.id);
    ASSERT_NE(root, 0u);
    EXPECT_EQ(tracer.find(root)->parent, 0u);
  }

  const std::string json = tracer.chrome_trace();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"client.request\""), std::string::npos);
}

}  // namespace
}  // namespace lon
