// Process-wide metrics registry: named counters, gauges and log-bucketed
// latency histograms.
//
// The paper's whole argument is quantitative (the >30 fps interactivity
// claim, the hit/LAN/WAN latency classes of figures 9-12), and NetLogger-style
// end-to-end instrumentation is what made WAN visualization tunable in the
// first place (Bethel et al., PAPERS.md). Instead of every layer keeping its
// own ad-hoc stats struct that each bench re-aggregates by hand, all layers
// increment metrics in one registry, and a counter's registry name is its
// only spelling: tests read it by that name, the benches print every counter
// under it, and ci/perf_gate.py selects it by it.
//
// Metrics are identified by (name, labels). `name` is a dotted path
// ("lors.retries"); `labels` is a pre-rendered "key=value,key=value" string.
// Components obtain a Scope — their instance labels rendered once — and
// create metrics through it, so two ClientAgents in one process never share a
// counter while an exporter can still aggregate across them.
//
// Metric objects and the registry are thread-safe: the demand path now runs
// CPU work (stripe verification, chunk decompression, ray casting) on the
// shared ThreadPool, and pool workers increment counters and record
// latencies concurrently with the simulator thread. Counters, gauges and
// histogram bins are atomics (relaxed ordering — metrics tolerate benign
// reordering); the registry's maps are guarded by a mutex on the
// creation/lookup/export paths only, so the increment fast path stays
// lock-free. The span Tracer (trace.hpp) is NOT thread-safe and stays
// confined to the simulator thread (DESIGN.md section 10).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/time.hpp"

namespace lon::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depths, cache occupancy).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Power-of-two-bucketed histogram over non-negative nanosecond durations,
/// with exact count/sum/min/max and bucket-estimated percentiles.
///
/// Latencies span eight decades (100 us agent hits to multi-second WAN
/// fetches), so buckets grow geometrically. Bucket b >= 1 covers
/// [2^(b-1), 2^b) ns; bucket 0 holds zero-or-negative samples. The
/// percentile for `fraction` (clamped to [0, 1]) comes from the smallest
/// bucket whose cumulative count reaches the rank
/// max(1, ceil(fraction * count)): that bucket's midpoint, clamped to the
/// exactly-tracked [min, max].
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(SimDuration v);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t sum() const {  ///< exact, in ns
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] SimDuration min() const;
  [[nodiscard]] SimDuration max() const;

  /// Estimated value (ns) below which `fraction` of samples fall; 0 when
  /// empty. Monotonic in `fraction`.
  [[nodiscard]] double percentile(double fraction) const;
  [[nodiscard]] double p50() const { return percentile(0.50); }
  [[nodiscard]] double p90() const { return percentile(0.90); }
  [[nodiscard]] double p99() const { return percentile(0.99); }

  /// Snapshot of the bucket counts (each bin loaded relaxed).
  [[nodiscard]] std::array<std::uint64_t, kBuckets> buckets() const;
  /// Inclusive-exclusive bounds [lo, hi) of bucket `b`, in ns.
  static std::pair<double, double> bucket_bounds(std::size_t b);

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> bins_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  // min_ starts at +inf and max_ at -inf so concurrent first samples race
  // benignly; min()/max() report 0 while empty.
  std::atomic<SimDuration> min_{std::numeric_limits<SimDuration>::max()};
  std::atomic<SimDuration> max_{std::numeric_limits<SimDuration>::min()};
};

class Registry;

/// A component's window onto the registry: metric creation with this
/// instance's labels pre-applied. Copyable; the registry must outlive it.
class Scope {
 public:
  Scope(Registry& registry, std::string labels)
      : registry_(&registry), labels_(std::move(labels)) {}

  [[nodiscard]] Counter& counter(const std::string& name) const;
  [[nodiscard]] Gauge& gauge(const std::string& name) const;
  [[nodiscard]] LatencyHistogram& histogram(const std::string& name) const;
  [[nodiscard]] const std::string& labels() const { return labels_; }

 private:
  Registry* registry_;
  std::string labels_;
};

/// The registry proper. Metric objects are stable in memory once created
/// (node-based storage), so layers keep references and pay no lookup on the
/// increment path. Export order is deterministic: sorted by name, then
/// labels.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name, const std::string& labels = {});
  Gauge& gauge(const std::string& name, const std::string& labels = {});
  LatencyHistogram& histogram(const std::string& name, const std::string& labels = {});

  /// Lookup without creation; nullptr when absent.
  [[nodiscard]] const Counter* find_counter(const std::string& name,
                                            const std::string& labels = {}) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name,
                                        const std::string& labels = {}) const;
  [[nodiscard]] const LatencyHistogram* find_histogram(
      const std::string& name, const std::string& labels = {}) const;

  /// Sum of one counter name across every label set (0 when absent).
  [[nodiscard]] std::uint64_t counter_total(const std::string& name) const;
  /// counter_total of every counter name, sorted by name. A counter that was
  /// created but never incremented appears with 0; gauges and histograms do
  /// not appear.
  [[nodiscard]] std::map<std::string, std::uint64_t> counter_totals() const;

  /// Every label set under which `name` exists as a histogram, in label
  /// order — how per-instance latencies (e.g. one session.total_ns per
  /// client of a multi-client run) are enumerated for reporting.
  [[nodiscard]] std::vector<std::pair<std::string, const LatencyHistogram*>>
  histograms_named(const std::string& name) const;

  /// Mints a fresh instance label set for a component, e.g.
  /// "component=lors,inst=2". Instances count per component name.
  [[nodiscard]] std::string next_instance(const std::string& component);
  [[nodiscard]] Scope scope(const std::string& component) {
    return Scope(*this, next_instance(component));
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Flat JSONL dump: one self-describing JSON object per line, one line per
  /// (name, labels) metric. The format the benches write next to their
  /// stdout output and CI uploads as an artifact.
  void write_jsonl(std::ostream& os) const;
  [[nodiscard]] std::string jsonl() const;

  /// Drops every metric and instance count (tests).
  void reset();

 private:
  // (name, labels) -> metric. std::map nodes never move, so references
  // handed out by counter()/gauge()/histogram() stay valid even while other
  // threads create new metrics. mutex_ guards the maps themselves (create,
  // find, export); the metric objects are internally atomic, so the
  // increment path never takes this lock.
  template <typename T>
  using Family = std::map<std::pair<std::string, std::string>, T>;

  mutable std::mutex mutex_;
  Family<Counter> counters_;
  Family<Gauge> gauges_;
  Family<LatencyHistogram> histograms_;
  std::map<std::string, std::uint64_t> instances_;
};

/// Escapes a string for embedding in a JSON string literal.
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace lon::obs
