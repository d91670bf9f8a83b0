#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>
#include <sstream>

namespace lon::obs {

namespace {

/// Bucket index for a nanosecond sample: 0 for v <= 0, else 1 + floor(log2 v)
/// capped to the last bucket (which therefore absorbs > ~146 years).
std::size_t bucket_of(SimDuration v) {
  if (v <= 0) return 0;
  const auto b = static_cast<std::size_t>(std::bit_width(static_cast<std::uint64_t>(v)));
  return std::min(b, LatencyHistogram::kBuckets - 1);
}

}  // namespace

void LatencyHistogram::record(SimDuration v) {
  bins_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  // min_/max_ fold in with CAS loops; the +/-inf sentinels make the first
  // sample a plain fold too, so concurrent first samples cannot race.
  SimDuration cur = min_.load(std::memory_order_relaxed);
  while (v < cur && !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

SimDuration LatencyHistogram::min() const {
  return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
}

SimDuration LatencyHistogram::max() const {
  return count() == 0 ? 0 : max_.load(std::memory_order_relaxed);
}

std::array<std::uint64_t, LatencyHistogram::kBuckets> LatencyHistogram::buckets() const {
  std::array<std::uint64_t, kBuckets> out{};
  for (std::size_t b = 0; b < kBuckets; ++b) {
    out[b] = bins_[b].load(std::memory_order_relaxed);
  }
  return out;
}

std::pair<double, double> LatencyHistogram::bucket_bounds(std::size_t b) {
  if (b == 0) return {0.0, 1.0};
  const double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
  return {lo, lo * 2.0};
}

double LatencyHistogram::percentile(double fraction) const {
  // Concurrent record()s make this an approximate snapshot, which is all a
  // percentile estimate ever was; reads are monotonic enough for reporting.
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  fraction = std::clamp(fraction, 0.0, 1.0);
  const auto target = std::max<std::uint64_t>(
      1,
      static_cast<std::uint64_t>(std::ceil(fraction * static_cast<double>(n))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += bins_[b].load(std::memory_order_relaxed);
    if (seen >= target) {
      const auto [lo, hi] = bucket_bounds(b);
      const double mid = 0.5 * (lo + hi);
      return std::clamp(mid, static_cast<double>(min()), static_cast<double>(max()));
    }
  }
  return static_cast<double>(max());  // unreachable: bins sum to count_
}

Counter& Scope::counter(const std::string& name) const {
  return registry_->counter(name, labels_);
}

Gauge& Scope::gauge(const std::string& name) const {
  return registry_->gauge(name, labels_);
}

LatencyHistogram& Scope::histogram(const std::string& name) const {
  return registry_->histogram(name, labels_);
}

Counter& Registry::counter(const std::string& name, const std::string& labels) {
  std::lock_guard lock(mutex_);
  return counters_[{name, labels}];
}

Gauge& Registry::gauge(const std::string& name, const std::string& labels) {
  std::lock_guard lock(mutex_);
  return gauges_[{name, labels}];
}

LatencyHistogram& Registry::histogram(const std::string& name,
                                      const std::string& labels) {
  std::lock_guard lock(mutex_);
  return histograms_[{name, labels}];
}

const Counter* Registry::find_counter(const std::string& name,
                                      const std::string& labels) const {
  std::lock_guard lock(mutex_);
  const auto it = counters_.find({name, labels});
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* Registry::find_gauge(const std::string& name,
                                  const std::string& labels) const {
  std::lock_guard lock(mutex_);
  const auto it = gauges_.find({name, labels});
  return it == gauges_.end() ? nullptr : &it->second;
}

const LatencyHistogram* Registry::find_histogram(const std::string& name,
                                                 const std::string& labels) const {
  std::lock_guard lock(mutex_);
  const auto it = histograms_.find({name, labels});
  return it == histograms_.end() ? nullptr : &it->second;
}

std::uint64_t Registry::counter_total(const std::string& name) const {
  std::lock_guard lock(mutex_);
  std::uint64_t total = 0;
  // Keys sort by name first, so the name's label sets are contiguous.
  for (auto it = counters_.lower_bound({name, std::string{}});
       it != counters_.end() && it->first.first == name; ++it) {
    total += it->second.value();
  }
  return total;
}

std::map<std::string, std::uint64_t> Registry::counter_totals() const {
  std::lock_guard lock(mutex_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [key, c] : counters_) out[key.first] += c.value();
  return out;
}

std::vector<std::pair<std::string, const LatencyHistogram*>> Registry::histograms_named(
    const std::string& name) const {
  std::lock_guard lock(mutex_);
  std::vector<std::pair<std::string, const LatencyHistogram*>> out;
  for (auto it = histograms_.lower_bound({name, std::string{}});
       it != histograms_.end() && it->first.first == name; ++it) {
    out.emplace_back(it->first.second, &it->second);
  }
  return out;
}

std::string Registry::next_instance(const std::string& component) {
  std::lock_guard lock(mutex_);
  const std::uint64_t inst = instances_[component]++;
  return "component=" + component + ",inst=" + std::to_string(inst);
}

void Registry::reset() {
  std::lock_guard lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  instances_.clear();
}

namespace {

void write_key(std::ostream& os, const std::pair<std::string, std::string>& key,
               const char* type) {
  os << "{\"name\":\"" << json_escape(key.first) << "\",\"labels\":\""
     << json_escape(key.second) << "\",\"type\":\"" << type << "\"";
}

/// JSON numbers may not be NaN/Inf; metrics never should be, but a dump that
/// breaks every downstream parser is the wrong way to report one.
void write_double(std::ostream& os, double v) {
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << "null";
  }
}

}  // namespace

void Registry::write_jsonl(std::ostream& os) const {
  // The maps must not rehash/rebalance underneath the walk; instrument
  // *values* are atomics, so concurrent record()s stay safe while we hold
  // only the map lock.
  std::lock_guard lock(mutex_);
  for (const auto& [key, c] : counters_) {
    write_key(os, key, "counter");
    os << ",\"value\":" << c.value() << "}\n";
  }
  for (const auto& [key, g] : gauges_) {
    write_key(os, key, "gauge");
    os << ",\"value\":";
    write_double(os, g.value());
    os << "}\n";
  }
  for (const auto& [key, h] : histograms_) {
    write_key(os, key, "histogram");
    os << ",\"count\":" << h.count() << ",\"sum_ns\":" << h.sum()
       << ",\"min_ns\":" << h.min() << ",\"max_ns\":" << h.max()
       << ",\"p50_ns\":";
    write_double(os, h.p50());
    os << ",\"p90_ns\":";
    write_double(os, h.p90());
    os << ",\"p99_ns\":";
    write_double(os, h.p99());
    os << "}\n";
  }
}

std::string Registry::jsonl() const {
  std::ostringstream os;
  write_jsonl(os);
  return os.str();
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace lon::obs
