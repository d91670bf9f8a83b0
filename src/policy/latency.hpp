// Per-class fetch-latency estimator for the prefetch scheduler.
//
// Bethel et al. showed that where a remote-vis fetch is served from (memory
// cache, LAN network cache, WAN) changes its latency by orders of magnitude;
// a prefetch scheduler that weighs "how long until the cursor needs this"
// against "how long a fetch takes" therefore needs a per-class latency
// estimate, not one global number. This keeps an EWMA per class, seeded with
// priors so the first prefetch decisions are sane before any fetch completes.
#pragma once

#include <array>
#include <cstddef>

#include "util/time.hpp"

namespace lon::policy {

/// Where a candidate fetch would be served from (mirror of the streaming
/// layer's AccessClass for the two classes a fetch can actually cost).
enum class FetchClass : std::size_t { kLan = 0, kWan = 1 };
inline constexpr std::size_t kFetchClasses = 2;

class FetchLatencyEstimator {
 public:
  static constexpr double kAlpha = 0.3;  ///< EWMA weight of new samples
  static constexpr SimDuration kLanPrior = 20 * kMillisecond;

  struct Config {
    SimDuration wan_prior = 800 * kMillisecond;
  };

  FetchLatencyEstimator() : FetchLatencyEstimator(Config{}) {}
  explicit FetchLatencyEstimator(const Config& config) {
    estimates_[static_cast<std::size_t>(FetchClass::kLan)] = static_cast<double>(kLanPrior);
    estimates_[static_cast<std::size_t>(FetchClass::kWan)] =
        static_cast<double>(config.wan_prior);
  }

  void observe(FetchClass cls, SimDuration latency) {
    double& e = estimates_[static_cast<std::size_t>(cls)];
    std::uint64_t& n = samples_[static_cast<std::size_t>(cls)];
    // First sample replaces the prior outright; later ones blend.
    e = n == 0 ? static_cast<double>(latency)
               : kAlpha * static_cast<double>(latency) + (1.0 - kAlpha) * e;
    ++n;
  }

  [[nodiscard]] SimDuration estimate(FetchClass cls) const {
    return static_cast<SimDuration>(estimates_[static_cast<std::size_t>(cls)]);
  }
  [[nodiscard]] std::uint64_t samples(FetchClass cls) const {
    return samples_[static_cast<std::size_t>(cls)];
  }

 private:
  std::array<double, kFetchClasses> estimates_{};
  std::array<std::uint64_t, kFetchClasses> samples_{};
};

}  // namespace lon::policy
