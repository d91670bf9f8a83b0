#include "volume/synthetic.hpp"

#include <vector>

#include "util/rng.hpp"
#include "util/vec3.hpp"

namespace lon::volume {

ScalarVolume make_neghip_like(std::size_t n, std::uint64_t seed, int charges) {
  ScalarVolume vol(n, n, n);
  Rng rng(seed);
  struct Charge {
    Vec3 position;
    double q;
  };
  std::vector<Charge> sites;
  sites.reserve(static_cast<std::size_t>(charges));
  for (int c = 0; c < charges; ++c) {
    // Keep charges inside +-0.6 so the interesting structure sits well
    // within the cube (as the protein does in negHip).
    Charge site;
    site.position = {rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6),
                     rng.uniform(-0.6, 0.6)};
    site.q = (c % 2 == 0 ? 1.0 : -1.0) * rng.uniform(0.5, 1.0);
    sites.push_back(site);
  }

  constexpr double kSoftening = 0.05;  // avoids the 1/0 singularity
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < n; ++i) {
        const Vec3 p{
            2.0 * static_cast<double>(i) / (static_cast<double>(n) - 1.0) - 1.0,
            2.0 * static_cast<double>(j) / (static_cast<double>(n) - 1.0) - 1.0,
            2.0 * static_cast<double>(k) / (static_cast<double>(n) - 1.0) - 1.0,
        };
        double potential = 0.0;
        for (const auto& site : sites) {
          const double r = (p - site.position).norm();
          potential += site.q / (r + kSoftening);
        }
        vol.at(i, j, k) = static_cast<float>(potential);
      }
    }
  }
  vol.normalize();
  return vol;
}

}  // namespace lon::volume
