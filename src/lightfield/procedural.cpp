#include "lightfield/procedural.hpp"

#include <cmath>

#include "util/rng.hpp"

namespace lon::lightfield {

ProceduralSource::ProceduralSource(const LatticeConfig& config) : lattice_(config) {}

render::ImageRGB8 ProceduralSource::render_sample(std::size_t row, std::size_t col) const {
  const std::size_t r = lattice_.config().view_resolution;
  render::ImageRGB8 image(r, r);
  const Spherical dir = lattice_.sample_direction(row, col);

  // Blob parameters are global to the dataset (seeded), their projected
  // positions depend smoothly on the view angles — neighbouring sample views
  // look alike, exactly the view coherence real light fields exhibit.
  Rng rng(kSeed);
  struct Blob {
    double u, v, radius, r_col, g_col, b_col, depth;
  };
  std::vector<Blob> blobs(static_cast<std::size_t>(kBlobs));
  for (auto& blob : blobs) {
    blob.u = rng.uniform(-0.6, 0.6);
    blob.v = rng.uniform(-0.6, 0.6);
    blob.depth = rng.uniform(-0.5, 0.5);
    blob.radius = rng.uniform(0.1, 0.3);
    blob.r_col = rng.uniform(0.3, 1.0);
    blob.g_col = rng.uniform(0.3, 1.0);
    blob.b_col = rng.uniform(0.3, 1.0);
    // Three more draws per blob that nothing reads. Dropping them would
    // shift every later blob's parameters, and with them every synthesized
    // pixel, compressed size and digest.
    (void)rng.uniform(-1.0, 1.0);
    (void)rng.uniform(-1.0, 1.0);
    (void)rng.uniform(-0.5, 0.5);
  }

  Rng noise_rng(kSeed ^ (row * 1315423911ull) ^ (col * 2654435761ull));
  const double ct = std::cos(dir.theta), st = std::sin(dir.theta);
  const double cp = std::cos(dir.phi), sp = std::sin(dir.phi);
  for (std::size_t y = 0; y < r; ++y) {
    for (std::size_t x = 0; x < r; ++x) {
      const double px = 2.0 * (static_cast<double>(x) + 0.5) / static_cast<double>(r) - 1.0;
      const double py = 2.0 * (static_cast<double>(y) + 0.5) / static_cast<double>(r) - 1.0;
      double rr = 0.0, gg = 0.0, bb = 0.0;
      for (const Blob& blob : blobs) {
        // Parallax: a blob's screen position shifts with the view angles in
        // proportion to its depth.
        const double bu = blob.u * cp - blob.depth * sp;
        const double bv = blob.v * ct - blob.depth * st * 0.5;
        const double d2 = (px - bu) * (px - bu) + (py - bv) * (py - bv);
        const double w = std::exp(-d2 / (2.0 * blob.radius * blob.radius));
        rr += w * blob.r_col;
        gg += w * blob.g_col;
        bb += w * blob.b_col;
      }
      auto to_byte = [&](double v) {
        const double value = kContrast * v + kNoise * (noise_rng.uniform() - 0.5);
        return static_cast<std::uint8_t>(std::clamp(value, 0.0, 1.0) * 255.0 + 0.5);
      };
      image.set(x, y, {to_byte(rr), to_byte(gg), to_byte(bb)});
    }
  }
  return image;
}

ViewSet ProceduralSource::build(const ViewSetId& id) {
  if (!lattice_.valid(id)) throw std::out_of_range("ProceduralSource: bad view-set id");
  const int span = lattice_.config().view_set_span;
  ViewSet vs(id, span, lattice_.config().view_resolution);
  for (int lr = 0; lr < span; ++lr) {
    for (int lc = 0; lc < span; ++lc) {
      vs.view(lr, lc) = render_sample(static_cast<std::size_t>(id.row * span + lr),
                                      static_cast<std::size_t>(id.col * span + lc));
    }
  }
  return vs;
}

}  // namespace lon::lightfield
