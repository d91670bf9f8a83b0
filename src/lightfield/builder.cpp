#include "lightfield/builder.hpp"

#include <stdexcept>

#include "render/camera.hpp"

namespace lon::lightfield {

RaycastBuilder::RaycastBuilder(const volume::ScalarVolume& volume,
                               volume::TransferFunction tf, const LatticeConfig& config,
                               render::RayCastOptions render_options, std::size_t threads)
    : lattice_(config), caster_(volume, std::move(tf), render_options), pool_(threads) {}

render::ImageRGB8 RaycastBuilder::render_sample(std::size_t row, std::size_t col) {
  const Vec3 eye = lattice_.camera_position(row, col);
  const render::Camera camera =
      render::Camera::look_at(eye, {0, 0, 0}, {0, 0, 1}, lattice_.config().fov_deg);
  const std::size_t r = lattice_.config().view_resolution;
  return caster_.render(camera, r, r, &pool_);
}

ViewSet RaycastBuilder::build(const ViewSetId& id) {
  if (!lattice_.valid(id)) throw std::out_of_range("RaycastBuilder: bad view-set id");
  const int span = lattice_.config().view_set_span;
  ViewSet vs(id, span, lattice_.config().view_resolution);
  const auto views = static_cast<std::size_t>(span) * static_cast<std::size_t>(span);
  if (pool_.size() > 1 && views > 1) {
    // Batch the whole view set: one task per view, each rendered
    // single-threaded (a parallel_for nested in a worker would run inline
    // anyway). Views write disjoint images, so the result is byte-identical
    // to the serial loop.
    pool_.parallel_for(
        0, views,
        [&](std::size_t i) {
          const int lr = static_cast<int>(i) / span;
          const int lc = static_cast<int>(i) % span;
          const auto row = static_cast<std::size_t>(id.row * span + lr);
          const auto col = static_cast<std::size_t>(id.col * span + lc);
          const Vec3 eye = lattice_.camera_position(row, col);
          const render::Camera camera = render::Camera::look_at(
              eye, {0, 0, 0}, {0, 0, 1}, lattice_.config().fov_deg);
          const std::size_t r = lattice_.config().view_resolution;
          vs.view(lr, lc) = caster_.render(camera, r, r, nullptr);
        },
        views);
  } else {
    for (int lr = 0; lr < span; ++lr) {
      for (int lc = 0; lc < span; ++lc) {
        const auto row = static_cast<std::size_t>(id.row * span + lr);
        const auto col = static_cast<std::size_t>(id.col * span + lc);
        vs.view(lr, lc) = render_sample(row, col);
      }
    }
  }
  return vs;
}

}  // namespace lon::lightfield
