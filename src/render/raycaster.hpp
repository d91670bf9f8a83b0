// Parallel volume ray caster.
//
// Front-to-back compositing of a transfer-function-classified scalar volume
// with optional gradient (Blinn-Phong-ish headlight) shading and early ray
// termination — "the most general form of volume rendering with both
// semi-transparency and full opaqueness" the paper targets. The server-side
// generator runs this over the camera lattice via a ThreadPool, standing in
// for the paper's 32-processor cluster.
#pragma once

#include <cstddef>

#include "render/camera.hpp"
#include "render/image.hpp"
#include "util/thread_pool.hpp"
#include "volume/transfer.hpp"
#include "volume/volume.hpp"

namespace lon::render {

struct RayCastOptions {
  double step = 0.01;                 ///< world-space sampling step
  bool shading = true;                ///< gradient headlight shading
  Rgb8 background{0, 0, 0};
};

class RayCaster {
 public:
  /// A ray stops once its accumulated alpha passes this.
  static constexpr double kEarlyTermination = 0.98;
  /// Headlight shading terms: shade = ambient + diffuse * |cos(normal, ray)|.
  static constexpr double kAmbient = 0.35;
  static constexpr double kDiffuse = 0.65;

  RayCaster(const volume::ScalarVolume& vol, volume::TransferFunction tf,
            RayCastOptions options = {});

  /// Renders one frame; parallel over image rows when a pool is given.
  [[nodiscard]] ImageRGB8 render(const Camera& camera, std::size_t width,
                                 std::size_t height, ThreadPool* pool = nullptr) const;

  /// Casts a single ray; exposed for tests.
  [[nodiscard]] Rgb8 cast(const Ray& ray) const;

  [[nodiscard]] const RayCastOptions& options() const { return options_; }

 private:
  const volume::ScalarVolume& volume_;
  volume::TransferFunction tf_;
  RayCastOptions options_;
};

/// Intersects a ray with the [-1,1]^3 cube. Returns false on a miss;
/// otherwise [t_near, t_far] bound the overlap (t_near clamped to >= 0).
bool intersect_unit_cube(const Ray& ray, double& t_near, double& t_far);

}  // namespace lon::render
