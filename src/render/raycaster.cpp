#include "render/raycaster.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace lon::render {

bool intersect_unit_cube(const Ray& ray, double& t_near, double& t_far) {
  t_near = 0.0;
  t_far = std::numeric_limits<double>::infinity();
  const double origin[3] = {ray.origin.x, ray.origin.y, ray.origin.z};
  const double dir[3] = {ray.direction.x, ray.direction.y, ray.direction.z};
  for (int axis = 0; axis < 3; ++axis) {
    if (std::abs(dir[axis]) < 1e-15) {
      if (origin[axis] < -1.0 || origin[axis] > 1.0) return false;
      continue;
    }
    double t0 = (-1.0 - origin[axis]) / dir[axis];
    double t1 = (1.0 - origin[axis]) / dir[axis];
    if (t0 > t1) std::swap(t0, t1);
    t_near = std::max(t_near, t0);
    t_far = std::min(t_far, t1);
    if (t_near > t_far) return false;
  }
  return true;
}

RayCaster::RayCaster(const volume::ScalarVolume& vol, volume::TransferFunction tf,
                     RayCastOptions options)
    : volume_(vol), tf_(std::move(tf)), options_(options) {}

Rgb8 RayCaster::cast(const Ray& ray) const {
  double t0 = 0.0, t1 = 0.0;
  if (!intersect_unit_cube(ray, t0, t1)) return options_.background;

  double r = 0.0, g = 0.0, b = 0.0, alpha = 0.0;
  const double step = options_.step;
  for (double t = t0 + step * 0.5; t < t1; t += step) {
    const Vec3 p = ray.at(t);
    const double value = volume_.sample(p);
    volume::Rgba c = tf_.evaluate(value);
    if (c.a <= 0.0) continue;

    double shade = 1.0;
    if (options_.shading) {
      const Vec3 grad = volume_.gradient(p);
      const double mag = grad.norm();
      if (mag > 1e-9) {
        // Headlight: light arrives along the viewing direction.
        const double ndotl = std::abs(grad.dot(ray.direction)) / mag;
        shade = kAmbient + kDiffuse * ndotl;
      } else {
        shade = kAmbient + kDiffuse * 0.5;
      }
    }

    // Opacity correction for the chosen step size (reference step 0.01).
    const double corrected = 1.0 - std::pow(1.0 - std::min(c.a, 0.999), step / 0.01);
    const double weight = (1.0 - alpha) * corrected;
    r += weight * c.r * shade;
    g += weight * c.g * shade;
    b += weight * c.b * shade;
    alpha += weight;
    if (alpha >= kEarlyTermination) break;
  }

  // Composite over the background.
  const double bg = 1.0 - alpha;
  auto to_byte = [](double v) {
    return static_cast<std::uint8_t>(std::clamp(v, 0.0, 1.0) * 255.0 + 0.5);
  };
  return {
      to_byte(r + bg * options_.background.r / 255.0),
      to_byte(g + bg * options_.background.g / 255.0),
      to_byte(b + bg * options_.background.b / 255.0),
  };
}

ImageRGB8 RayCaster::render(const Camera& camera, std::size_t width, std::size_t height,
                            ThreadPool* pool) const {
  ImageRGB8 image(width, height);
  auto render_row = [&](std::size_t y) {
    for (std::size_t x = 0; x < width; ++x) {
      image.set(x, y, cast(camera.pixel_ray(x, y, width, height)));
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(0, height, render_row);
  } else {
    for (std::size_t y = 0; y < height; ++y) render_row(y);
  }
  return image;
}

}  // namespace lon::render
