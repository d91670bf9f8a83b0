#include "lightfield/renderer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lon::lightfield {

render::Rgb8 bilinear_fetch(const render::ImageRGB8& image, double x, double y) {
  const double fx = std::clamp(x, 0.0, static_cast<double>(image.width()) - 1.0);
  const double fy = std::clamp(y, 0.0, static_cast<double>(image.height()) - 1.0);
  const auto x0 = static_cast<std::size_t>(fx);
  const auto y0 = static_cast<std::size_t>(fy);
  const std::size_t x1 = std::min(x0 + 1, image.width() - 1);
  const std::size_t y1 = std::min(y0 + 1, image.height() - 1);
  const double tx = fx - static_cast<double>(x0);
  const double ty = fy - static_cast<double>(y0);

  const render::Rgb8 c00 = image.at(x0, y0), c10 = image.at(x1, y0);
  const render::Rgb8 c01 = image.at(x0, y1), c11 = image.at(x1, y1);
  auto mix = [&](std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d) {
    const double top = a + tx * (b - a);
    const double bottom = c + tx * (d - c);
    return static_cast<std::uint8_t>(top + ty * (bottom - top) + 0.5);
  };
  return {mix(c00.r, c10.r, c01.r, c11.r), mix(c00.g, c10.g, c01.g, c11.g),
          mix(c00.b, c10.b, c01.b, c11.b)};
}

Renderer::Renderer(const LatticeConfig& config) : lattice_(config) {}

void Renderer::add_view_set(const ViewSetId& id, std::shared_ptr<const ViewSet> vs) {
  if (vs == nullptr) throw std::invalid_argument("Renderer::add_view_set: null view set");
  loaded_.insert_or_assign(id, std::move(vs));
}

void Renderer::add_view_set(ViewSet vs) {
  const ViewSetId id = vs.id();
  add_view_set(id, std::make_shared<const ViewSet>(std::move(vs)));
}

bool Renderer::remove_view_set(const ViewSetId& id) { return loaded_.erase(id) > 0; }

const ViewSet* Renderer::view_set(const ViewSetId& id) const {
  const auto it = loaded_.find(id);
  return it == loaded_.end() ? nullptr : it->second.get();
}

const render::ImageRGB8* Renderer::find_sample(long row, long col) const {
  if (row < 0 || row >= static_cast<long>(lattice_.rows())) return nullptr;
  const long cols = static_cast<long>(lattice_.cols());
  col %= cols;
  if (col < 0) col += cols;
  const int span = lattice_.config().view_set_span;
  const ViewSet* vs =
      view_set({static_cast<int>(row / span), static_cast<int>(col / span)});
  if (vs == nullptr) return nullptr;
  return &vs->view(static_cast<int>(row % span), static_cast<int>(col % span));
}

bool Renderer::corners(const Spherical& dir, Corner out[4]) const {
  const auto [fr, fc] = lattice_.lattice_coords(dir);
  // Clamp theta to the lattice interior; phi wraps in find_sample.
  const double cr = std::clamp(fr, 0.0, static_cast<double>(lattice_.rows()) - 1.0);
  const long r0 = static_cast<long>(cr);
  const long r1 = std::min<long>(r0 + 1, static_cast<long>(lattice_.rows()) - 1);
  const long c0 = static_cast<long>(fc);
  const long c1 = c0 + 1;  // wraps inside find_sample
  const double tr = cr - static_cast<double>(r0);
  const double tc = fc - static_cast<double>(c0);

  const long rows[4] = {r0, r0, r1, r1};
  const long cols[4] = {c0, c1, c0, c1};
  const double weights[4] = {(1 - tr) * (1 - tc), (1 - tr) * tc, tr * (1 - tc), tr * tc};
  for (int i = 0; i < 4; ++i) {
    out[i].weight = weights[i];
    out[i].image = nullptr;
    if (weights[i] <= 1e-12) continue;
    out[i].image = find_sample(rows[i], cols[i]);
    if (out[i].image == nullptr) return false;
  }
  return true;
}

bool Renderer::can_render(const Spherical& dir) const {
  Corner c[4];
  return corners(dir, c);
}

render::ImageRGB8 Renderer::render(const Spherical& dir, std::size_t out_res,
                                   double zoom, ThreadPool* pool) const {
  Corner corner[4];
  if (!corners(dir, corner)) {
    throw std::runtime_error("Renderer::render: required view set not loaded");
  }
  render::ImageRGB8 out(out_res, out_res);
  auto render_row = [&](std::size_t y) {
    for (std::size_t x = 0; x < out_res; ++x) {
      double acc_r = 0.0, acc_g = 0.0, acc_b = 0.0;
      for (const Corner& c : corner) {
        if (c.image == nullptr || c.weight <= 1e-12) continue;
        // Map output pixel to sample-view pixel (digital zoom about center).
        const double half = static_cast<double>(out_res) / 2.0;
        const double sx = (static_cast<double>(x) + 0.5 - half) / zoom + half;
        const double sy = (static_cast<double>(y) + 0.5 - half) / zoom + half;
        const double scale =
            static_cast<double>(c.image->width()) / static_cast<double>(out_res);
        const render::Rgb8 sample =
            bilinear_fetch(*c.image, sx * scale - 0.5, sy * scale - 0.5);
        acc_r += c.weight * sample.r;
        acc_g += c.weight * sample.g;
        acc_b += c.weight * sample.b;
      }
      out.set(x, y,
              {static_cast<std::uint8_t>(std::clamp(acc_r, 0.0, 255.0) + 0.5),
               static_cast<std::uint8_t>(std::clamp(acc_g, 0.0, 255.0) + 0.5),
               static_cast<std::uint8_t>(std::clamp(acc_b, 0.0, 255.0) + 0.5)});
    }
  };
  if (pool != nullptr && pool->size() > 1 && out_res > 1) {
    pool->parallel_for(0, out_res, render_row);
  } else {
    for (std::size_t y = 0; y < out_res; ++y) render_row(y);
  }
  return out;
}

}  // namespace lon::lightfield
