// Client-side light-field rendering: novel views by table lookup.
//
// "The rendering process of a light field database is simply a sequence of
// table lookup operations, enabling the use of client devices ... that lack
// even graphics acceleration." (paper section 1)
//
// Given a view direction, the renderer locates the four surrounding lattice
// samples inside the loaded view set(s) and blends them bilinearly in the
// angular coordinates; each sample view is in turn sampled bilinearly in
// image space — quadrilinear interpolation in the 4-D ray space. No volume
// data and no ray marching are touched: pure lookups, fast enough for
// >30 fps on any CPU.
#pragma once

#include <memory>
#include <unordered_map>

#include "lightfield/lattice.hpp"
#include "lightfield/viewset.hpp"
#include "util/thread_pool.hpp"

namespace lon::lightfield {

class Renderer {
 public:
  explicit Renderer(const LatticeConfig& config);

  [[nodiscard]] const SphericalLattice& lattice() const { return lattice_; }

  /// Makes a view set available for rendering under `id` (the client keeps
  /// the current set plus optionally a few neighbours). The set is shared,
  /// not copied: one set may be installed under several ids, here and in
  /// other renderers. The set's own id() is not consulted.
  void add_view_set(const ViewSetId& id, std::shared_ptr<const ViewSet> vs);
  /// Installs `vs` under its own id.
  void add_view_set(ViewSet vs);

  /// Drops a cached view set; returns false if absent.
  bool remove_view_set(const ViewSetId& id);

  [[nodiscard]] std::size_t loaded_count() const { return loaded_.size(); }
  [[nodiscard]] bool has_view_set(const ViewSetId& id) const {
    return loaded_.contains(id);
  }
  /// The set installed under `id`, or nullptr.
  [[nodiscard]] const ViewSet* view_set(const ViewSetId& id) const;

  /// True when every lattice sample needed to synthesize `dir` is loaded.
  [[nodiscard]] bool can_render(const Spherical& dir) const;

  /// Synthesizes the novel view for direction `dir` at out_res x out_res,
  /// with an optional digital zoom (1.0 = the sample-view framing).
  /// Requires can_render(dir). With a pool, output rows are interpolated in
  /// parallel (each row writes a disjoint slice — pixels are identical to
  /// the serial path).
  [[nodiscard]] render::ImageRGB8 render(const Spherical& dir, std::size_t out_res,
                                         double zoom = 1.0,
                                         ThreadPool* pool = nullptr) const;

 private:
  struct Corner {
    const render::ImageRGB8* image = nullptr;
    double weight = 0.0;
  };

  /// The up-to-4 lattice samples surrounding `dir` with bilinear weights;
  /// returns false if any needed sample is not loaded.
  bool corners(const Spherical& dir, Corner out[4]) const;

  [[nodiscard]] const render::ImageRGB8* find_sample(long row, long col) const;

  SphericalLattice lattice_;
  std::unordered_map<ViewSetId, std::shared_ptr<const ViewSet>, ViewSetIdHash> loaded_;
};

/// Bilinear fetch from an image at continuous pixel coordinates (clamped).
render::Rgb8 bilinear_fetch(const render::ImageRGB8& image, double x, double y);

}  // namespace lon::lightfield
