// Light-field database construction (the server-side generator).
//
// ViewSetSource is the interface the streaming layer pulls view sets
// through. RaycastBuilder is the real generator: it drives the parallel ray
// caster over the camera lattice exactly as the paper's 32-processor
// cluster generator does. (ProceduralSource in procedural.hpp is the cheap
// stand-in used by large streaming experiments, where only realistic sizes
// and compressibility matter.)
#pragma once

#include <memory>

#include "lightfield/lattice.hpp"
#include "lightfield/viewset.hpp"
#include "render/raycaster.hpp"
#include "util/thread_pool.hpp"
#include "volume/transfer.hpp"
#include "volume/volume.hpp"

namespace lon::lightfield {

/// Anything that can produce view sets for a lattice.
class ViewSetSource {
 public:
  virtual ~ViewSetSource() = default;

  [[nodiscard]] virtual const SphericalLattice& lattice() const = 0;

  /// Builds the (uncompressed) view set for `id`.
  [[nodiscard]] virtual ViewSet build(const ViewSetId& id) = 0;

  /// Builds and compresses in one step, as plain lfz (LFZ1).
  [[nodiscard]] Bytes build_compressed(const ViewSetId& id) { return build(id).compress(); }
};

/// Renders sample views of a volume with the ray caster (multi-threaded).
class RaycastBuilder final : public ViewSetSource {
 public:
  RaycastBuilder(const volume::ScalarVolume& volume, volume::TransferFunction tf,
                 const LatticeConfig& config, render::RayCastOptions render_options = {},
                 std::size_t threads = 0);

  [[nodiscard]] const SphericalLattice& lattice() const override { return lattice_; }

  [[nodiscard]] ViewSet build(const ViewSetId& id) override;

  /// Renders a single sample view (lattice coordinates).
  [[nodiscard]] render::ImageRGB8 render_sample(std::size_t row, std::size_t col);

 private:
  SphericalLattice lattice_;
  render::RayCaster caster_;
  ThreadPool pool_;
};

}  // namespace lon::lightfield
