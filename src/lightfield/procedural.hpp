// Procedural view-set source.
//
// Large streaming experiments (cases 1-3, figures 8-12) move hundreds of
// view sets whose *pixel content* never matters — only their size and
// compressibility do. ProceduralSource synthesizes smooth, view-dependent
// imagery (a few blobs whose screen positions rotate with the camera angles)
// directly, skipping ray casting, but still pushes the pixels through the
// real filter + lfz pipeline, so compressed sizes, ratios and decompression
// cost are the genuine article. Deterministic per id.
#pragma once

#include <cstdint>

#include "lightfield/builder.hpp"

namespace lon::lightfield {

class ProceduralSource final : public ViewSetSource {
 public:
  /// Seed of the dataset's blob parameters and per-view dither.
  static constexpr std::uint64_t kSeed = 2003;
  static constexpr int kBlobs = 6;  ///< feature count per view
  static constexpr double kContrast = 0.9;
  /// Per-pixel dither amplitude (fraction of full scale). About half a gray
  /// level keeps the lfz compression ratio in the paper's 5-7x band across
  /// resolutions (noiseless synthetic imagery is unrealistically smooth at
  /// 500^2+).
  static constexpr double kNoise = 0.002;

  explicit ProceduralSource(const LatticeConfig& config);

  [[nodiscard]] const SphericalLattice& lattice() const override { return lattice_; }

  [[nodiscard]] ViewSet build(const ViewSetId& id) override;

  /// One synthesized sample view (lattice coordinates).
  [[nodiscard]] render::ImageRGB8 render_sample(std::size_t row, std::size_t col) const;

 private:
  SphericalLattice lattice_;
};

}  // namespace lon::lightfield
