// Unit tests for the light-field core: spherical lattice geometry, view-set
// partitioning/prefetch policy, serialization/compression, builders and the
// lookup-based novel-view renderer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "lightfield/builder.hpp"
#include "lightfield/lattice.hpp"
#include "lightfield/procedural.hpp"
#include "lightfield/renderer.hpp"
#include "lightfield/viewset.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "volume/synthetic.hpp"

namespace lon::lightfield {
namespace {

LatticeConfig small_config(std::size_t resolution = 32) {
  LatticeConfig cfg;
  cfg.angular_step_deg = 15.0;  // 12 x 24 lattice
  cfg.view_set_span = 3;        // 4 x 8 view sets
  cfg.view_resolution = resolution;
  return cfg;
}

// --- lattice geometry -------------------------------------------------------------

TEST(Lattice, PaperConfigurationDimensions) {
  const SphericalLattice lattice(LatticeConfig::paper());
  // "we use sample views at an interval of 2.5 degrees, requiring a 72 x 144
  // camera lattice ... there are 12 x 24 view sets in the whole database."
  EXPECT_EQ(lattice.rows(), 72u);
  EXPECT_EQ(lattice.cols(), 144u);
  EXPECT_EQ(lattice.view_set_rows(), 12u);
  EXPECT_EQ(lattice.view_set_cols(), 24u);
  EXPECT_EQ(lattice.view_set_count(), 288u);
  EXPECT_EQ(lattice.sample_count(), 72u * 144u);
}

TEST(Lattice, RejectsBadConfigs) {
  LatticeConfig cfg = small_config();
  cfg.inner_radius = 1.0;  // does not contain the unit cube
  EXPECT_THROW(SphericalLattice{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.outer_radius = cfg.inner_radius - 0.1;
  EXPECT_THROW(SphericalLattice{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.view_set_span = 5;  // does not divide 12/24
  EXPECT_THROW(SphericalLattice{cfg}, std::invalid_argument);
}

TEST(Lattice, CameraPositionsLieOnOuterSphere) {
  const SphericalLattice lattice(small_config());
  for (std::size_t row = 0; row < lattice.rows(); row += 3) {
    for (std::size_t col = 0; col < lattice.cols(); col += 5) {
      EXPECT_NEAR(lattice.camera_position(row, col).norm(),
                  lattice.config().outer_radius, 1e-9);
    }
  }
}

TEST(Lattice, NearestSampleRoundTripsSampleDirections) {
  const SphericalLattice lattice(small_config());
  for (std::size_t row = 0; row < lattice.rows(); ++row) {
    for (std::size_t col = 0; col < lattice.cols(); ++col) {
      const auto [r, c] = lattice.nearest_sample(lattice.sample_direction(row, col));
      EXPECT_EQ(r, row);
      EXPECT_EQ(c, col);
    }
  }
}

TEST(Lattice, PhiWrapsAround) {
  const SphericalLattice lattice(small_config());
  // A direction just below 2*pi in phi is nearest to column 0.
  const Spherical dir{kPi / 2, 2.0 * kPi - 0.001};
  const auto [row, col] = lattice.nearest_sample(dir);
  (void)row;
  EXPECT_EQ(col, 0u);
}

TEST(Lattice, ViewSetPartitioning) {
  const SphericalLattice lattice(small_config());
  EXPECT_EQ(lattice.view_set_of(0u, 0u), (ViewSetId{0, 0}));
  EXPECT_EQ(lattice.view_set_of(2u, 2u), (ViewSetId{0, 0}));
  EXPECT_EQ(lattice.view_set_of(3u, 2u), (ViewSetId{1, 0}));
  EXPECT_EQ(lattice.view_set_of(11u, 23u), (ViewSetId{3, 7}));
}

TEST(Lattice, ViewSetOfDirectionMatchesNearestSample) {
  const SphericalLattice lattice(small_config());
  const Spherical dir{1.1, 2.2};
  const auto [row, col] = lattice.nearest_sample(dir);
  EXPECT_EQ(lattice.view_set_of(dir), lattice.view_set_of(row, col));
}

TEST(Lattice, QuadrantsCoverAllFour) {
  const SphericalLattice lattice(small_config());
  std::set<int> seen;
  // Sweep a fine grid of directions within one view set.
  for (double dt = 0.01; dt < 0.75; dt += 0.1) {
    for (double dp = 0.01; dp < 0.75; dp += 0.1) {
      const Spherical dir{dt, dp};
      const int q = lattice.quadrant_of(dir);
      EXPECT_GE(q, 0);
      EXPECT_LE(q, 3);
      seen.insert(q);
    }
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Lattice, NeighborsInteriorCountsEight) {
  const SphericalLattice lattice(small_config());
  EXPECT_EQ(lattice.neighbors({1, 3}).size(), 8u);
  // Polar rows lose the out-of-range theta side.
  EXPECT_EQ(lattice.neighbors({0, 3}).size(), 5u);
  EXPECT_EQ(lattice.neighbors({3, 3}).size(), 5u);
}

TEST(Lattice, NeighborsWrapInPhi) {
  const SphericalLattice lattice(small_config());
  const auto n = lattice.neighbors({1, 0});
  bool found_wrap = false;
  for (const auto& id : n) {
    if (id.col == static_cast<int>(lattice.view_set_cols()) - 1) found_wrap = true;
  }
  EXPECT_TRUE(found_wrap);
}

TEST(Lattice, PrefetchTargetsMatchQuadrantCorner) {
  // Paper figure 4: cursor in a quadrant -> prefetch the 3 view sets
  // adjacent to that corner.
  const SphericalLattice lattice(small_config());
  const ViewSetId center{1, 3};
  const auto targets = lattice.prefetch_targets(center, /*quadrant=*/0);  // up-left
  ASSERT_EQ(targets.size(), 3u);
  EXPECT_EQ(targets[0], (ViewSetId{0, 3}));
  EXPECT_EQ(targets[1], (ViewSetId{1, 2}));
  EXPECT_EQ(targets[2], (ViewSetId{0, 2}));

  const auto down_right = lattice.prefetch_targets(center, 3);
  ASSERT_EQ(down_right.size(), 3u);
  EXPECT_EQ(down_right[0], (ViewSetId{2, 3}));
  EXPECT_EQ(down_right[1], (ViewSetId{1, 4}));
  EXPECT_EQ(down_right[2], (ViewSetId{2, 4}));
}

TEST(Lattice, PrefetchTargetsClampAtPoles) {
  const SphericalLattice lattice(small_config());
  const auto targets = lattice.prefetch_targets({0, 3}, /*quadrant=*/0);
  EXPECT_EQ(targets.size(), 1u);  // only the phi neighbour survives
}

TEST(Lattice, QuadrantAgreesWithContainingSetAtPhiSeam) {
  // Regression: a cursor just left of the phi wrap seam rounds into view-set
  // col 0, so its quadrant must say "left half" (towards the last column),
  // not "right half" of the set it is no longer in. The old fmod-based
  // computation got this backwards and prefetched away from the cursor.
  const SphericalLattice lattice(small_config());
  const double step = deg2rad(lattice.config().angular_step_deg);
  const Spherical dir{1.2, 2.0 * kPi - 0.01 * step};
  const ViewSetId vs = lattice.view_set_of(dir);
  ASSERT_EQ(vs.col, 0);
  const int q = lattice.quadrant_of(dir);
  EXPECT_EQ(q & 2, 0) << "cursor left of the seam must be in the left half";
  bool towards_wrap = false;
  for (const auto& t : lattice.prefetch_targets(vs, q)) {
    if (t.col == static_cast<int>(lattice.view_set_cols()) - 1) towards_wrap = true;
  }
  EXPECT_TRUE(towards_wrap);
}

TEST(Lattice, QuadrantAgreesWithContainingSetAtRowBoundary) {
  // Regression: fr = 2.6 rounds to lattice row 3, i.e. view-set row 1, but
  // the raw fmod said "lower half" of row 0 — prefetching towards row 2
  // while the cursor sits at the *top* edge of row 1.
  const SphericalLattice lattice(small_config());
  const double step = deg2rad(lattice.config().angular_step_deg);
  const Spherical dir{(2.6 + 0.5) * step, 1.0};
  const ViewSetId vs = lattice.view_set_of(dir);
  ASSERT_EQ(vs.row, 1);
  const int q = lattice.quadrant_of(dir);
  EXPECT_EQ(q & 1, 0) << "cursor at the top edge of its set is in the upper half";
  bool towards_row0 = false;
  for (const auto& t : lattice.prefetch_targets(vs, q)) {
    if (t.row == 0) towards_row0 = true;
  }
  EXPECT_TRUE(towards_row0);
}

TEST(Lattice, QuadrantPointsTowardNearerNeighborEverywhere) {
  // Property: the quadrant is a *grid* policy (paper figure 4 is drawn in
  // lattice coordinates), so along each axis the quadrant's neighbour must be
  // at least as close to the cursor as the opposite-side neighbour. Sweeps
  // across every set boundary including the wrap seam.
  const auto wrap = [](double a) {
    a = std::fmod(a + kPi, 2.0 * kPi);
    if (a < 0.0) a += 2.0 * kPi;
    return std::abs(a - kPi);
  };
  const SphericalLattice lattice(small_config());
  const int cols = static_cast<int>(lattice.view_set_cols());
  const int rows = static_cast<int>(lattice.view_set_rows());
  for (double theta : {0.7, 1.2, 1.75, 2.3}) {
    for (double phi = 0.001; phi < 2.0 * kPi; phi += 0.037) {
      const Spherical dir{theta, phi};
      const ViewSetId vs = lattice.view_set_of(dir);
      const int q = lattice.quadrant_of(dir);
      const int dc = (q & 2) ? 1 : -1;
      const ViewSetId phi_near{vs.row, ((vs.col + dc) % cols + cols) % cols};
      const ViewSetId phi_far{vs.row, ((vs.col - dc) % cols + cols) % cols};
      EXPECT_LE(wrap(dir.phi - lattice.view_set_center(phi_near).phi),
                wrap(dir.phi - lattice.view_set_center(phi_far).phi) + 1e-9)
          << "theta=" << theta << " phi=" << phi;
      const int dr = (q & 1) ? 1 : -1;
      if (vs.row + dr >= 0 && vs.row + dr < rows && vs.row - dr >= 0 &&
          vs.row - dr < rows) {
        EXPECT_LE(
            std::abs(dir.theta - lattice.view_set_center({vs.row + dr, vs.col}).theta),
            std::abs(dir.theta - lattice.view_set_center({vs.row - dr, vs.col}).theta) +
                1e-9)
            << "theta=" << theta << " phi=" << phi;
      }
    }
  }
}

TEST(Lattice, QuadrantAtPolesStaysTowardEquator) {
  const SphericalLattice lattice(small_config());
  // Above the first sample row the cursor is in the upper half of set row 0;
  // prefetch clamps to the lone phi neighbour rather than pointing off-grid.
  const Spherical near_north{0.01, 1.0};
  const int qn = lattice.quadrant_of(near_north);
  EXPECT_EQ(qn & 1, 0);
  EXPECT_EQ(lattice.prefetch_targets(lattice.view_set_of(near_north), qn).size(), 1u);
  const Spherical near_south{kPi - 0.01, 1.0};
  const int qs = lattice.quadrant_of(near_south);
  EXPECT_EQ(qs & 1, 1);
  EXPECT_EQ(lattice.prefetch_targets(lattice.view_set_of(near_south), qs).size(), 1u);
}

TEST(Lattice, ViewSetDistanceIsMetricLike) {
  const SphericalLattice lattice(small_config());
  EXPECT_NEAR(lattice.view_set_distance({1, 3}, {1, 3}), 0.0, 1e-12);
  const double near_d = lattice.view_set_distance({1, 3}, {1, 4});
  const double far_d = lattice.view_set_distance({1, 3}, {2, 7});
  EXPECT_GT(far_d, near_d);
  EXPECT_NEAR(lattice.view_set_distance({1, 3}, {2, 7}),
              lattice.view_set_distance({2, 7}, {1, 3}), 1e-12);
}

TEST(Lattice, AllViewSetsEnumerates) {
  const SphericalLattice lattice(small_config());
  const auto all = lattice.all_view_sets();
  EXPECT_EQ(all.size(), lattice.view_set_count());
  for (const auto& id : all) EXPECT_TRUE(lattice.valid(id));
}

TEST(ViewSetIdTest, KeyFormat) {
  EXPECT_EQ((ViewSetId{3, 17}).key(), "vs3_17");
  EXPECT_EQ((ViewSetId{0, 0}).key(), "vs0_0");
}

// --- view set serialization ---------------------------------------------------------

TEST(ViewSetData, SizesMatchPaperArithmetic) {
  // 6x6 views at 200x200x3 = 4.32 MB per view set; 288 sets ~ 1.24 GB raw,
  // squarely in the paper's "1.5 GB at 200x200" regime.
  const ViewSet vs({0, 0}, 6, 200);
  EXPECT_EQ(vs.pixel_bytes(), 36ull * 200 * 200 * 3);
  const SphericalLattice lattice(LatticeConfig::paper(200));
  const double total_gb = static_cast<double>(vs.pixel_bytes()) *
                          static_cast<double>(lattice.view_set_count()) / 1e9;
  EXPECT_GT(total_gb, 1.0);
  EXPECT_LT(total_gb, 1.6);
}

TEST(ViewSetData, SerializeRoundTrip) {
  ViewSet vs({2, 5}, 2, 16);
  Rng rng(5);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      for (auto& b : vs.view(r, c).bytes()) {
        b = static_cast<std::uint8_t>(rng.below(256));
      }
    }
  }
  const ViewSet back = ViewSet::deserialize(vs.serialize());
  EXPECT_EQ(back, vs);
}

TEST(ViewSetData, CompressRoundTrip) {
  ProceduralSource source(small_config(24));
  const ViewSet vs = source.build({1, 2});
  const Bytes packed = vs.compress();
  EXPECT_LT(packed.size(), vs.pixel_bytes());
  const ViewSet back = ViewSet::decompress(packed);
  EXPECT_EQ(back, vs);
}

TEST(ViewSetData, InterViewModeRoundTrips) {
  ProceduralSource source(small_config(32));
  const ViewSet vs = source.build({1, 2});
  const Bytes packed = vs.compress(SerializeMode::kInterView);
  EXPECT_EQ(ViewSet::decompress(packed), vs);
}

TEST(ViewSetData, InterViewModeExploitsViewCoherence) {
  // The limiting case of view coherence: all views in the block identical.
  // Views must be bigger than the LZ77 window (32 KiB), else intra coding
  // already reaches the previous view through ordinary string matching; at
  // 128x128x3 = 48 KiB/view the coherence is only reachable by difference
  // coding, which must then win decisively.
  ProceduralSource source(small_config(128));
  const render::ImageRGB8 shared = source.render_sample(4, 7);
  ViewSet vs({1, 2}, 3, 128);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) vs.view(r, c) = shared;
  }
  const Bytes intra = vs.compress(SerializeMode::kIntra);
  const Bytes inter = vs.compress(SerializeMode::kInterView);
  EXPECT_LT(inter.size(), intra.size() / 2);
}

TEST(ViewSetData, InterViewRoundTripsOnRandomContent) {
  // Incoherent content must still round-trip (just without the size win).
  ViewSet vs({0, 1}, 2, 16);
  Rng rng(77);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      for (auto& b : vs.view(r, c).bytes()) {
        b = static_cast<std::uint8_t>(rng.below(256));
      }
    }
  }
  EXPECT_EQ(ViewSet::decompress(vs.compress(SerializeMode::kInterView)), vs);
}

TEST(ViewSetData, DeserializeRejectsGarbage) {
  EXPECT_THROW(ViewSet::deserialize(Bytes{1, 2, 3}), DecodeError);
  ViewSet vs({0, 0}, 1, 4);
  Bytes data = vs.serialize();
  data.push_back(0);
  EXPECT_THROW(ViewSet::deserialize(data), DecodeError);
  data.resize(data.size() - 2);
  EXPECT_THROW(ViewSet::deserialize(data), DecodeError);

  // Mode bytes past kInterView, including the retired adaptive mode's 2.
  for (const std::uint8_t mode : {2, 9}) {
    Bytes bad_mode = vs.serialize();
    bad_mode[20] = mode;  // after the 5 u32 header fields
    EXPECT_THROW(ViewSet::deserialize(bad_mode), DecodeError);
  }

  // The largest shape the header may claim (64^2 views at 8192^2, about
  // 825 GB of pixels) over a short body: rejected before any allocation.
  ByteWriter forged;
  forged.u32(0x4c465653);  // "LFVS"
  forged.u32(0);
  forged.u32(0);
  forged.u32(64);
  forged.u32(8192);
  forged.u8(static_cast<std::uint8_t>(SerializeMode::kIntra));
  forged.raw(Bytes(64, 0));
  EXPECT_THROW(ViewSet::deserialize(forged.take()), DecodeError);

  // A container under the retired chunked magic is not decoded.
  Bytes chunked = vs.compress();
  chunked[3] = 'C';  // "LFZ1" -> "LFZC"
  EXPECT_THROW(ViewSet::decompress(chunked), DecodeError);
}

TEST(ViewSetData, BlankIsOneSharedBlackSetPerShape) {
  const std::shared_ptr<const ViewSet> blank = ViewSet::blank(3, 16);
  ASSERT_NE(blank, nullptr);
  EXPECT_EQ(blank->span(), 3);
  EXPECT_EQ(blank->resolution(), 16u);
  EXPECT_EQ(blank->view_count(), 9u);
  EXPECT_EQ(blank->pixel_bytes(), ViewSet({2, 5}, 3, 16).pixel_bytes());
  for (int row = 0; row < 3; ++row) {
    for (int col = 0; col < 3; ++col) {
      const Bytes& pixels = blank->view(row, col).bytes();
      EXPECT_EQ(pixels.size(), 16u * 16u * 3u);
      EXPECT_TRUE(std::all_of(pixels.begin(), pixels.end(), [](auto b) { return b == 0; }));
    }
  }
  // While a holder lives, every caller gets the same set.
  EXPECT_EQ(ViewSet::blank(3, 16), blank);
  // Another shape is another set.
  EXPECT_NE(ViewSet::blank(3, 8), blank);
  EXPECT_NE(ViewSet::blank(2, 16), blank);
  // The cache does not keep a set alive: its last holder frees it.
  const std::weak_ptr<const ViewSet> released = ViewSet::blank(2, 8);
  EXPECT_TRUE(released.expired());
}

TEST(ViewSetData, ViewIndexBoundsChecked) {
  const ViewSet vs({0, 0}, 2, 4);
  EXPECT_THROW((void)vs.view(2, 0), std::out_of_range);
  EXPECT_THROW((void)vs.view(0, -1), std::out_of_range);
}

// --- builders ------------------------------------------------------------------------

TEST(Builders, ProceduralIsDeterministic) {
  ProceduralSource a(small_config(16)), b(small_config(16));
  EXPECT_EQ(a.build({1, 1}), b.build({1, 1}));
}

TEST(Builders, ProceduralNeighborViewsAreCoherent) {
  // Adjacent sample views must look similar (view coherence is the basis of
  // the view-set design), while distant views must differ.
  ProceduralSource source(small_config(32));
  const auto base = source.render_sample(5, 5);
  const auto near = source.render_sample(5, 6);
  const auto far = source.render_sample(10, 17);
  EXPECT_LT(base.mean_abs_diff(near), base.mean_abs_diff(far));
  EXPECT_GT(base.mean_abs_diff(far), 2.0);
}

TEST(Builders, ProceduralBytesArePinned) {
  // Reference values for the synthesis constants (seed, blob count, contrast,
  // dither) and the three RNG draws burned per blob, and for the lfz matcher's
  // constants: changing any of them moves every published size and digest.
  ProceduralSource source(small_config(16));
  const ViewSet vs = source.build({1, 2});
  EXPECT_EQ(crc32(vs.serialize()), 0x9c488186u);
  const Bytes packed = vs.compress();
  EXPECT_EQ(packed.size(), 4064u);
  EXPECT_EQ(crc32(packed), 0x8506d43fu);
}

TEST(Builders, ProceduralCompressionRatioInPaperRange) {
  ProceduralSource source(small_config(128));
  const ViewSet vs = source.build({1, 2});
  const double ratio = static_cast<double>(vs.pixel_bytes()) /
                       static_cast<double>(vs.compress().size());
  // "we achieved 5 to 7 times compression rates" — allow generous slack.
  EXPECT_GT(ratio, 3.5);
  EXPECT_LT(ratio, 14.0);
}

TEST(Builders, RaycastBuilderProducesNonEmptyViews) {
  const auto vol = volume::make_neghip_like(16, 3);
  LatticeConfig cfg = small_config(24);
  render::RayCastOptions opts;
  opts.step = 0.05;
  RaycastBuilder builder(vol, volume::TransferFunction::neghip_preset(), cfg, opts, 2);
  const ViewSet vs = builder.build({1, 2});
  // Views contain actual imagery.
  std::uint64_t total = 0;
  for (const auto byte : vs.view(1, 1).bytes()) total += byte;
  EXPECT_GT(total, 0u);
  EXPECT_THROW((void)builder.build({99, 0}), std::out_of_range);
}

TEST(Builders, RaycastViewsShowParallax) {
  const auto vol = volume::make_neghip_like(16, 3);
  LatticeConfig cfg = small_config(24);
  render::RayCastOptions opts;
  opts.step = 0.05;
  RaycastBuilder builder(vol, volume::TransferFunction::neghip_preset(), cfg, opts, 2);
  const auto a = builder.render_sample(4, 0);
  const auto b = builder.render_sample(4, 12);  // opposite side
  EXPECT_GT(a.mean_abs_diff(b), 0.5);
}

// --- renderer ---------------------------------------------------------------------------

class RendererTest : public ::testing::Test {
 protected:
  RendererTest() : source_(small_config(32)), renderer_(small_config(32)) {}

  ProceduralSource source_;
  Renderer renderer_;
};

TEST_F(RendererTest, CannotRenderWithoutViewSets) {
  const Spherical dir{1.0, 1.0};
  EXPECT_FALSE(renderer_.can_render(dir));
  EXPECT_THROW((void)renderer_.render(dir, 32), std::runtime_error);
}

TEST_F(RendererTest, RendersAtSampleDirectionReproducesSampleView) {
  const auto& lattice = source_.lattice();
  renderer_.add_view_set(source_.build({1, 2}));
  // Pick a sample in the interior of view set (1,2): lattice row 4, col 7.
  const Spherical dir = lattice.sample_direction(4, 7);
  ASSERT_TRUE(renderer_.can_render(dir));
  const auto synthesized = renderer_.render(dir, 32);
  const auto reference = source_.render_sample(4, 7);
  EXPECT_LT(synthesized.mean_abs_diff(reference), 1.0);
}

TEST_F(RendererTest, InterpolatesBetweenSamples) {
  const auto& lattice = source_.lattice();
  renderer_.add_view_set(source_.build({1, 2}));
  const Spherical a = lattice.sample_direction(4, 7);
  const Spherical b = lattice.sample_direction(4, 8);
  const Spherical mid{a.theta, (a.phi + b.phi) / 2.0};
  ASSERT_TRUE(renderer_.can_render(mid));
  const auto img_mid = renderer_.render(mid, 32);
  const auto img_a = renderer_.render(a, 32);
  const auto img_b = renderer_.render(b, 32);
  // The interpolated view sits between the two samples.
  EXPECT_LT(img_mid.mean_abs_diff(img_a), img_b.mean_abs_diff(img_a));
  EXPECT_LT(img_mid.mean_abs_diff(img_b), img_a.mean_abs_diff(img_b));
}

TEST_F(RendererTest, EdgeOfViewSetNeedsNeighbor) {
  const auto& lattice = source_.lattice();
  renderer_.add_view_set(source_.build({1, 2}));
  // Between the last column of set (1,2) and the first of (1,3).
  const Spherical left = lattice.sample_direction(4, 8);
  const Spherical right = lattice.sample_direction(4, 9);
  const Spherical between{left.theta, (left.phi + right.phi) / 2.0};
  EXPECT_FALSE(renderer_.can_render(between));
  renderer_.add_view_set(source_.build({1, 3}));
  EXPECT_TRUE(renderer_.can_render(between));
  (void)renderer_.render(between, 32);
}

TEST_F(RendererTest, UpscalingAndZoomWork) {
  renderer_.add_view_set(source_.build({1, 2}));
  const Spherical dir = source_.lattice().sample_direction(4, 7);
  const auto normal = renderer_.render(dir, 64);
  const auto zoomed = renderer_.render(dir, 64, 2.0);
  EXPECT_EQ(normal.width(), 64u);
  EXPECT_GT(normal.mean_abs_diff(zoomed), 0.5);  // zoom changes the image
}

TEST_F(RendererTest, OneSharedSetServesSeveralIds) {
  const auto shared = std::make_shared<const ViewSet>(source_.build({1, 3}));
  renderer_.add_view_set({1, 3}, shared);
  renderer_.add_view_set({1, 2}, shared);
  EXPECT_EQ(renderer_.view_set({1, 2}), shared.get());
  EXPECT_EQ(renderer_.view_set({1, 3}), shared.get());
  EXPECT_EQ(renderer_.view_set({0, 0}), nullptr);

  // Dropping one id leaves the set renderable under the other.
  EXPECT_TRUE(renderer_.remove_view_set({1, 3}));
  const auto& lattice = source_.lattice();
  EXPECT_FALSE(renderer_.can_render(lattice.sample_direction(4, 10)));
  const Spherical a = lattice.sample_direction(4, 7);
  const Spherical b = lattice.sample_direction(4, 8);
  const Spherical dir{a.theta, (a.phi + b.phi) / 2.0};
  ASSERT_TRUE(renderer_.can_render(dir));

  // The same pixels added by value under {1, 2} give the same frame.
  ViewSet relabeled({1, 2}, 3, 32);
  for (int row = 0; row < 3; ++row) {
    for (int col = 0; col < 3; ++col) relabeled.view(row, col) = shared->view(row, col);
  }
  Renderer by_value(small_config(32));
  by_value.add_view_set(std::move(relabeled));
  const render::ImageRGB8 frame = renderer_.render(dir, 32);
  EXPECT_EQ(frame, by_value.render(dir, 32));
  EXPECT_TRUE(std::any_of(frame.bytes().begin(), frame.bytes().end(),
                          [](auto byte) { return byte != 0; }));
}

TEST_F(RendererTest, RemoveViewSetEvicts) {
  renderer_.add_view_set(source_.build({1, 2}));
  EXPECT_EQ(renderer_.loaded_count(), 1u);
  EXPECT_TRUE(renderer_.remove_view_set({1, 2}));
  EXPECT_FALSE(renderer_.remove_view_set({1, 2}));
  EXPECT_EQ(renderer_.loaded_count(), 0u);
}

}  // namespace
}  // namespace lon::lightfield
