// Unit tests for scalar volumes, synthetic datasets and transfer functions.
#include <gtest/gtest.h>

#include <cmath>

#include "volume/synthetic.hpp"
#include "volume/transfer.hpp"
#include "volume/volume.hpp"

namespace lon::volume {
namespace {

TEST(ScalarVolume, IndexingIsRowMajor) {
  ScalarVolume vol(3, 4, 5);
  EXPECT_EQ(vol.voxel_count(), 60u);
  vol.at(1, 2, 3) = 7.5f;
  EXPECT_FLOAT_EQ(vol.at(1, 2, 3), 7.5f);
  EXPECT_FLOAT_EQ(vol.data()[(3 * 4 + 2) * 3 + 1], 7.5f);
}

TEST(ScalarVolume, RejectsDegenerateDims) {
  EXPECT_THROW(ScalarVolume(1, 4, 4), std::invalid_argument);
  EXPECT_THROW(ScalarVolume(4, 0, 4), std::invalid_argument);
}

TEST(ScalarVolume, SampleAtVoxelCentersIsExact) {
  ScalarVolume vol(4, 4, 4);
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::size_t j = 0; j < 4; ++j) {
      for (std::size_t i = 0; i < 4; ++i) {
        vol.at(i, j, k) = static_cast<float>(i + 10 * j + 100 * k);
      }
    }
  }
  // Voxel (i,j,k) sits at world coordinate 2*i/(n-1) - 1.
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::size_t j = 0; j < 4; ++j) {
      for (std::size_t i = 0; i < 4; ++i) {
        const Vec3 p{2.0 * static_cast<double>(i) / 3.0 - 1.0,
                     2.0 * static_cast<double>(j) / 3.0 - 1.0,
                     2.0 * static_cast<double>(k) / 3.0 - 1.0};
        EXPECT_NEAR(vol.sample(p), vol.at(i, j, k), 1e-4);
      }
    }
  }
}

TEST(ScalarVolume, SampleInterpolatesLinearly) {
  ScalarVolume vol(2, 2, 2);
  // Field f = x (in voxel space): 0 at x=0 plane, 1 at x=1 plane.
  vol.at(1, 0, 0) = vol.at(1, 1, 0) = vol.at(1, 0, 1) = vol.at(1, 1, 1) = 1.0f;
  EXPECT_NEAR(vol.sample({0.0, 0.0, 0.0}), 0.5, 1e-6);
  EXPECT_NEAR(vol.sample({-0.5, 0.3, -0.7}), 0.25, 1e-6);
}

TEST(ScalarVolume, SampleClampsOutsideCube) {
  ScalarVolume vol(2, 2, 2);
  vol.at(1, 0, 0) = 1.0f;
  EXPECT_NEAR(vol.sample({5.0, -1.0, -1.0}), 1.0, 1e-6);
  EXPECT_NEAR(vol.sample({-5.0, -1.0, -1.0}), 0.0, 1e-6);
}

TEST(ScalarVolume, GradientPointsUphill) {
  ScalarVolume vol(16, 16, 16);
  for (std::size_t k = 0; k < 16; ++k) {
    for (std::size_t j = 0; j < 16; ++j) {
      for (std::size_t i = 0; i < 16; ++i) {
        vol.at(i, j, k) = static_cast<float>(i);  // increases with +x
      }
    }
  }
  const Vec3 g = vol.gradient({0.0, 0.0, 0.0});
  EXPECT_GT(g.x, 0.0);
  EXPECT_NEAR(g.y, 0.0, 1e-6);
  EXPECT_NEAR(g.z, 0.0, 1e-6);
}

TEST(ScalarVolume, NormalizeMapsToUnitRange) {
  ScalarVolume vol(2, 2, 2);
  vol.at(0, 0, 0) = -3.0f;
  vol.at(1, 1, 1) = 5.0f;
  vol.normalize();
  EXPECT_FLOAT_EQ(vol.min_value(), 0.0f);
  EXPECT_FLOAT_EQ(vol.max_value(), 1.0f);
  // Constant volume stays untouched.
  ScalarVolume flat(2, 2, 2);
  flat.normalize();
  EXPECT_FLOAT_EQ(flat.max_value(), 0.0f);
}

// --- synthetic -----------------------------------------------------------------

TEST(Synthetic, NegHipLikeIsDeterministicPerSeed) {
  const auto a = make_neghip_like(16, 42);
  const auto b = make_neghip_like(16, 42);
  const auto c = make_neghip_like(16, 43);
  EXPECT_EQ(a.data(), b.data());
  EXPECT_NE(a.data(), c.data());
}

TEST(Synthetic, NegHipLikeIsNormalizedAndStructured) {
  const auto vol = make_neghip_like(32);
  EXPECT_FLOAT_EQ(vol.min_value(), 0.0f);
  EXPECT_FLOAT_EQ(vol.max_value(), 1.0f);
  // A potential field has intermediate values everywhere, not a binary mask.
  std::size_t mid = 0;
  for (const float v : vol.data()) mid += (v > 0.2f && v < 0.8f) ? 1 : 0;
  EXPECT_GT(mid, vol.voxel_count() / 2);
}

TEST(Synthetic, DefaultSizeMatchesPaper) {
  const auto vol = make_neghip_like();
  EXPECT_EQ(vol.nx(), 64u);
  EXPECT_EQ(vol.ny(), 64u);
  EXPECT_EQ(vol.nz(), 64u);
}

// --- transfer functions -----------------------------------------------------------

TEST(Transfer, EmptyEvaluatesToZero) {
  const TransferFunction tf;
  const Rgba c = tf.evaluate(0.5);
  EXPECT_EQ(c.a, 0.0);
}

TEST(Transfer, InterpolatesBetweenControlPoints) {
  TransferFunction tf;
  tf.add(0.0, {0, 0, 0, 0});
  tf.add(1.0, {1, 0.5, 0, 1});
  const Rgba mid = tf.evaluate(0.5);
  EXPECT_NEAR(mid.r, 0.5, 1e-12);
  EXPECT_NEAR(mid.g, 0.25, 1e-12);
  EXPECT_NEAR(mid.a, 0.5, 1e-12);
}

TEST(Transfer, ClampsOutsideControlRange) {
  TransferFunction tf;
  tf.add(0.3, {0.1, 0.1, 0.1, 0.2});
  tf.add(0.7, {0.9, 0.9, 0.9, 0.8});
  EXPECT_NEAR(tf.evaluate(0.0).a, 0.2, 1e-12);
  EXPECT_NEAR(tf.evaluate(1.0).a, 0.8, 1e-12);
}

TEST(Transfer, PointsStaySortedRegardlessOfInsertionOrder) {
  TransferFunction tf;
  tf.add(0.9, {0, 0, 0, 0.9});
  tf.add(0.1, {0, 0, 0, 0.1});
  tf.add(0.5, {0, 0, 0, 0.5});
  ASSERT_EQ(tf.points().size(), 3u);
  EXPECT_LT(tf.points()[0].value, tf.points()[1].value);
  EXPECT_LT(tf.points()[1].value, tf.points()[2].value);
  EXPECT_NEAR(tf.evaluate(0.3).a, 0.3, 1e-12);
}

TEST(Transfer, NegHipPresetHasSemiTransparency) {
  const auto tf = TransferFunction::neghip_preset();
  // Volumetric rendering requires intermediate alphas, not a binary mask.
  bool found_semi = false;
  for (double v = 0.0; v <= 1.0; v += 0.01) {
    const double a = tf.evaluate(v).a;
    if (a > 0.05 && a < 0.95) found_semi = true;
  }
  EXPECT_TRUE(found_semi);
}

TEST(Transfer, OpaquePresetPeaksAtIso) {
  const auto tf = TransferFunction::opaque_preset(0.6, 0.05);
  EXPECT_GT(tf.evaluate(0.6).a, 0.9);
  EXPECT_LT(tf.evaluate(0.4).a, 0.05);
  EXPECT_LT(tf.evaluate(0.8).a, 0.05);
}

}  // namespace
}  // namespace lon::volume
