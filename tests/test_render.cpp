// Unit tests for the software renderer: images, cameras, cube intersection
// and the ray caster's compositing behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "render/camera.hpp"
#include "render/image.hpp"
#include "render/raycaster.hpp"
#include "util/checksum.hpp"
#include "volume/synthetic.hpp"
#include "volume/transfer.hpp"

namespace lon::render {
namespace {

// --- image ------------------------------------------------------------------------

TEST(Image, SetAndGetPixels) {
  ImageRGB8 img(4, 3);
  EXPECT_EQ(img.byte_size(), 36u);
  img.set(2, 1, {10, 20, 30});
  EXPECT_EQ(img.at(2, 1), (Rgb8{10, 20, 30}));
  EXPECT_EQ(img.at(0, 0), (Rgb8{0, 0, 0}));
}

TEST(Image, MeanAbsDiff) {
  ImageRGB8 a(2, 2), b(2, 2);
  EXPECT_DOUBLE_EQ(a.mean_abs_diff(b), 0.0);
  b.set(0, 0, {12, 0, 0});
  EXPECT_NEAR(a.mean_abs_diff(b), 12.0 / 12.0, 1e-12);
  ImageRGB8 c(3, 3);
  EXPECT_THROW((void)a.mean_abs_diff(c), std::invalid_argument);
}

// --- camera -----------------------------------------------------------------------

TEST(Camera, CenterRayPointsForward) {
  const Camera cam = Camera::look_at({0, 0, 5}, {0, 0, 0}, {0, 1, 0}, 45.0);
  // A 1x1 image's single pixel center is the optical axis.
  const Ray ray = cam.pixel_ray(0, 0, 1, 1);
  EXPECT_NEAR(ray.direction.z, -1.0, 1e-9);
  EXPECT_NEAR(ray.direction.x, 0.0, 1e-9);
  EXPECT_NEAR(ray.direction.y, 0.0, 1e-9);
}

TEST(Camera, RaysAreUnitLength) {
  const Camera cam = Camera::look_at({3, -2, 5}, {0, 1, 0}, {0, 1, 0}, 60.0);
  for (std::size_t y = 0; y < 8; ++y) {
    for (std::size_t x = 0; x < 8; ++x) {
      EXPECT_NEAR(cam.pixel_ray(x, y, 8, 8).direction.norm(), 1.0, 1e-12);
    }
  }
}

TEST(Camera, ImageYGrowsDownward) {
  const Camera cam = Camera::look_at({0, 0, 5}, {0, 0, 0}, {0, 1, 0}, 45.0);
  const Ray top = cam.pixel_ray(2, 0, 5, 5);
  const Ray bottom = cam.pixel_ray(2, 4, 5, 5);
  EXPECT_GT(top.direction.y, bottom.direction.y);
}

TEST(Camera, DegenerateUpVectorIsHandled) {
  // Looking along +z with up == +z: camera must still produce valid rays.
  const Camera cam = Camera::look_at({0, 0, 5}, {0, 0, 0}, {0, 0, 1}, 45.0);
  const Ray ray = cam.pixel_ray(0, 0, 2, 2);
  EXPECT_NEAR(ray.direction.norm(), 1.0, 1e-12);
}

TEST(Camera, EyeEqualsTargetThrows) {
  EXPECT_THROW(Camera::look_at({1, 1, 1}, {1, 1, 1}, {0, 1, 0}, 45.0),
               std::invalid_argument);
}

// --- cube intersection ---------------------------------------------------------------

TEST(IntersectCube, HitFromOutside) {
  double t0 = 0, t1 = 0;
  const Ray ray{{0, 0, 5}, {0, 0, -1}};
  ASSERT_TRUE(intersect_unit_cube(ray, t0, t1));
  EXPECT_NEAR(t0, 4.0, 1e-12);
  EXPECT_NEAR(t1, 6.0, 1e-12);
}

TEST(IntersectCube, MissesToTheSide) {
  double t0 = 0, t1 = 0;
  EXPECT_FALSE(intersect_unit_cube({{0, 3, 5}, {0, 0, -1}}, t0, t1));
}

TEST(IntersectCube, StartInsideClampsNearToZero) {
  double t0 = 0, t1 = 0;
  ASSERT_TRUE(intersect_unit_cube({{0, 0, 0}, {0, 0, -1}}, t0, t1));
  EXPECT_DOUBLE_EQ(t0, 0.0);
  EXPECT_NEAR(t1, 1.0, 1e-12);
}

TEST(IntersectCube, AxisParallelRayInsideSlab) {
  double t0 = 0, t1 = 0;
  // Parallel to x, within the cube in y/z.
  ASSERT_TRUE(intersect_unit_cube({{-5, 0.5, 0.5}, {1, 0, 0}}, t0, t1));
  EXPECT_NEAR(t0, 4.0, 1e-12);
  // Parallel to x, outside the slab.
  EXPECT_FALSE(intersect_unit_cube({{-5, 2.0, 0.0}, {1, 0, 0}}, t0, t1));
}

TEST(IntersectCube, DiagonalThroughCorners) {
  double t0 = 0, t1 = 0;
  const Vec3 dir = Vec3{1, 1, 1}.normalized();
  const Ray ray{Vec3{-2, -2, -2}, dir};
  ASSERT_TRUE(intersect_unit_cube(ray, t0, t1));
  EXPECT_NEAR(t1 - t0, 2.0 * std::sqrt(3.0), 1e-9);
}

// --- ray caster -----------------------------------------------------------------------

class RayCasterTest : public ::testing::Test {
 protected:
  RayCasterTest() : vol_(volume::make_neghip_like(32, 5)) {}

  volume::ScalarVolume vol_;
};

TEST_F(RayCasterTest, MissedRaysReturnBackground) {
  RayCastOptions opts;
  opts.background = {7, 8, 9};
  const RayCaster rc(vol_, volume::TransferFunction::neghip_preset(), opts);
  EXPECT_EQ(rc.cast({{0, 5, 0}, {1, 0, 0}}), (Rgb8{7, 8, 9}));
}

TEST_F(RayCasterTest, EmptyTransferFunctionYieldsBackground) {
  const RayCaster rc(vol_, volume::TransferFunction{});
  EXPECT_EQ(rc.cast({{0, 0, 5}, {0, 0, -1}}), (Rgb8{0, 0, 0}));
}

TEST_F(RayCasterTest, RenderedImageHasStructure) {
  const RayCaster rc(vol_, volume::TransferFunction::neghip_preset());
  // Far enough back that the corner pixels see past the volume cube.
  const Camera cam = Camera::look_at({0, 0, 4.5}, {0, 0, 0}, {0, 1, 0}, 40.0);
  const ImageRGB8 img = rc.render(cam, 48, 48);
  // Not all pixels identical: the volume is visible and inhomogeneous.
  bool varied = false;
  const Rgb8 first = img.at(24, 24);
  for (std::size_t y = 20; y < 28 && !varied; ++y) {
    for (std::size_t x = 20; x < 28; ++x) {
      if (!(img.at(x, y) == first)) {
        varied = true;
        break;
      }
    }
  }
  EXPECT_TRUE(varied);
  // Corner pixels see through mostly empty space toward the background.
  EXPECT_LT(img.at(0, 0).r + img.at(0, 0).g + img.at(0, 0).b, 120);
}

TEST_F(RayCasterTest, ParallelRenderMatchesSerial) {
  const RayCaster rc(vol_, volume::TransferFunction::neghip_preset());
  const Camera cam = Camera::look_at({1.5, 1.0, 2.5}, {0, 0, 0}, {0, 1, 0}, 45.0);
  const ImageRGB8 serial = rc.render(cam, 40, 40);
  ThreadPool pool(4);
  const ImageRGB8 parallel = rc.render(cam, 40, 40, &pool);
  EXPECT_EQ(serial, parallel);
}

TEST_F(RayCasterTest, FullyOpaqueVolumeSaturatesAlpha) {
  // A transfer function that is opaque everywhere: rays terminate early and
  // the background must not leak through.
  volume::TransferFunction tf;
  tf.add(0.0, {1.0, 0.0, 0.0, 1.0});
  tf.add(1.0, {1.0, 0.0, 0.0, 1.0});
  RayCastOptions opts;
  opts.shading = false;
  opts.background = {0, 255, 0};
  const RayCaster rc(vol_, tf, opts);
  const Rgb8 c = rc.cast({{0, 0, 5}, {0, 0, -1}});
  EXPECT_GT(c.r, 240);
  EXPECT_LT(c.g, 15);  // no green background bleeding in
}

TEST_F(RayCasterTest, SemiTransparencyAccumulatesLessThanOpaque) {
  volume::TransferFunction semi;
  semi.add(0.0, {1.0, 1.0, 1.0, 0.05});
  semi.add(1.0, {1.0, 1.0, 1.0, 0.05});
  volume::TransferFunction opaque;
  opaque.add(0.0, {1.0, 1.0, 1.0, 1.0});
  opaque.add(1.0, {1.0, 1.0, 1.0, 1.0});
  RayCastOptions opts;
  opts.shading = false;
  const Rgb8 cs = RayCaster(vol_, semi, opts).cast({{0, 0, 5}, {0, 0, -1}});
  const Rgb8 co = RayCaster(vol_, opaque, opts).cast({{0, 0, 5}, {0, 0, -1}});
  EXPECT_LT(cs.r, co.r);
}

TEST_F(RayCasterTest, StepSizeChangesLittleThanksToOpacityCorrection) {
  const volume::TransferFunction tf = volume::TransferFunction::neghip_preset();
  RayCastOptions coarse;
  coarse.step = 0.02;
  RayCastOptions fine;
  fine.step = 0.005;
  const Camera cam = Camera::look_at({0, 0, 3}, {0, 0, 0}, {0, 1, 0}, 45.0);
  const ImageRGB8 a = RayCaster(vol_, tf, coarse).render(cam, 32, 32);
  const ImageRGB8 b = RayCaster(vol_, tf, fine).render(cam, 32, 32);
  // Opacity correction keeps the two renderings close (not identical).
  EXPECT_LT(a.mean_abs_diff(b), 12.0);
}

TEST_F(RayCasterTest, DefaultImageIsPinned) {
  // Reference value for the early termination, ambient and diffuse terms: no
  // perf-gate bench or benchmark workload ray-casts, so this test guards them.
  const RayCaster rc(vol_, volume::TransferFunction::neghip_preset());
  const Camera cam = Camera::look_at({1.5, 1.0, 2.5}, {0, 0, 0}, {0, 1, 0}, 45.0);
  EXPECT_EQ(crc32(rc.render(cam, 32, 32).bytes()), 0xf983b76du);
}

TEST_F(RayCasterTest, ViewFromOppositeSidesDiffers) {
  const RayCaster rc(vol_, volume::TransferFunction::neghip_preset());
  const Camera front = Camera::look_at({0, 0, 3}, {0, 0, 0}, {0, 1, 0}, 45.0);
  const Camera side = Camera::look_at({3, 0, 0}, {0, 0, 0}, {0, 1, 0}, 45.0);
  const ImageRGB8 a = rc.render(front, 32, 32);
  const ImageRGB8 b = rc.render(side, 32, 32);
  EXPECT_GT(a.mean_abs_diff(b), 1.0);  // an asymmetric dataset looks different
}

}  // namespace
}  // namespace lon::render
