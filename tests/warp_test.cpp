#include "tvl1/warp.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "workloads/synthetic.hpp"

namespace chambolle::tvl1 {
namespace {

TEST(Warp, BilinearSampleAtGridPoints) {
  Image img(2, 2);
  img(0, 0) = 1.f;
  img(0, 1) = 2.f;
  img(1, 0) = 3.f;
  img(1, 1) = 4.f;
  EXPECT_FLOAT_EQ(sample_bilinear(img, 0.f, 0.f), 1.f);
  EXPECT_FLOAT_EQ(sample_bilinear(img, 1.f, 1.f), 4.f);
}

TEST(Warp, BilinearSampleInterpolates) {
  Image img(2, 2);
  img(0, 0) = 0.f;
  img(0, 1) = 10.f;
  img(1, 0) = 20.f;
  img(1, 1) = 30.f;
  EXPECT_FLOAT_EQ(sample_bilinear(img, 0.f, 0.5f), 5.f);
  EXPECT_FLOAT_EQ(sample_bilinear(img, 0.5f, 0.f), 10.f);
  EXPECT_FLOAT_EQ(sample_bilinear(img, 0.5f, 0.5f), 15.f);
}

TEST(Warp, BilinearSampleClampsAtBorders) {
  Image img(2, 2, 9.f);
  EXPECT_FLOAT_EQ(sample_bilinear(img, -5.f, -5.f), 9.f);
  EXPECT_FLOAT_EQ(sample_bilinear(img, 10.f, 10.f), 9.f);
}

TEST(Warp, ZeroFlowIsIdentity) {
  Rng rng(1);
  const Image img = random_image(rng, 8, 8);
  const FlowField flow(8, 8);
  EXPECT_EQ(warp(img, flow), img);
}

TEST(Warp, ShapeMismatchThrows) {
  const Image img(4, 4);
  const FlowField flow(3, 3);
  EXPECT_THROW(warp(img, flow), std::invalid_argument);
}

TEST(Warp, ShapeMismatchInEitherFlowComponentThrows) {
  const Image img(4, 4);
  FlowField flow(4, 4);
  flow.u2 = Matrix<float>(4, 3);
  EXPECT_THROW(warp(img, flow), std::invalid_argument);
  EXPECT_THROW(warp_with_gradients(img, flow), std::invalid_argument);
  flow = FlowField(4, 4);
  flow.u1 = Matrix<float>(3, 4);
  EXPECT_THROW(warp(img, flow), std::invalid_argument);
}

TEST(Warp, WarpUndoesTranslation) {
  // frame1 = frame0 translated by (dx, dy); warping frame1 by the true flow
  // must recover frame0 in the interior up to bilinear interpolation error,
  // and reduce the frame difference by an order of magnitude.
  const auto wl = workloads::translating_scene(32, 32, 2.5f, -1.5f);
  const Image warped = warp(wl.frame1, wl.ground_truth);
  double err_warped = 0.0, err_raw = 0.0;
  for (int r = 6; r < 26; ++r)
    for (int c = 6; c < 26; ++c) {
      EXPECT_NEAR(warped(r, c), wl.frame0(r, c), 4.0f) << r << "," << c;
      err_warped += std::abs(warped(r, c) - wl.frame0(r, c));
      err_raw += std::abs(wl.frame1(r, c) - wl.frame0(r, c));
    }
  EXPECT_LT(err_warped * 10.0, err_raw);
}

TEST(Warp, GradientsOfLinearRamp) {
  Image img(5, 5);
  for (int r = 0; r < 5; ++r)
    for (int c = 0; c < 5; ++c) img(r, c) = 2.f * static_cast<float>(c) - 3.f * static_cast<float>(r);
  const Gradients g = gradients(img);
  for (int r = 0; r < 5; ++r)
    for (int c = 0; c < 5; ++c) {
      EXPECT_NEAR(g.gx(r, c), 2.f, 1e-5);
      EXPECT_NEAR(g.gy(r, c), -3.f, 1e-5);
    }
}

TEST(Warp, GradientsOfConstantAreZero) {
  const Gradients g = gradients(Image(6, 6, 4.f));
  for (float v : g.gx) EXPECT_FLOAT_EQ(v, 0.f);
  for (float v : g.gy) EXPECT_FLOAT_EQ(v, 0.f);
}

TEST(Warp, WarpWithGradientsMatchesSeparateCalls) {
  const auto wl = workloads::translating_scene(24, 24, 1.f, 1.f);
  const WarpResult wr = warp_with_gradients(wl.frame1, wl.ground_truth);
  EXPECT_EQ(wr.warped, warp(wl.frame1, wl.ground_truth));
  // Gradients sampled at integer offsets equal shifted source gradients.
  const Gradients src = gradients(wl.frame1);
  for (int r = 2; r < 22; ++r)
    for (int c = 2; c < 22; ++c)
      EXPECT_NEAR(wr.grad.gx(r, c), src.gx(r + 1, c + 1), 1e-4);
}

}  // namespace
}  // namespace chambolle::tvl1
