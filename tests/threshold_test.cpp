#include "tvl1/threshold.hpp"

#include <gtest/gtest.h>

namespace chambolle::tvl1 {
namespace {

// A controlled 1-pixel-ish setup where every field is constant, so the three
// thresholding branches can be selected exactly.
struct ThresholdCase {
  Image i0{2, 2};
  Image i1w{2, 2};
  Gradients grad{Matrix<float>(2, 2), Matrix<float>(2, 2)};
  FlowField u0{2, 2};
  FlowField u{2, 2};
  float lambda = 2.f;
  float theta = 0.5f;

  ThresholdCase(float rho, float gx, float gy) {
    // With u == u0: rho(u) = i1w - i0 = rho.
    i0.fill(0.f);
    i1w.fill(rho);
    grad.gx.fill(gx);
    grad.gy.fill(gy);
  }

  [[nodiscard]] ThresholdInputs inputs() const {
    return {i0, i1w, grad, u0, u, lambda, theta};
  }
};

TEST(Threshold, ResidualIsLinearizedBrightnessError) {
  ThresholdCase s(3.f, 2.f, 0.f);
  s.u.u1.fill(0.5f);  // u - u0 = (0.5, 0): rho = 3 + 2*0.5 = 4
  const Matrix<float> rho = residual(s.inputs());
  for (float v : rho) EXPECT_FLOAT_EQ(v, 4.f);
}

TEST(Threshold, NegativeResidualBranch) {
  // rho < -lambda*theta*|g|^2 = -1*4 = -4  =>  v = u + lambda*theta*g.
  ThresholdCase s(-10.f, 2.f, 0.f);
  const FlowField v = threshold_step(s.inputs());
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c) {
      EXPECT_FLOAT_EQ(v.u1(r, c), 1.f * 2.f);  // lambda*theta*gx
      EXPECT_FLOAT_EQ(v.u2(r, c), 0.f);
    }
}

TEST(Threshold, PositiveResidualBranch) {
  // rho > lambda*theta*|g|^2  =>  v = u - lambda*theta*g.
  ThresholdCase s(10.f, 2.f, 1.f);
  const FlowField v = threshold_step(s.inputs());
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c) {
      EXPECT_FLOAT_EQ(v.u1(r, c), -2.f);
      EXPECT_FLOAT_EQ(v.u2(r, c), -1.f);
    }
}

TEST(Threshold, SmallResidualBranchZeroesTheResidual) {
  // |rho| <= lambda*theta*|g|^2: v = u - rho*g/|g|^2, which drives the
  // linearized residual at v exactly to zero.
  ThresholdCase s(2.f, 2.f, 0.f);  // threshold = 4, rho = 2
  const FlowField v = threshold_step(s.inputs());
  // dx = -rho*gx/|g|^2 = -2*2/4 = -1.
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c) EXPECT_FLOAT_EQ(v.u1(r, c), -1.f);

  ThresholdInputs in = s.inputs();
  const ThresholdInputs at_v{in.i0, in.i1_warped, in.grad, in.u0, v,
                             in.lambda, in.theta};
  for (float rho_v : residual(at_v)) EXPECT_NEAR(rho_v, 0.f, 1e-6f);
}

TEST(Threshold, TexturelessPointsKeepU) {
  ThresholdCase s(5.f, 0.f, 0.f);  // zero gradient: no data information
  s.u.u1.fill(1.25f);
  s.u.u2.fill(-0.75f);
  const FlowField v = threshold_step(s.inputs());
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c) {
      EXPECT_FLOAT_EQ(v.u1(r, c), 1.25f);
      EXPECT_FLOAT_EQ(v.u2(r, c), -0.75f);
    }
}

TEST(Threshold, ZeroResidualKeepsU) {
  ThresholdCase s(0.f, 3.f, -1.f);
  // Keep u == u0 so the linearized residual stays exactly 0.
  s.u.u1.fill(0.4f);
  s.u0.u1.fill(0.4f);
  const FlowField v = threshold_step(s.inputs());
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c) EXPECT_FLOAT_EQ(v.u1(r, c), 0.4f);
}

TEST(Threshold, StepNeverIncreasesDataEnergy) {
  // The v-step is the pointwise minimizer of lambda|rho(v)| + |v-u|^2/(2θ),
  // so its objective value at v can never exceed the value at u.
  ThresholdCase s(6.f, 1.5f, -2.f);
  s.u.u1.fill(0.3f);
  s.u.u2.fill(-0.2f);
  const ThresholdInputs in = s.inputs();
  const FlowField v = threshold_step(in);
  const ThresholdInputs at_v{in.i0, in.i1_warped, in.grad, in.u0, v,
                             in.lambda, in.theta};
  const Matrix<float> rho_u = residual(in);
  const Matrix<float> rho_v = residual(at_v);
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c) {
      const float du1 = v.u1(r, c) - s.u.u1(r, c);
      const float du2 = v.u2(r, c) - s.u.u2(r, c);
      const float obj_v = s.lambda * std::abs(rho_v(r, c)) +
                          (du1 * du1 + du2 * du2) / (2.f * s.theta);
      const float obj_u = s.lambda * std::abs(rho_u(r, c));
      EXPECT_LE(obj_v, obj_u + 1e-5f);
    }
}

TEST(Threshold, ValidatesInputs) {
  ThresholdCase s(1.f, 1.f, 1.f);
  ThresholdInputs bad = s.inputs();
  Image wrong(3, 3);
  const ThresholdInputs mismatched{wrong, s.i1w, s.grad, s.u0, s.u, 1.f, 1.f};
  EXPECT_THROW(threshold_step(mismatched), std::invalid_argument);
  const ThresholdInputs negative{s.i0, s.i1w, s.grad, s.u0, s.u, -1.f, 1.f};
  EXPECT_THROW(threshold_step(negative), std::invalid_argument);
  (void)bad;
}

TEST(Threshold, RejectsAMismatchedPlaneOfAnyInput) {
  // Every plane is read at i0's shape; one of another shape must be rejected
  // (Matrix::operator() only asserts, so Release would read out of bounds).
  const ThresholdCase s(1.f, 1.f, 1.f);
  const Matrix<float> wrong(2, 3);
  for (int plane = 0; plane < 7; ++plane) {
    ThresholdCase b = s;
    Matrix<float>* planes[] = {&b.i1w,  &b.grad.gx, &b.grad.gy, &b.u0.u1,
                               &b.u0.u2, &b.u.u1,   &b.u.u2};
    *planes[plane] = wrong;
    EXPECT_THROW(threshold_step(b.inputs()), std::invalid_argument) << plane;
    EXPECT_THROW(residual(b.inputs()), std::invalid_argument) << plane;
  }
}

}  // namespace
}  // namespace chambolle::tvl1
