// The fused row-parallel outer step against the serial oracle it replaces
// (warp_with_gradients + threshold_step), and compute_flow's independence
// from the lane count the outer steps run on.
#include "tvl1/outer_step.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "tvl1/threshold.hpp"
#include "workloads/synthetic.hpp"

namespace chambolle::tvl1 {
namespace {

bool same_bytes(const Matrix<float>& a, const Matrix<float>& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

bool same_bytes(const FlowField& a, const FlowField& b) {
  return same_bytes(a.u1, b.u1) && same_bytes(a.u2, b.u2);
}

int log_uniform(Rng& rng, int lo, int hi) {
  const float x = rng.uniform(std::log(static_cast<float>(lo)),
                              std::log(static_cast<float>(hi) + 1.f));
  return std::min(hi, static_cast<int>(std::exp(x)));
}

// Normalized frames with a constant (textureless) block in I1, and a flow
// that mixes sub-pixel motion, displacements past every border and -0.
struct Case {
  Image i0, i1;
  FlowField u;
};

Case make_case(Rng& rng, int rows, int cols) {
  Case k{random_image(rng, rows, cols, 0.f, 1.f),
         random_image(rng, rows, cols, 0.f, 1.f), FlowField(rows, cols)};
  const int br = rng.uniform_int(0, rows - 1);
  const int bc = rng.uniform_int(0, cols - 1);
  for (int r = br; r < std::min(rows, br + rows / 2 + 2); ++r)
    for (int c = bc; c < std::min(cols, bc + cols / 2 + 2); ++c)
      k.i1(r, c) = 0.5f;
  const float far = 1.5f * static_cast<float>(std::max(rows, cols));
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) {
      const int kind = rng.uniform_int(0, 9);
      if (kind == 0) {
        k.u.u1(r, c) = rng.uniform(-far, far);
        k.u.u2(r, c) = rng.uniform(-far, far);
      } else if (kind == 1) {
        k.u.u1(r, c) = -0.f;
        k.u.u2(r, c) = -0.f;
      } else {
        k.u.u1(r, c) = rng.uniform(-2.f, 2.f);
        k.u.u2(r, c) = rng.uniform(-2.f, 2.f);
      }
    }
  return k;
}

TEST(OuterStep, FusedStepMatchesWarpThenThresholdAtEveryLaneCount) {
  Rng rng(2024);
  parallel::ThreadPool pool(3);
  std::vector<std::pair<int, int>> shapes = {{2, 2}, {2, 500}, {300, 2}};
  for (int i = 0; i < 12; ++i)
    shapes.emplace_back(log_uniform(rng, 2, 300), log_uniform(rng, 2, 500));

  long long textureless = 0, past_border = 0;
  for (const auto& [rows, cols] : shapes) {
    const Case k = make_case(rng, rows, cols);
    const float lambda = rng.uniform_int(0, 1) ? 25.f : 0.5f, theta = 0.25f;
    const WarpResult wr = warp_with_gradients(k.i1, k.u);
    const FlowField u0 = k.u;
    const FlowField want =
        threshold_step({k.i0, wr.warped, wr.grad, u0, k.u, lambda, theta});
    for (int r = 0; r < rows; ++r)
      for (int c = 0; c < cols; ++c) {
        const float gx = wr.grad.gx(r, c), gy = wr.grad.gy(r, c);
        if (gx * gx + gy * gy <= 1e-12f) ++textureless;
        const float fr = static_cast<float>(r) + k.u.u2(r, c);
        const float fc = static_cast<float>(c) + k.u.u1(r, c);
        if (fr < 0.f || fr > static_cast<float>(rows - 1) || fc < 0.f ||
            fc > static_cast<float>(cols - 1))
          ++past_border;
      }

    const Gradients g1 = gradients(k.i1);
    for (int lanes = 1; lanes <= 3; ++lanes) {
      FlowField v;
      outer_step(k.i0, k.i1, g1, k.u, lambda, theta, v, pool, lanes);
      EXPECT_TRUE(same_bytes(v, want))
          << rows << "x" << cols << " on " << lanes << " lanes";
    }
  }
  EXPECT_GT(textureless, 0);
  EXPECT_GT(past_border, 0);
}

TEST(OuterStep, ReusesTheSupportBufferAcrossWarps) {
  Rng rng(5);
  parallel::ThreadPool pool(2);
  const Case k = make_case(rng, 40, 60);
  const Gradients g1 = gradients(k.i1);
  FlowField v;
  outer_step(k.i0, k.i1, g1, k.u, 25.f, 0.25f, v, pool, 2);
  const float* u1 = v.u1.data().data();
  const float* u2 = v.u2.data().data();
  outer_step(k.i0, k.i1, g1, k.u, 25.f, 0.25f, v, pool, 2);
  EXPECT_EQ(v.u1.data().data(), u1);
  EXPECT_EQ(v.u2.data().data(), u2);
}

TEST(OuterStep, RejectsAnyMismatchedPlane) {
  Rng rng(6);
  parallel::ThreadPool pool(2);
  const Case k = make_case(rng, 8, 9);
  const Gradients g1 = gradients(k.i1);
  const Matrix<float> wrong(8, 8);
  FlowField v;
  const auto run = [&](const Image& i1, const Gradients& g,
                       const FlowField& u) {
    outer_step(k.i0, i1, g, u, 25.f, 0.25f, v, pool, 2);
  };
  EXPECT_NO_THROW(run(k.i1, g1, k.u));
  EXPECT_THROW(run(wrong, g1, k.u), std::invalid_argument);
  Gradients g = g1;
  g.gx = wrong;
  EXPECT_THROW(run(k.i1, g, k.u), std::invalid_argument);
  g = g1;
  g.gy = wrong;
  EXPECT_THROW(run(k.i1, g, k.u), std::invalid_argument);
  FlowField u = k.u;
  u.u1 = wrong;
  EXPECT_THROW(run(k.i1, g1, u), std::invalid_argument);
  u = k.u;
  u.u2 = wrong;
  EXPECT_THROW(run(k.i1, g1, u), std::invalid_argument);
  EXPECT_THROW(outer_step(k.i0, k.i1, g1, k.u, 0.f, 0.25f, v, pool, 2),
               std::invalid_argument);
}

TEST(OuterStep, ComputeFlowIsBitIdenticalAcrossOuterLaneCounts) {
  const auto wl = workloads::rotating_scene(72, 100, 0.05f);
  parallel::ThreadPool pool(3);
  Tvl1Params p;
  p.pyramid_levels = 3;
  p.warps = 3;
  p.chambolle.iterations = 10;
  p.tiled.pool = &pool;
  p.tiled.num_threads = 1;
  const FlowField want = compute_flow(wl.frame0, wl.frame1, p);
  for (const InnerSolver s : {InnerSolver::kReference, InnerSolver::kResident})
    for (const int lanes : {1, 3}) {
      p.solver = s;
      p.tiled.num_threads = lanes;
      EXPECT_TRUE(same_bytes(compute_flow(wl.frame0, wl.frame1, p), want))
          << "solver " << static_cast<int>(s) << ", " << lanes << " lanes";
    }
}

}  // namespace
}  // namespace chambolle::tvl1
