// outer_step.cpp — everything of TV-L1 around the inner solve.  The
// per-pixel arithmetic of the outer step has two drivers: the public serial
// functions of warp.hpp and threshold.hpp, and the fused row-parallel pass
// the coarse-to-fine loop runs.  Both call the same helpers below, so (under
// -ffp-contract=off) they agree bit for bit.
#include "tvl1/outer_step.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "telemetry/trace.hpp"
#include "tvl1/median_filter.hpp"
#include "tvl1/threshold.hpp"

namespace chambolle::tvl1 {
namespace {

// Clamp-to-border corners and weights of one bilinear sample position.
struct BilinearTap {
  int r0, r1, c0, c1;
  float wr, wc;
};

BilinearTap bilinear_tap(int rows, int cols, float fr, float fc) {
  const int r = static_cast<int>(std::floor(fr));
  const int c = static_cast<int>(std::floor(fc));
  return {std::clamp(r, 0, rows - 1),     std::clamp(r + 1, 0, rows - 1),
          std::clamp(c, 0, cols - 1),     std::clamp(c + 1, 0, cols - 1),
          fr - static_cast<float>(r), fc - static_cast<float>(c)};
}

// The tap of pixel (r, c) displaced by the flow (u1, u2).
BilinearTap flow_tap(int rows, int cols, int r, int c, float u1, float u2) {
  return bilinear_tap(rows, cols, static_cast<float>(r) + u2,
                      static_cast<float>(c) + u1);
}

float sample(const Matrix<float>& m, const BilinearTap& t) {
  return (1.f - t.wr) * ((1.f - t.wc) * m(t.r0, t.c0) + t.wc * m(t.r0, t.c1)) +
         t.wr * ((1.f - t.wc) * m(t.r1, t.c0) + t.wc * m(t.r1, t.c1));
}

// rho(u) at one pixel; du = u - u0.
float residual_at(float i1w, float gx, float gy, float du1, float du2,
                  float i0) {
  return i1w + gx * du1 + gy * du2 - i0;
}

// v - u at one pixel: the shrink step of threshold.hpp for lt = lambda*theta.
struct FlowStep {
  float dx, dy;
};
FlowStep threshold_at(float rho, float gx, float gy, float lt) {
  const float g2 = gx * gx + gy * gy;
  if (rho < -lt * g2) return {lt * gx, lt * gy};
  if (rho > lt * g2) return {-lt * gx, -lt * gy};
  if (g2 > 1e-12f) return {-rho * gx / g2, -rho * gy / g2};
  return {0.f, 0.f};  // textureless point: the data term gives no information
}

// fn(begin, end) over bands of [0, n): dynamic bands of about a quarter
// lane's share on `lanes` lanes; one lane runs inline on the caller.
void for_bands(parallel::ThreadPool& pool, int lanes, int n,
               const std::function<void(int, int)>& fn) {
  if (lanes <= 1) return fn(0, n);
  const auto band = static_cast<std::size_t>(std::max(1, n / (4 * lanes)));
  pool.parallel_for(
      static_cast<std::size_t>(n), lanes,
      [&](std::size_t begin, std::size_t end, int) {
        fn(static_cast<int>(begin), static_cast<int>(end));
      },
      band);
}

void check(const ThresholdInputs& in) {
  const Image& s = in.i0;
  if (!s.same_shape(in.i1_warped) || !s.same_shape(in.grad.gx) ||
      !s.same_shape(in.grad.gy) || !s.same_shape(in.u0.u1) ||
      !s.same_shape(in.u0.u2) || !s.same_shape(in.u.u1) ||
      !s.same_shape(in.u.u2))
    throw std::invalid_argument("threshold: shape mismatch");
  if (in.lambda <= 0.f || in.theta <= 0.f)
    throw std::invalid_argument("threshold: lambda/theta must be positive");
}

// Pool the pipeline's parallel regions run on.  The tiled options carry the
// injection point (TiledSolverOptions::pool) because the inner solves are
// where most of the parallel time goes; the pyramid builds and outer steps
// ride on the same pool so a serving engine slot never touches the shared
// default pool.
parallel::ThreadPool& pool_for(const Tvl1Params& params) {
  return params.tiled.pool != nullptr ? *params.tiled.pool
                                      : parallel::default_pool();
}

// Central-difference gradients of `img` into `g` (resized to img's shape).
void gradients_into(const Image& img, Gradients& g, parallel::ThreadPool& pool,
                    int lanes) {
  const int R = img.rows(), C = img.cols();
  if (!img.same_shape(g.gx)) g.gx.resize(R, C);
  if (!img.same_shape(g.gy)) g.gy.resize(R, C);
  for_bands(pool, lanes, R, [&](int r_begin, int r_end) {
    for (int r = r_begin; r < r_end; ++r)
      for (int c = 0; c < C; ++c) {
        const int cl = std::max(c - 1, 0), cr = std::min(c + 1, C - 1);
        const int ru = std::max(r - 1, 0), rd = std::min(r + 1, R - 1);
        // One-sided at the borders (divisor matches the actual span).
        g.gx(r, c) = (img(r, cr) - img(r, cl)) /
                     static_cast<float>(cr - cl == 0 ? 1 : cr - cl);
        g.gy(r, c) = (img(rd, c) - img(ru, c)) /
                     static_cast<float>(rd - ru == 0 ? 1 : rd - ru);
      }
  });
}

}  // namespace

float sample_bilinear(const Image& img, float fr, float fc) {
  return sample(img, bilinear_tap(img.rows(), img.cols(), fr, fc));
}

Image warp(const Image& img, const FlowField& flow) {
  if (!img.same_shape(flow.u1) || !img.same_shape(flow.u2))
    throw std::invalid_argument("warp: flow/image shape mismatch");
  Image out(img.rows(), img.cols());
  for (int r = 0; r < img.rows(); ++r)
    for (int c = 0; c < img.cols(); ++c)
      out(r, c) = sample(img, flow_tap(img.rows(), img.cols(), r, c,
                                       flow.u1(r, c), flow.u2(r, c)));
  return out;
}

Gradients gradients(const Image& img) {
  Gradients g;
  gradients_into(img, g, parallel::default_pool(), 1);
  return g;
}

WarpResult warp_with_gradients(const Image& img, const FlowField& flow) {
  WarpResult out{warp(img, flow), gradients(img)};
  const Gradients src = out.grad;
  for (int r = 0; r < img.rows(); ++r)
    for (int c = 0; c < img.cols(); ++c) {
      const BilinearTap t = flow_tap(img.rows(), img.cols(), r, c,
                                     flow.u1(r, c), flow.u2(r, c));
      out.grad.gx(r, c) = sample(src.gx, t);
      out.grad.gy(r, c) = sample(src.gy, t);
    }
  return out;
}

Matrix<float> residual(const ThresholdInputs& in) {
  check(in);
  Matrix<float> rho(in.i0.rows(), in.i0.cols());
  for (int r = 0; r < rho.rows(); ++r)
    for (int c = 0; c < rho.cols(); ++c)
      rho(r, c) = residual_at(in.i1_warped(r, c), in.grad.gx(r, c),
                              in.grad.gy(r, c), in.u.u1(r, c) - in.u0.u1(r, c),
                              in.u.u2(r, c) - in.u0.u2(r, c), in.i0(r, c));
  return rho;
}

FlowField threshold_step(const ThresholdInputs& in) {
  const Matrix<float> rho = residual(in);
  const float lt = in.lambda * in.theta;
  FlowField v(in.i0.rows(), in.i0.cols());
  for (int r = 0; r < v.rows(); ++r)
    for (int c = 0; c < v.cols(); ++c) {
      const FlowStep d =
          threshold_at(rho(r, c), in.grad.gx(r, c), in.grad.gy(r, c), lt);
      v.u1(r, c) = in.u.u1(r, c) + d.dx;
      v.u2(r, c) = in.u.u2(r, c) + d.dy;
    }
  return v;
}

void outer_step(const Image& i0, const Image& i1, const Gradients& g1,
                const FlowField& u, float lambda, float theta, FlowField& v,
                parallel::ThreadPool& pool, int lanes) {
  if (!i0.same_shape(i1) || !i0.same_shape(g1.gx) || !i0.same_shape(g1.gy) ||
      !i0.same_shape(u.u1) || !i0.same_shape(u.u2))
    throw std::invalid_argument("outer_step: shape mismatch");
  if (lambda <= 0.f || theta <= 0.f)
    throw std::invalid_argument("outer_step: lambda/theta must be positive");
  if (!i0.same_shape(v.u1) || !i0.same_shape(v.u2))
    v = FlowField(i0.rows(), i0.cols());
  const float lt = lambda * theta;
  for_bands(pool, lanes, i0.rows(), [&](int r_begin, int r_end) {
    for (int r = r_begin; r < r_end; ++r)
      for (int c = 0; c < i0.cols(); ++c) {
        const float u1 = u.u1(r, c), u2 = u.u2(r, c);
        const BilinearTap t = flow_tap(i0.rows(), i0.cols(), r, c, u1, u2);
        const float gx = sample(g1.gx, t), gy = sample(g1.gy, t);
        // u - u0 is +0 here, but g * (+0) is -0 for negative g: keeping the
        // terms keeps the residual's signed-zero bits those of residual().
        const float rho =
            residual_at(sample(i1, t), gx, gy, u1 - u1, u2 - u2, i0(r, c));
        const FlowStep d = threshold_at(rho, gx, gy, lt);
        v.u1(r, c) = u1 + d.dx;
        v.u2(r, c) = u2 + d.dy;
      }
  });
}

Image normalize(const Image& img) {
  Image out = img;
  for (float& v : out) v *= (1.f / 255.f);
  return out;
}

std::pair<Pyramid, Pyramid> normalized_pyramids(const Image& i0,
                                                const Image& i1,
                                                const Tvl1Params& params) {
  std::optional<Pyramid> p[2];
  pool_for(params).parallel_for(
      2, 2, [&](std::size_t begin, std::size_t end, int) {
        for (std::size_t i = begin; i < end; ++i) {
          const telemetry::TraceSpan span("tvl1.pyramid");
          p[i].emplace(normalize(i == 0 ? i0 : i1), params.pyramid_levels);
        }
      });
  return {std::move(*p[0]), std::move(*p[1])};
}

FlowField coarse_to_fine(
    const Pyramid& p0, const Pyramid& p1, const Tvl1Params& params,
    const std::function<void(const FlowField&, FlowField&, int, int)>& solve) {
  parallel::ThreadPool& pool = pool_for(params);
  const bool tiled = params.solver == InnerSolver::kTiled ||
                     params.solver == InnerSolver::kResident;
  const int lanes = tiled ? pool.lanes_for(params.tiled.num_threads) : 1;
  const int levels = std::min(p0.levels(), p1.levels());

  FlowField u, v;  // v: one buffer per level, reused across its warps
  Gradients g1;
  for (int level = levels - 1; level >= 0; --level) {
    const telemetry::TraceSpan level_span("tvl1.level");
    const Image& l0 = p0.level(level);
    const Image& l1 = p1.level(level);
    if (level == levels - 1) {
      u = FlowField(l0.rows(), l0.cols());
    } else {
      const telemetry::TraceSpan span("tvl1.upsample");
      FlowField up;
      for_bands(pool, std::min(lanes, 2), 2, [&](int begin, int end) {
        for (int k = begin; k < end; ++k)
          upsample_flow_component(u, k, l0.rows(), l0.cols(),
                                  k == 0 ? up.u1 : up.u2);
      });
      u = std::move(up);
    }
    {
      const telemetry::TraceSpan span("tvl1.gradients");
      gradients_into(l1, g1, pool, lanes);
    }

    for (int w = 0; w < params.warps; ++w) {
      const telemetry::TraceSpan warp_span("tvl1.warp");
      {
        const telemetry::TraceSpan span("tvl1.outer_step");
        outer_step(l0, l1, g1, u, params.lambda, params.chambolle.theta, v,
                   pool, lanes);
      }
      {
        const telemetry::TraceSpan span("tvl1.chambolle_inner");
        solve(v, u, level, w);
      }
      if (params.median_filtering) {
        const telemetry::TraceSpan span("tvl1.median_filter");
        u = median_filter_flow(u);
      }
    }
  }
  return u;
}

}  // namespace chambolle::tvl1
