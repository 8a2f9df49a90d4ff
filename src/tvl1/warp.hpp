// warp.hpp — bilinear image warping and gradients for TV-L1.
//
// Each outer TV-L1 iteration warps I1 by the current flow estimate u0 and
// linearizes the residual rho(u) = I1(x + u0) + <grad I1(x + u0), u - u0> - I0
// around u0.  Sampling is bilinear with border clamping.
//
// Defined in outer_step.cpp, whose fused pass shares this arithmetic.
#pragma once

#include "common/image.hpp"

namespace chambolle::tvl1 {

/// Bilinear sample with clamp-to-border addressing.  (fr, fc) are fractional
/// (row, col) coordinates.
[[nodiscard]] float sample_bilinear(const Image& img, float fr, float fc);

/// Warps `img` by the flow: out(r, c) = img(r + u2(r,c), c + u1(r,c)).
[[nodiscard]] Image warp(const Image& img, const FlowField& flow);

/// Central-difference gradients (one-sided at borders).
struct Gradients {
  Matrix<float> gx;  ///< d/dcol
  Matrix<float> gy;  ///< d/drow
};
[[nodiscard]] Gradients gradients(const Image& img);

/// Warps `img` by the flow and evaluates the warped gradients by sampling the
/// source gradients at the warped positions (the standard TV-L1 choice).
struct WarpResult {
  Image warped;
  Gradients grad;
};
[[nodiscard]] WarpResult warp_with_gradients(const Image& img,
                                             const FlowField& flow);

}  // namespace chambolle::tvl1
