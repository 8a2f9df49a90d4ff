// threshold.hpp — the TV-L1 thresholding step.
//
// "a support variable v = (v1, v2) is defined using a thresholding function
//  of I1 and of the value of u computed at the previous level" (Section II-A).
// Concretely (Zach et al. 2007): with the linearized residual
//     rho(u) = I1w + <g, u - u0> - I0,       g = grad I1w,
// the pointwise minimizer of  lambda*|rho(v)| + 1/(2*theta)|v - u|^2  is
//     v = u + lambda*theta*g          if rho(u) < -lambda*theta*|g|^2
//     v = u - lambda*theta*g          if rho(u) >  lambda*theta*|g|^2
//     v = u - rho(u)*g/|g|^2          otherwise.
//
// Defined in outer_step.cpp, whose fused pass shares this arithmetic.
#pragma once

#include "common/image.hpp"
#include "tvl1/warp.hpp"

namespace chambolle::tvl1 {

struct ThresholdInputs {
  const Image& i0;        ///< reference frame
  const Image& i1_warped; ///< I1 warped by u0
  const Gradients& grad;  ///< gradients of the warped I1
  const FlowField& u0;    ///< linearization point
  const FlowField& u;     ///< current flow estimate
  float lambda;           ///< data weight
  float theta;            ///< coupling
};

/// Evaluates rho(u) pointwise.
[[nodiscard]] Matrix<float> residual(const ThresholdInputs& in);

/// The thresholding (shrink) step; returns the support field v.
[[nodiscard]] FlowField threshold_step(const ThresholdInputs& in);

}  // namespace chambolle::tvl1
