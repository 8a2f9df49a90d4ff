#include "tvl1/pyramid.hpp"

#include <stdexcept>

#include "grid/transfer.hpp"

namespace chambolle::tvl1 {

// downsample2 / upsample_to are thin wrappers over the shared grid-transfer
// module (grid/transfer.hpp) since the resident engine's coarse-grid
// correction started needing the same operators: one definition of the
// restriction convention, one set of invariant tests.  The shared ops keep
// the exact historical arithmetic, so the rebased pyramid is bit-identical
// to its pre-refactor output (pinned by tests/grid_transfer_test.cpp).

Image downsample2(const Image& img) { return grid::restrict_half(img); }

Image upsample_to(const Image& img, int rows, int cols) {
  Image out;
  grid::prolong_bilinear_into(img, rows, cols, out);
  return out;
}

void upsample_flow_component(const FlowField& flow, int k, int rows, int cols,
                             Matrix<float>& out) {
  const float scale =
      k == 0 ? static_cast<float>(cols) / static_cast<float>(flow.cols())
             : static_cast<float>(rows) / static_cast<float>(flow.rows());
  grid::prolong_bilinear_into(k == 0 ? flow.u1 : flow.u2, rows, cols, out);
  for (float& v : out) v *= scale;
}

FlowField upsample_flow(const FlowField& flow, int rows, int cols) {
  FlowField out;
  upsample_flow_component(flow, 0, rows, cols, out.u1);
  upsample_flow_component(flow, 1, rows, cols, out.u2);
  return out;
}

Pyramid::Pyramid(const Image& base, int max_levels, int min_dim) {
  if (max_levels < 1) throw std::invalid_argument("Pyramid: max_levels < 1");
  if (base.rows() < 1 || base.cols() < 1)
    throw std::invalid_argument("Pyramid: empty base image");
  levels_.push_back(base);
  while (static_cast<int>(levels_.size()) < max_levels) {
    const Image& prev = levels_.back();
    if (grid::coarse_extent(prev.rows()) < min_dim ||
        grid::coarse_extent(prev.cols()) < min_dim)
      break;
    levels_.push_back(downsample2(prev));
  }
}

}  // namespace chambolle::tvl1
