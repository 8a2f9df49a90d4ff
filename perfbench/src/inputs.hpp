// inputs.hpp — seeded input generation.  Everything here runs before any
// timed phase; the program under test only ever sees the generated data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/image.hpp"

namespace perfbench {

/// One stream's inputs: video frames (flow mode) or v-fields (Chambolle
/// mode).  truth[k] is the analytic flow from inputs[k] to inputs[k + 1]
/// (flow streams only).
struct StreamInputs {
  std::vector<chambolle::Matrix<float>> inputs;
  std::vector<chambolle::FlowField> truth;
};

/// Index of the input a stream sends at `position`: the stream plays its
/// inputs forwards then backwards (0 1 .. n-1 n-2 .. 1 0 1 ..), so every
/// consecutive pair is a real, small motion.
[[nodiscard]] std::size_t input_index(std::uint64_t position, std::size_t n);

/// Frames of flow stream `stream` (0, 1: pan; 2, 3: rotation) at
/// rows x cols; the seed picks the texture, the stream the motion.
[[nodiscard]] StreamInputs flow_stream(std::uint64_t seed, int stream,
                                       int rows, int cols, int frames);

/// `count` v-fields on [-3, 3] from a seeded pan sequence.
[[nodiscard]] StreamInputs pan_fields(std::uint64_t seed, int rows, int cols,
                                      int count);

/// `count` uniform random v-fields on [-3, 3].
[[nodiscard]] StreamInputs random_fields(std::uint64_t seed, int rows,
                                         int cols, int count);

}  // namespace perfbench
