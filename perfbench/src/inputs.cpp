#include "inputs.hpp"

#include "common/rng.hpp"
#include "workloads/sequence.hpp"

namespace perfbench {

using chambolle::workloads::MotionKind;
using chambolle::workloads::SequenceParams;

std::size_t input_index(std::uint64_t position, std::size_t n) {
  if (n < 2) return 0;
  const std::uint64_t period = 2 * (n - 1);
  const auto m = static_cast<std::size_t>(position % period);
  return m < n ? m : period - m;
}

StreamInputs flow_stream(std::uint64_t seed, int stream, int rows, int cols,
                         int frames) {
  // Motions per stream: two pans and two rotations of different direction
  // and speed, all within what a 4-level pyramid resolves.
  static constexpr float kPan[2][2] = {{1.5f, 0.5f}, {-1.0f, 0.75f}};
  static constexpr float kRotate[2] = {0.004f, -0.006f};
  SequenceParams sp;
  sp.frames = frames;
  sp.seed = seed * 4 + static_cast<std::uint64_t>(stream);
  if (stream % 4 < 2) {
    sp.kind = MotionKind::kPan;
    sp.rate_x = kPan[stream % 2][0];
    sp.rate_y = kPan[stream % 2][1];
  } else {
    sp.kind = MotionKind::kRotate;
    sp.rate = kRotate[stream % 2];
  }
  auto seq = chambolle::workloads::make_sequence(rows, cols, sp);
  return {std::move(seq.frames), std::move(seq.truth)};
}

StreamInputs pan_fields(std::uint64_t seed, int rows, int cols, int count) {
  SequenceParams sp;
  sp.kind = MotionKind::kPan;
  sp.frames = count;
  sp.seed = seed;
  auto seq = chambolle::workloads::make_sequence(rows, cols, sp);
  StreamInputs out;
  for (auto& f : seq.frames) {
    for (float& x : f) x = x * (6.f / 255.f) - 3.f;
    out.inputs.push_back(std::move(f));
  }
  return out;
}

StreamInputs random_fields(std::uint64_t seed, int rows, int cols, int count) {
  chambolle::Rng rng(seed);
  StreamInputs out;
  for (int i = 0; i < count; ++i)
    out.inputs.push_back(chambolle::random_image(rng, rows, cols, -3.f, 3.f));
  return out;
}

}  // namespace perfbench
