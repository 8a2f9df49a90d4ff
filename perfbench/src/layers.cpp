#include "layers.hpp"

#include <memory>
#include <numeric>
#include <optional>

#include "chambolle/resident_tiled.hpp"
#include "chambolle/solver.hpp"
#include "chambolle/tile.hpp"
#include "common/rng.hpp"
#include "inputs.hpp"
#include "kernels/kernel.hpp"
#include "parallel/thread_pool.hpp"
#include "stats.hpp"
#include "tvl1/pyramid.hpp"
#include "tvl1/threshold.hpp"
#include "tvl1/tvl1.hpp"
#include "tvl1/warp.hpp"

namespace perfbench {
namespace {

using chambolle::ChambolleParams;
using chambolle::FlowField;
using chambolle::Matrix;
using chambolle::ResidentTiledEngine;
using chambolle::TiledSolverOptions;
using chambolle::parallel::ThreadPool;

// The fused kernel streams five matrix accesses per cell and iteration
// (v read, px and py read and written); the two-row Term window stays in
// cache.  A computed figure, not a measurement.
constexpr double kComputedBytesPerCell = 5.0 * sizeof(float);

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// ---------------------------------------------------------------------------
// parallel: the cost of entering and leaving one empty parallel region.

double region_entry_us(Tracer& tracer, int lanes) {
  ThreadPool pool(lanes);
  const ThreadPool::TeamFn empty = [](int, int, chambolle::parallel::Barrier&) {};
  pool.run_team(lanes, empty);  // workers started before timing
  constexpr int kCalls = 2000;
  std::vector<double> us;
  for (int batch = 0; batch < 5; ++batch) {
    Scope span(tracer, "parallel.run_team_x" + std::to_string(kCalls));
    const Clock::time_point t = Clock::now();
    for (int i = 0; i < kCalls; ++i) pool.run_team(lanes, empty);
    us.push_back(seconds_between(t, Clock::now()) * 1e6 / kCalls);
  }
  return median(us);
}

// ---------------------------------------------------------------------------
// kernels: single-thread Mcells/s of iterate_region_fused on one region.

double kernel_mcells(Tracer& tracer, const char* name, int rows, int cols,
                     const chambolle::RegionGeometry& geom, std::uint64_t seed) {
  chambolle::Rng rng(seed);
  Matrix<float> px = chambolle::random_image(rng, rows, cols, -0.7f, 0.7f);
  Matrix<float> py = chambolle::random_image(rng, rows, cols, -0.7f, 0.7f);
  const Matrix<float> v = chambolle::random_image(rng, rows, cols, -2.f, 2.f);
  Matrix<float> scratch;
  const ChambolleParams params;
  const float inv_theta = 1.f / params.theta;
  const float step = params.step();
  constexpr int kIters = 4;  // one pass at the default merge depth
  const auto call = [&] {
    chambolle::kernels::iterate_region_fused(px, py, v, geom, inv_theta, step,
                                             kIters, scratch);
  };
  call();
  const double cells = static_cast<double>(rows) * cols * kIters;
  std::vector<double> mcells;
  for (int window = 0; window < 7; ++window) {
    Scope span(tracer, std::string("kernel.") + name);
    const Clock::time_point t = Clock::now();
    long calls = 0;
    double s = 0.0;
    do {
      call();
      ++calls;
      s = seconds_between(t, Clock::now());
    } while (s < 0.04);
    mcells.push_back(cells * static_cast<double>(calls) / s / 1e6);
  }
  return median(mcells);
}

// ---------------------------------------------------------------------------
// chambolle: the resident engine's phases on one field.

struct EngineTimes {
  double build_ms = 0.0, reset_ms = 0.0, run_ms = 0.0, stall_ms = 0.0,
         result_ms = 0.0, halo_bytes_per_pass = 0.0, redundant_fraction = 0.0;
};

EngineTimes engine_phases(Tracer& tracer, const std::string& tag,
                          const std::vector<Matrix<float>>& fields,
                          const ChambolleParams& params, ThreadPool& pool,
                          int reps) {
  TiledSolverOptions opts;
  opts.pool = &pool;
  std::vector<double> build, reset, run, stall, result;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t = Clock::now();
    {
      Scope span(tracer, tag + ".build");
      ResidentTiledEngine e(fields[0], params, opts);
    }
    build.push_back(seconds_between(t, Clock::now()) * 1e3);
  }
  ResidentTiledEngine engine(fields[0], params, opts);
  engine.run(params.iterations);  // warm: pages touched, lanes spun up
  for (int r = 0; r < reps; ++r) {
    const Matrix<float>& v = fields[static_cast<std::size_t>(r + 1) % fields.size()];
    Clock::time_point t = Clock::now();
    {
      Scope span(tracer, tag + ".reset");
      engine.reset_v(v);
      engine.reset_duals();
    }
    reset.push_back(seconds_between(t, Clock::now()) * 1e3);
    const double stall0 = engine.stats().stall_seconds;
    t = Clock::now();
    {
      Scope span(tracer, tag + ".run");
      engine.run(params.iterations);
    }
    run.push_back(seconds_between(t, Clock::now()) * 1e3);
    stall.push_back((engine.stats().stall_seconds - stall0) * 1e3);
    t = Clock::now();
    {
      Scope span(tracer, tag + ".result");
      (void)engine.result();
    }
    result.push_back(seconds_between(t, Clock::now()) * 1e3);
  }
  EngineTimes out{median(build), median(reset), median(run), median(stall),
                  median(result), 0.0, 0.0};
  const auto& st = engine.stats();
  out.halo_bytes_per_pass = st.passes > 0 ? static_cast<double>(st.halo_bytes_exchanged) / st.passes : 0.0;
  const double buffers = static_cast<double>(engine.plan().total_buffer_elements());
  out.redundant_fraction =
      buffers > 0.0 ? 1.0 - static_cast<double>(engine.rows()) * engine.cols() / buffers : 0.0;
  return out;
}

// ---------------------------------------------------------------------------
// tvl1: one served frame's coarse-to-fine loop, replayed through the public
// pieces, with the resident engine as the inner solver.

Matrix<float> normalized(const Matrix<float>& frame) {
  Matrix<float> out = frame;  // as tvl1 does it: intensities * (1/255)
  for (float& x : out) x *= (1.f / 255.f);
  return out;
}

void inner_solve(Tracer& tracer, const Matrix<float>& v,
                 const chambolle::tvl1::Tvl1Params& params, Matrix<float>& out,
                 std::unique_ptr<ResidentTiledEngine>& engine) {
  if (!engine || engine->rows() != v.rows() || engine->cols() != v.cols()) {
    Scope span(tracer, "tvl1.chambolle.build");
    engine = std::make_unique<ResidentTiledEngine>(v, params.chambolle, params.tiled);
  } else {
    Scope span(tracer, "tvl1.chambolle.reset");
    engine->reset_v(v);
    engine->reset_duals();
  }
  {
    Scope span(tracer, "tvl1.chambolle.run");
    engine->run(params.chambolle.iterations);
  }
  Scope span(tracer, "tvl1.chambolle.result");
  out = engine->result().u;
}

/// Flow from the cached pyramid `p0` to `frame`; `fine_v` receives the
/// finest level's last v-field (first component).
FlowField replay_frame(Tracer& tracer, std::uint64_t id,
                       const chambolle::tvl1::Pyramid& p0, const Matrix<float>& frame,
                       const chambolle::tvl1::Tvl1Params& params,
                       Matrix<float>& fine_v) {
  using namespace chambolle::tvl1;
  Scope frame_span(tracer, "tvl1.frame", id);
  const Pyramid p1 = [&] {
    Scope span(tracer, "tvl1.pyramid");
    return Pyramid(normalized(frame), params.pyramid_levels);
  }();
  const int levels = std::min(p0.levels(), p1.levels());
  FlowField u;
  std::unique_ptr<ResidentTiledEngine> e1, e2;
  for (int level = levels - 1; level >= 0; --level) {
    Scope level_span(tracer, level > 0 ? "tvl1.level.coarse" : "tvl1.level.fine");
    const Matrix<float>& l0 = p0.level(level);
    const Matrix<float>& l1 = p1.level(level);
    if (level == levels - 1) {
      u = FlowField(l0.rows(), l0.cols());
    } else {
      Scope span(tracer, "tvl1.upsample");
      u = upsample_flow(u, l0.rows(), l0.cols());
    }
    for (int w = 0; w < params.warps; ++w) {
      const FlowField u0 = u;
      const WarpResult wr = [&] {
        Scope span(tracer, "tvl1.warp");
        return warp_with_gradients(l1, u0);
      }();
      const ThresholdInputs in{l0, wr.warped, wr.grad, u0, u,
                               params.lambda, params.chambolle.theta};
      const FlowField v = [&] {
        Scope span(tracer, "tvl1.threshold");
        return threshold_step(in);
      }();
      inner_solve(tracer, v.u1, params, u.u1, e1);
      inner_solve(tracer, v.u2, params, u.u2, e2);
      if (level == 0 && w == params.warps - 1) fine_v = v.u1;
    }
  }
  return u;
}

}  // namespace

std::vector<Metric> run_layers(Tracer& tracer, std::uint64_t seed,
                               Problems& problems) {
  std::vector<Metric> m;

  // parallel
  m.push_back({"parallel.region_entry_us_2lanes", region_entry_us(tracer, 2), "us"});
  m.push_back({"parallel.region_entry_us_4lanes", region_entry_us(tracer, 4), "us"});

  double tile_mcells = 0.0;
  // kernels: an interior tile window of the default 88x92 tiling, a
  // 9-column halo strip of it, and a whole 1024x768 frame.
  {
    const chambolle::TilingPlan plan = chambolle::make_tiling(768, 1024, 88, 92, 4);
    const chambolle::TileSpec* tile = &plan.tiles.front();
    for (const auto& t : plan.tiles)
      if (t.buf_row0 > 0 && t.buf_col0 > 0 && t.buf_rows == 88 && t.buf_cols == 92) {
        tile = &t;
        break;
      }
    const chambolle::RegionGeometry geom{tile->buf_row0, tile->buf_col0, 768, 1024};
    tile_mcells = kernel_mcells(tracer, "tile", tile->buf_rows, tile->buf_cols, geom, seed);
    m.push_back({"kernel.tile_mcells_per_s", tile_mcells, "Mcells/s"});
    m.push_back({"kernel.strip_mcells_per_s",
                 kernel_mcells(tracer, "strip", tile->buf_rows, 9, geom, seed), "Mcells/s"});
    m.push_back({"kernel.frame_mcells_per_s",
                 kernel_mcells(tracer, "frame", 768, 1024,
                               chambolle::RegionGeometry::full_frame(768, 1024), seed),
                 "Mcells/s"});
    m.push_back({"kernel.computed_bytes_per_cell", kComputedBytesPerCell, "B"});
  }

  // chambolle: the rof_768p_200it field on 4 lanes and on 1 lane, and the
  // sequential reference solver.
  {
    const StreamInputs fields = pan_fields(seed, 768, 1024, 3);
    ChambolleParams params;
    params.iterations = 200;
    ThreadPool pool(4);
    const EngineTimes e = engine_phases(tracer, "engine", fields.inputs, params, pool, 5);
    const double cells = 768.0 * 1024.0 * params.iterations;
    const double mcells = cells / (e.run_ms * 1e-3) / 1e6;
    m.push_back({"engine.build_ms", e.build_ms, "ms"});
    m.push_back({"engine.reset_ms", e.reset_ms, "ms"});
    m.push_back({"engine.run_ms", e.run_ms, "ms"});
    m.push_back({"engine.stall_ms", e.stall_ms, "ms"});
    m.push_back({"engine.result_ms", e.result_ms, "ms"});
    m.push_back({"engine.mcells_per_s", mcells, "Mcells/s"});
    m.push_back({"engine.lane_efficiency", mcells / (4.0 * tile_mcells), "ratio"});
    m.push_back({"engine.halo_bytes_per_pass", e.halo_bytes_per_pass, "B"});
    m.push_back({"engine.redundant_fraction", e.redundant_fraction, "ratio"});
    ThreadPool one(1);
    const EngineTimes e1 = engine_phases(tracer, "engine.one_lane", fields.inputs, params, one, 3);
    m.push_back({"engine.one_lane_ms", e1.run_ms, "ms"});
    std::vector<double> ref;
    for (int i = 0; i < 3; ++i) {
      const Clock::time_point t = Clock::now();
      {
        Scope span(tracer, "reference.solve");
        (void)chambolle::solve(fields.inputs[static_cast<std::size_t>(i)], params);
      }
      ref.push_back(seconds_between(t, Clock::now()) * 1e3);
    }
    m.push_back({"reference.solve_ms", median(ref), "ms"});
  }

  // tvl1: two flow_540p pairs (a pan and a rotation) on a 2-lane pool.
  {
    ThreadPool pool(2);
    chambolle::tvl1::Tvl1Params params;
    params.solver = chambolle::tvl1::InnerSolver::kResident;
    params.tiled.pool = &pool;
    Matrix<float> fine_v;
    int frames = 0;
    for (const int stream : {0, 2}) {
      const StreamInputs in = flow_stream(seed, stream, 540, 960, 2);
      const chambolle::tvl1::Pyramid p0 = [&] {
        Scope span(tracer, "tvl1.pyramid");
        return chambolle::tvl1::Pyramid(normalized(in.inputs[0]), params.pyramid_levels);
      }();
      const FlowField got = replay_frame(tracer, static_cast<std::uint64_t>(stream) + 1,
                                         p0, in.inputs[1], params, fine_v);
      ++frames;
      const FlowField want = chambolle::tvl1::compute_flow(in.inputs[0], in.inputs[1], params);
      problems.add(compare_flow(got, want, "tvl1 replay of stream " + std::to_string(stream)));
    }
    const double n = frames;
    const double chambolle_ms =
        (sum(tracer.total_ms("tvl1.chambolle.build")) + sum(tracer.total_ms("tvl1.chambolle.reset")) +
         sum(tracer.total_ms("tvl1.chambolle.run")) + sum(tracer.total_ms("tvl1.chambolle.result"))) / n;
    const double frame_ms = sum(tracer.total_ms("tvl1.frame")) / n;
    m.push_back({"tvl1.frame_ms", frame_ms, "ms"});
    m.push_back({"tvl1.pyramid_ms", median(tracer.total_ms("tvl1.pyramid")), "ms"});
    m.push_back({"tvl1.warp_ms", sum(tracer.self_ms("tvl1.warp")) / n, "ms"});
    m.push_back({"tvl1.threshold_ms", sum(tracer.self_ms("tvl1.threshold")) / n, "ms"});
    m.push_back({"tvl1.upsample_ms", sum(tracer.self_ms("tvl1.upsample")) / n, "ms"});
    m.push_back({"tvl1.chambolle_ms", chambolle_ms, "ms"});
    m.push_back({"tvl1.coarse_levels_ms", sum(tracer.total_ms("tvl1.level.coarse")) / n, "ms"});
    m.push_back({"tvl1.chambolle_share", chambolle_ms / frame_ms, "ratio"});
    m.push_back({"tvl1.engine_runs_per_frame",
                 static_cast<double>(tracer.count("tvl1.chambolle.run")) / n, "count"});

    // The finest level's v-field on the same 2 lanes: the flow solve the
    // resident engine spends most of a served frame on.
    const ChambolleParams& fine = params.chambolle;
    const std::vector<Matrix<float>> fields = {fine_v, fine_v};
    const EngineTimes e = engine_phases(tracer, "engine.flow_fine", fields, fine, pool, 10);
    m.push_back({"engine.flow_fine_run_ms", e.run_ms, "ms"});
    m.push_back({"engine.flow_fine_stall_ms", e.stall_ms, "ms"});
    m.push_back({"engine.flow_fine_mcells_per_s",
                 static_cast<double>(fine_v.rows()) * fine_v.cols() * fine.iterations /
                     (e.run_ms * 1e-3) / 1e6,
                 "Mcells/s"});
  }
  return m;
}

}  // namespace perfbench
