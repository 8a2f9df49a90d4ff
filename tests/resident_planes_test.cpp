// resident_planes_test.cpp — the K-plane resident engine.  A 2-plane engine
// must be memcmp-equal, plane by plane, to two single-plane engines: under
// the fixed, retirement and multilevel policies, at 1-4 lanes, on frames
// with fewer tiles than lanes, a single tile and 540p, and across
// reset_v/reset_duals reuse.  Also pins compute_flow's kResident digests
// (which run both flow components as the planes of one engine) to the
// values of the two-engine pipeline.  The suite name matches the CI TSan
// filter (*Resident*) and the ASan+UBSan multilevel smoke filter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "chambolle/resident_tiled.hpp"
#include "common/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "tvl1/tvl1.hpp"
#include "workloads/synthetic.hpp"

namespace chambolle {
namespace {

// The regime where retirement and the coarse correction both act: smooth
// content under a large coupling weight (see resident_multilevel_test.cpp).
ChambolleParams stiff_params_with(int iterations) {
  ChambolleParams p;
  p.theta = 50.f;
  p.tau = 0.25f * p.theta;
  p.iterations = iterations;
  return p;
}

RunPolicy retiring(float tolerance, int patience) {
  RunPolicy p;
  p.retire = RetirementRule{tolerance, patience};
  return p;
}

// Corrections at every post-baseline firing (gate_factor 0) that resurrect
// any retired tile they touch (unretire_factor 0): the firing window, the
// per-plane correctors and the resurrection path all get exercised.
RunPolicy eager_multilevel(float tolerance, int period) {
  RunPolicy p = retiring(tolerance, 1);
  p.multilevel.period = period;
  p.multilevel.gate_factor = 0.f;
  p.multilevel.unretire_factor = 0.f;
  return p;
}

Matrix<float> random_v(int rows, int cols, std::uint64_t seed) {
  Rng rng(seed);
  return random_image(rng, rows, cols, -3.f, 3.f);
}

void expect_memcmp_eq(const Matrix<float>& a, const Matrix<float>& b,
                      const std::string& what) {
  ASSERT_TRUE(a.same_shape(b)) << what;
  EXPECT_EQ(0, std::memcmp(a.data().data(), b.data().data(),
                           a.size() * sizeof(float)))
      << what;
}

std::vector<const Matrix<float>*> pointers(const std::vector<Matrix<float>>& v) {
  std::vector<const Matrix<float>*> out;
  for (const Matrix<float>& m : v) out.push_back(&m);
  return out;
}

// One K-plane engine and K single-plane engines over the same fields, driven
// through the same sequence of calls.
class PlanesVsSingles {
 public:
  PlanesVsSingles(const std::vector<Matrix<float>>& v,
                  const ChambolleParams& params,
                  const TiledSolverOptions& options)
      : multi_(pointers(v), params, options) {
    for (const Matrix<float>& m : v)
      singles_.push_back(
          std::make_unique<ResidentTiledEngine>(m, params, options));
  }

  // Runs both sides and checks the report: per-plane slices and sums equal
  // the single-plane reports.
  void run(int iterations, const RunPolicy& policy, const std::string& what) {
    const RunReport got = multi_.run(iterations, policy);
    ASSERT_EQ(got.planes, static_cast<int>(singles_.size())) << what;
    std::size_t offset = 0;
    RunReport sum;
    for (std::size_t k = 0; k < singles_.size(); ++k) {
      const RunReport want = singles_[k]->run(iterations, policy);
      const std::string where = what + " plane " + std::to_string(k);
      EXPECT_EQ(got.pass_cap, want.pass_cap) << where;
      EXPECT_EQ(got.plane_iterations[k], want.total_iterations) << where;
      for (std::size_t t = 0; t < want.tiles; ++t) {
        EXPECT_EQ(got.tile_passes[offset + t], want.tile_passes[t]) << where;
        EXPECT_EQ(got.tile_residuals[offset + t], want.tile_residuals[t])
            << where;
      }
      offset += want.tiles;
      sum.tiles += want.tiles;
      sum.tiles_converged += want.tiles_converged;
      sum.total_tile_passes += want.total_tile_passes;
      sum.total_iterations += want.total_iterations;
      sum.coarse_solves += want.coarse_solves;
      sum.coarse_gated += want.coarse_gated;
      sum.tiles_unretired += want.tiles_unretired;
      sum.coarse_levels = want.coarse_levels;
      sum.last_correction_max =
          std::max(sum.last_correction_max, want.last_correction_max);
    }
    EXPECT_EQ(got.tiles, sum.tiles) << what;
    EXPECT_EQ(got.tiles_converged, sum.tiles_converged) << what;
    EXPECT_EQ(got.total_tile_passes, sum.total_tile_passes) << what;
    EXPECT_EQ(got.total_iterations, sum.total_iterations) << what;
    // A plane whose tiles have all retired takes no firing its single-plane
    // engine would not have run: the correctors' call counts add up.
    EXPECT_EQ(got.coarse_solves, sum.coarse_solves) << what;
    EXPECT_EQ(got.coarse_gated, sum.coarse_gated) << what;
    EXPECT_EQ(got.tiles_unretired, sum.tiles_unretired) << what;
    EXPECT_EQ(got.coarse_levels, sum.coarse_levels) << what;
    EXPECT_EQ(got.last_correction_max, sum.last_correction_max) << what;
    last_ = got;
  }

  // Compares every plane's duals and primal with its single-plane engine.
  void expect_same_state(const std::string& what) const {
    std::vector<Matrix<float>> u(singles_.size());
    std::vector<Matrix<float>*> out;
    for (Matrix<float>& m : u) out.push_back(&m);
    multi_.result_into(out);
    for (std::size_t k = 0; k < singles_.size(); ++k) {
      const std::string where = what + " plane " + std::to_string(k);
      const ChambolleResult want = singles_[k]->result();
      DualField got;
      multi_.snapshot(static_cast<int>(k), got);
      expect_memcmp_eq(got.px, want.p.px, where + " px");
      expect_memcmp_eq(got.py, want.p.py, where + " py");
      expect_memcmp_eq(u[k], want.u, where + " u");
    }
  }

  void reset_v(const std::vector<Matrix<float>>& v, bool zero_duals = false) {
    multi_.reset_v(pointers(v), zero_duals);
    for (std::size_t k = 0; k < singles_.size(); ++k) {
      singles_[k]->reset_v(v[k]);
      if (zero_duals) singles_[k]->reset_duals();
    }
  }

  void reset_duals() {
    multi_.reset_duals();
    for (auto& s : singles_) s->reset_duals();
  }

  [[nodiscard]] const RunReport& last() const { return last_; }

 private:
  ResidentTiledEngine multi_;
  std::vector<std::unique_ptr<ResidentTiledEngine>> singles_;
  RunReport last_;
};

struct Shape {
  const char* name;
  int rows, cols;
  int tile_rows, tile_cols;
};

// Fewer tiles than lanes (1 x 2 tiles of the paper's 88 x 92 window), one
// tile, and a 4 x 4 grid.
constexpr Shape kSmallShapes[] = {
    {"68x120", 68, 120, 88, 92},
    {"one-tile", 40, 56, 88, 92},
    {"grid", 96, 96, 24, 24},
};

TiledSolverOptions options_for(const Shape& s, parallel::ThreadPool& pool,
                               int lanes) {
  TiledSolverOptions opt;
  opt.tile_rows = s.tile_rows;
  opt.tile_cols = s.tile_cols;
  opt.merge_iterations = 4;
  opt.num_threads = lanes;
  opt.pool = &pool;
  return opt;
}

std::vector<Matrix<float>> two_fields(const Shape& s, std::uint64_t seed) {
  return {workloads::smooth_texture(s.rows, s.cols, seed),
          random_v(s.rows, s.cols, seed + 1)};
}

void check_policy(const RunPolicy& policy, const ChambolleParams& params,
                  const char* name) {
  parallel::ThreadPool pool(4);
  for (const Shape& s : kSmallShapes) {
    for (int lanes = 1; lanes <= 4; ++lanes) {
      const std::string what = std::string(name) + " " + s.name + " lanes " +
                               std::to_string(lanes);
      PlanesVsSingles e(two_fields(s, 9100), params,
                        options_for(s, pool, lanes));
      e.run(params.iterations, policy, what);
      e.expect_same_state(what);
    }
  }
}

TEST(ResidentPlanes, FixedPolicyMatchesSinglePlaneEngines) {
  check_policy(RunPolicy{}, stiff_params_with(30), "fixed");
}

TEST(ResidentPlanes, RetirementPolicyMatchesSinglePlaneEngines) {
  check_policy(retiring(3e-3f, 1), stiff_params_with(40), "retire");
}

TEST(ResidentPlanes, MultilevelPolicyMatchesSinglePlaneEngines) {
  check_policy(eager_multilevel(3e-3f, 2), stiff_params_with(40),
               "multilevel");
}

TEST(ResidentPlanes, RetirementActuallyRetiresInThePolicyTests) {
  // Guards the two tests above against a tolerance that retires nothing
  // (which would make them fixed-policy tests in disguise).
  parallel::ThreadPool pool(4);
  const Shape& s = kSmallShapes[2];
  PlanesVsSingles e(two_fields(s, 9100), stiff_params_with(40),
                    options_for(s, pool, 2));
  e.run(40, retiring(3e-3f, 1), "retire");
  EXPECT_GT(e.last().tiles_converged, 0u);
  EXPECT_LT(e.last().tiles_converged, e.last().tiles);
  e.reset_duals();
  e.run(40, eager_multilevel(3e-3f, 2), "multilevel");
  EXPECT_GE(e.last().coarse_solves, 1u);
  EXPECT_GT(e.last().tiles_unretired, 0u);
}

TEST(ResidentPlanes, RetiredPlaneTakesNoFurtherFirings) {
  // Plane 0 is constant: every tile retires at its first pass, so its
  // single-plane engine ends at the first firing that finds it finished.
  // Plane 1 keeps running and firing.  The K-plane engine must not feed
  // plane 0 the later firings (the report's corrector counts and plane 0's
  // state would both show it).
  parallel::ThreadPool pool(4);
  const Shape s{"grid", 96, 96, 24, 24};
  std::vector<Matrix<float>> v = {Matrix<float>(96, 96, 0.25f),
                                  workloads::smooth_texture(96, 96, 9200)};
  RunPolicy policy = retiring(1e-6f, 1);
  policy.multilevel.period = 2;
  policy.multilevel.gate_factor = 0.f;
  for (int lanes = 1; lanes <= 4; ++lanes) {
    const std::string what = "lanes " + std::to_string(lanes);
    PlanesVsSingles e(v, stiff_params_with(48), options_for(s, pool, lanes));
    e.run(48, policy, what);
    e.expect_same_state(what);
  }
  // The setup really is lopsided: the constant plane stops firing early.
  ResidentTiledEngine flat(v[0], stiff_params_with(48),
                           options_for(s, pool, 2));
  ResidentTiledEngine busy(v[1], stiff_params_with(48),
                           options_for(s, pool, 2));
  const RunReport a = flat.run(48, policy);
  const RunReport b = busy.run(48, policy);
  EXPECT_LT(a.coarse_solves + a.coarse_gated, b.coarse_solves + b.coarse_gated);
}

TEST(ResidentPlanes, Frame540pMatchesSinglePlaneEngines) {
  parallel::ThreadPool pool(4);
  const Shape s{"540p", 540, 960, 88, 92};
  const std::vector<Matrix<float>> v = {random_v(540, 960, 9300),
                                        workloads::smooth_texture(540, 960, 9301)};
  const ChambolleParams params = stiff_params_with(8);
  const RunPolicy policies[] = {RunPolicy{}, retiring(5e-2f, 1),
                                eager_multilevel(5e-2f, 1)};
  const char* names[] = {"fixed", "retire", "multilevel"};
  for (int p = 0; p < 3; ++p) {
    for (int lanes = 1; lanes <= 4; ++lanes) {
      const std::string what = std::string(names[p]) + " lanes " +
                               std::to_string(lanes);
      PlanesVsSingles e(v, params, options_for(s, pool, lanes));
      e.run(params.iterations, policies[p], what);
      e.expect_same_state(what);
      if (p > 0) {
        EXPECT_GT(e.last().tiles_converged + e.last().tiles_unretired, 0u)
            << what;
      }
    }
  }
}

TEST(ResidentPlanes, ReuseAcrossResetsMatchesSinglePlaneEngines) {
  // Warm reset_v (duals stay resident), cold reset_duals, and a policy
  // switch between runs: the K-plane engine tracks the single-plane ones
  // through the whole sequence.
  parallel::ThreadPool pool(4);
  const Shape& s = kSmallShapes[2];
  const ChambolleParams params = stiff_params_with(20);
  for (int lanes = 1; lanes <= 4; ++lanes) {
    const std::string what = "lanes " + std::to_string(lanes);
    PlanesVsSingles e(two_fields(s, 9400), params, options_for(s, pool, lanes));
    e.run(20, retiring(3e-3f, 1), what + " run 1");
    e.expect_same_state(what + " run 1");
    e.reset_v(two_fields(s, 9410));  // warm start
    e.run(22, RunPolicy{}, what + " warm");
    e.expect_same_state(what + " warm");
    e.run(12, eager_multilevel(3e-3f, 1), what + " continued");
    e.expect_same_state(what + " continued");
    e.reset_duals();
    e.expect_same_state(what + " zeroed");
    e.reset_v(two_fields(s, 9420));
    e.run(20, eager_multilevel(3e-3f, 2), what + " cold");
    e.expect_same_state(what + " cold");
    e.reset_v(two_fields(s, 9430), /*zero_duals=*/true);
    e.expect_same_state(what + " reloaded cold");
    e.run(16, retiring(3e-3f, 2), what + " after cold reload");
    e.expect_same_state(what + " after cold reload");
  }
}

TEST(ResidentPlanes, SinglePlaneFormsAreTheOnePlaneCase) {
  // The single-plane constructor and the span constructor with one plane
  // build the same engine.
  parallel::ThreadPool pool(2);
  const Matrix<float> v = random_v(96, 96, 9500);
  TiledSolverOptions opt = options_for(kSmallShapes[2], pool, 2);
  const ChambolleParams params = stiff_params_with(20);
  ResidentTiledEngine single(v, params, opt);
  const Matrix<float>* in[] = {&v};
  ResidentTiledEngine one(in, params, opt);
  EXPECT_EQ(one.planes(), 1);
  single.run(20);
  one.run(20);
  const ChambolleResult a = single.result();
  const ChambolleResult b = one.result();
  expect_memcmp_eq(a.u, b.u, "u");
  expect_memcmp_eq(a.p.px, b.p.px, "px");
  expect_memcmp_eq(a.p.py, b.p.py, "py");
}

TEST(ResidentPlanes, ValidatesPlanes) {
  const ChambolleParams params = stiff_params_with(8);
  const TiledSolverOptions opt;
  const Matrix<float> a = random_v(32, 40, 1);
  const Matrix<float> b = random_v(32, 40, 2);
  const Matrix<float> wrong = random_v(32, 41, 3);
  Matrix<float> bad = b;
  bad(3, 4) = std::numeric_limits<float>::quiet_NaN();

  EXPECT_THROW(ResidentTiledEngine(std::span<const Matrix<float>* const>{},
                                   params, opt),
               std::invalid_argument);
  const Matrix<float>* with_null[] = {&a, nullptr};
  EXPECT_THROW(ResidentTiledEngine(with_null, params, opt),
               std::invalid_argument);
  const Matrix<float>* mismatched[] = {&a, &wrong};
  EXPECT_THROW(ResidentTiledEngine(mismatched, params, opt),
               std::invalid_argument);

  const Matrix<float>* planes[] = {&a, &b};
  ResidentTiledEngine engine(planes, params, opt);
  EXPECT_EQ(engine.planes(), 2);
  engine.run(8);
  std::vector<Matrix<float>> before(2);
  Matrix<float>* out[] = {&before[0], &before[1]};
  engine.result_into(out);

  // Single-plane forms are rejected on a 2-plane engine.
  DualField d;
  EXPECT_THROW(engine.snapshot(d), std::logic_error);
  EXPECT_THROW((void)engine.result(), std::logic_error);
  EXPECT_THROW(engine.reset_v(a), std::logic_error);
  EXPECT_THROW(engine.snapshot(2, d), std::invalid_argument);

  // A rejected reset_v leaves every plane as it was.
  const Matrix<float>* one[] = {&a};
  EXPECT_THROW(engine.reset_v(one), std::invalid_argument);
  const Matrix<float>* nan_plane[] = {&a, &bad};
  EXPECT_THROW(engine.reset_v(nan_plane), std::invalid_argument);
  const Matrix<float>* wrong_shape[] = {&a, &wrong};
  EXPECT_THROW(engine.reset_v(wrong_shape), std::invalid_argument);
  Matrix<float>* one_out[] = {&before[0]};
  EXPECT_THROW(engine.result_into(one_out), std::invalid_argument);
  std::vector<Matrix<float>> after(2);
  Matrix<float>* out_after[] = {&after[0], &after[1]};
  engine.result_into(out_after);
  expect_memcmp_eq(after[0], before[0], "plane 0 after rejected calls");
  expect_memcmp_eq(after[1], before[1], "plane 1 after rejected calls");
}

// --- compute_flow digests --------------------------------------------------

// FNV-1a (64-bit) over both components' shapes and bytes.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t flow_digest(const FlowField& f) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Matrix<float>* m : {&f.u1, &f.u2}) {
    const int shape[2] = {m->rows(), m->cols()};
    h = fnv1a(h, shape, sizeof shape);
    h = fnv1a(h, m->data().data(), m->size() * sizeof(float));
  }
  return h;
}

enum class Policy { kFixed, kRetire, kMultilevel };

struct DigestCase {
  const char* name;
  Policy policy;
  bool median;
  bool warm;
  /// compute_flow's digest when each flow component ran on its own
  /// single-plane engine (two engine runs per warp).
  std::uint64_t digest;
};

constexpr DigestCase kDigestCases[] = {
    {"fixed", Policy::kFixed, false, false, 0x6895ac0a633a4215ULL},
    {"fixed+median", Policy::kFixed, true, false, 0xd3eae971810c4534ULL},
    {"retire", Policy::kRetire, false, false, 0xd1f279b137eda0f6ULL},
    {"retire+median", Policy::kRetire, true, false, 0xe2a5044e8e873be7ULL},
    {"multilevel", Policy::kMultilevel, false, false, 0x3953dde3db6d2628ULL},
    {"multilevel+median", Policy::kMultilevel, true, false,
     0x95672c9eefdd07bcULL},
    {"fixed+warm", Policy::kFixed, false, true, 0x95e4f31268ddee3eULL},
    {"retire+warm+median", Policy::kRetire, true, true, 0xdd1edde9e780f14bULL},
};

tvl1::Tvl1Params digest_params(const DigestCase& c, parallel::ThreadPool& pool,
                               int lanes) {
  tvl1::Tvl1Params p;
  p.pyramid_levels = 3;
  p.warps = 3;
  p.chambolle.iterations = 20;
  p.solver = tvl1::InnerSolver::kResident;
  p.tiled.tile_rows = 24;
  p.tiled.tile_cols = 24;
  p.tiled.merge_iterations = 4;
  p.tiled.pool = &pool;
  p.tiled.num_threads = lanes;
  p.median_filtering = c.median;
  p.warm_start_duals = c.warm;
  if (c.policy != Policy::kFixed)
    p.resident_policy.retire = RetirementRule{2e-2f, 1};
  if (c.policy == Policy::kMultilevel) {
    p.resident_policy.multilevel.period = 2;
    p.resident_policy.multilevel.gate_factor = 0.f;
  }
  return p;
}

TEST(ResidentPlanes, ComputeFlowDigestsMatchTwoEnginePipeline) {
  parallel::ThreadPool pool(3);
  const auto wl = workloads::translating_scene(72, 88, 1.5f, 0.5f, 41);
  for (const DigestCase& c : kDigestCases) {
    for (int lanes = 1; lanes <= 3; ++lanes) {
      tvl1::Tvl1Stats stats;
      const FlowField f = tvl1::compute_flow(
          wl.frame0, wl.frame1, digest_params(c, pool, lanes), &stats);
      EXPECT_EQ(flow_digest(f), c.digest)
          << c.name << " lanes " << lanes;
      EXPECT_EQ(stats.inner_runs, 3 * 3) << c.name;
    }
  }
}

}  // namespace
}  // namespace chambolle
