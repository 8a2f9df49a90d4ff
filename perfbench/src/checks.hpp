// checks.hpp — the output checks every run makes.  A run whose outputs fail
// any of them reports "correct": false and exits non-zero.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chambolle/params.hpp"
#include "chambolle/tiled_solver.hpp"
#include "common/image.hpp"
#include "serving/flow_service.hpp"

namespace perfbench {

/// Collected check failures; empty means every check passed.
class Problems {
 public:
  void add(std::string what) {
    if (!what.empty()) list_.push_back(std::move(what));
  }
  [[nodiscard]] bool ok() const { return list_.empty(); }
  [[nodiscard]] const std::vector<std::string>& list() const { return list_; }

 private:
  std::vector<std::string> list_;
};

/// "" when `got` has the shape and the exact bytes of `want`.
[[nodiscard]] std::string compare_bytes(const chambolle::Matrix<float>& got,
                                        const chambolle::Matrix<float>& want,
                                        const std::string& what);
[[nodiscard]] std::string compare_flow(const chambolle::FlowField& got,
                                       const chambolle::FlowField& want,
                                       const std::string& what);

/// 64-bit FNV-1a digest of the shape and bytes of `m`, word by word.
[[nodiscard]] std::uint64_t digest(const chambolle::Matrix<float>& m);

/// "" when a reply's payload is usable: a kOk Chambolle reply carries a
/// non-empty, all-finite u; a kOk flow reply a non-empty, all-finite flow.
[[nodiscard]] std::string check_payload(const chambolle::serving::Reply& r,
                                        bool flow_mode);

/// Reply counts of one run, from the client's side.
struct Books {
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t primed = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;  ///< exceptions, kClosed, and failed payloads
};

/// "" when completed + shed + failed == submitted, and the counters of the
/// service that served exactly these requests agree with the client's.
[[nodiscard]] std::string check_books(const Books& client,
                                      const chambolle::serving::ServiceStats& service);

/// One Chambolle-mode session's served chain: the inputs of its kOk
/// replies in submit order, each reply's digest, and the first replies in
/// full.
struct Chain {
  std::string name;
  std::vector<const chambolle::Matrix<float>*> inputs;
  std::vector<std::uint64_t> digests;
  std::vector<chambolle::Matrix<float>> kept;
};

/// Replays `chain` serially on a fresh ResidentTiledEngine (cold first
/// solve, then warm-started from the previous solve's duals, the fixed
/// run() schedule) and compares every reply: the kept ones byte for byte,
/// the rest by digest.  When `warm_ms` is given, the time of each
/// warm-started solve (reset_v, run, snapshot, result) is appended to it:
/// the served request's work, called directly with no service around it.
[[nodiscard]] std::string check_chain(const Chain& chain,
                                      const chambolle::ChambolleParams& params,
                                      const chambolle::TiledSolverOptions& options,
                                      std::vector<double>* warm_ms = nullptr);

}  // namespace perfbench
