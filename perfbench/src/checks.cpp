#include "checks.hpp"

#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>

#include "chambolle/resident_tiled.hpp"

namespace perfbench {

using chambolle::FlowField;
using chambolle::Matrix;

std::string compare_bytes(const Matrix<float>& got, const Matrix<float>& want,
                          const std::string& what) {
  if (!got.same_shape(want))
    return what + ": shape " + std::to_string(got.rows()) + "x" +
           std::to_string(got.cols()) + " != " + std::to_string(want.rows()) +
           "x" + std::to_string(want.cols());
  if (got.size() != 0 &&
      std::memcmp(got.data().data(), want.data().data(), got.size() * sizeof(float)) != 0)
    return what + ": bytes differ from the replay";
  return "";
}

std::string compare_flow(const FlowField& got, const FlowField& want,
                         const std::string& what) {
  std::string e = compare_bytes(got.u1, want.u1, what + " u1");
  return e.empty() ? compare_bytes(got.u2, want.u2, what + " u2") : e;
}

std::uint64_t digest(const Matrix<float>& m) {
  // FNV-1a over 64-bit words (a trailing odd float is its own word): cheap
  // enough to run on every sampled reply while the service is measured.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t word) {
    h ^= word;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(m.rows())) << 32 |
      static_cast<std::uint32_t>(m.cols()));
  const float* p = m.data().data();
  std::size_t i = 0;
  for (; i + 2 <= m.size(); i += 2) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + i, sizeof word);
    mix(word);
  }
  if (i < m.size()) {
    std::uint32_t last = 0;
    std::memcpy(&last, p + i, sizeof last);
    mix(last);
  }
  return h;
}

namespace {

std::size_t nonfinite(const Matrix<float>& m) {
  std::size_t n = 0;
  for (const float x : m) n += std::isfinite(x) ? 0 : 1;
  return n;
}

}  // namespace

std::string check_payload(const chambolle::serving::Reply& r, bool flow_mode) {
  if (!r.ok()) return "";
  const std::string seq = "reply " + std::to_string(r.sequence);
  if (flow_mode) {
    if (r.flow.u1.size() == 0 || !r.flow.u1.same_shape(r.flow.u2))
      return seq + ": kOk flow reply without a flow";
    const std::size_t bad = nonfinite(r.flow.u1) + nonfinite(r.flow.u2);
    if (bad != 0) return seq + ": kOk flow with " + std::to_string(bad) + " non-finite cells";
  } else {
    if (r.u.size() == 0) return seq + ": kOk reply without u";
    const std::size_t bad = nonfinite(r.u);
    if (bad != 0) return seq + ": kOk u with " + std::to_string(bad) + " non-finite cells";
  }
  return "";
}

std::string check_books(const Books& c,
                        const chambolle::serving::ServiceStats& service) {
  const std::uint64_t completed = c.ok + c.primed;
  if (completed + c.shed + c.failed != c.submitted)
    return "books: completed " + std::to_string(completed) + " + shed " +
           std::to_string(c.shed) + " + failed " + std::to_string(c.failed) +
           " != submitted " + std::to_string(c.submitted);
  const std::uint64_t shed = service.shed_queue_full + service.shed_deadline;
  // A reply the service completed but whose payload failed its check is
  // counted failed by the client, so completed may exceed ok + primed.
  if (shed != c.shed || service.primed != c.primed || service.completed < completed)
    return "books: service reports completed " + std::to_string(service.completed) +
           " primed " + std::to_string(service.primed) + " shed " +
           std::to_string(shed) + ", client saw ok " + std::to_string(c.ok) +
           " primed " + std::to_string(c.primed) + " shed " + std::to_string(c.shed);
  return "";
}

std::string check_chain(const Chain& chain,
                        const chambolle::ChambolleParams& params,
                        const chambolle::TiledSolverOptions& options,
                        std::vector<double>* warm_ms) {
  if (chain.inputs.size() != chain.digests.size())
    return chain.name + ": " + std::to_string(chain.inputs.size()) +
           " inputs but " + std::to_string(chain.digests.size()) + " digests";
  std::unique_ptr<chambolle::ResidentTiledEngine> engine;
  chambolle::DualField duals;
  for (std::size_t i = 0; i < chain.inputs.size(); ++i) {
    const Matrix<float>& v = *chain.inputs[i];
    const auto t0 = std::chrono::steady_clock::now();
    if (!engine)
      engine = std::make_unique<chambolle::ResidentTiledEngine>(v, params, options);
    else
      engine->reset_v(v, &duals);
    engine->run(params.iterations);
    engine->snapshot(duals);
    const Matrix<float> u = engine->result().u;
    if (warm_ms != nullptr && i > 0)
      warm_ms->push_back(
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count());
    const std::string what = chain.name + " reply " + std::to_string(i);
    if (i < chain.kept.size()) {
      std::string e = compare_bytes(chain.kept[i], u, what);
      if (!e.empty()) return e;
    }
    if (digest(u) != chain.digests[i]) return what + ": digest differs from the replay";
  }
  return "";
}

}  // namespace perfbench
