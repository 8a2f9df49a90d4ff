// Tests of the benchmark's own helpers: the percentile report and the output
// checks, including that a corrupted or non-finite reply is caught.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "checks.hpp"
#include "common/rng.hpp"
#include "host.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using chambolle::Matrix;
using chambolle::serving::Reply;
using chambolle::serving::ReplyStatus;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;
}

TEST(Percentile, QuantileInterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(ramp(11), 0.9), 10.0);
  EXPECT_TRUE(std::isnan(quantile({}, 0.5)));
}

TEST(Percentile, TailIsTheHighestWithTenSamplesBeyond) {
  EXPECT_FALSE(tail_percentile(ramp(19)).has_value());
  const auto cases = {std::pair<std::size_t, double>{20, 0.5},
                      {99, 0.75},
                      {100, 0.9},
                      {199, 0.9},
                      {200, 0.95},
                      {1000, 0.99},
                      {9999, 0.99},
                      {10000, 0.999}};
  for (const auto& [n, q] : cases) {
    const auto t = tail_percentile(ramp(n));
    ASSERT_TRUE(t.has_value()) << n;
    EXPECT_DOUBLE_EQ(t->q, q) << n;
    EXPECT_EQ(t->samples, n);
    EXPECT_GE(t->beyond, 10u) << n;
    EXPECT_DOUBLE_EQ(t->value, quantile(ramp(n), q));
  }
}

TEST(Checks, CorruptedBytesAreCaught) {
  chambolle::Rng rng(7);
  const Matrix<float> want = chambolle::random_image(rng, 12, 9, -1.f, 1.f);
  Matrix<float> got = want;
  EXPECT_EQ(compare_bytes(got, want, "x"), "");
  EXPECT_EQ(digest(got), digest(want));
  std::uint32_t bits = 0;
  std::memcpy(&bits, &got(5, 4), sizeof bits);
  bits ^= 1u;  // one ulp
  std::memcpy(&got(5, 4), &bits, sizeof bits);
  EXPECT_NE(compare_bytes(got, want, "x"), "");
  EXPECT_NE(digest(got), digest(want));
  EXPECT_NE(compare_bytes(Matrix<float>(9, 12), Matrix<float>(12, 9), "x"), "");
}

TEST(Checks, NonFiniteOkPayloadFails) {
  Reply r;
  r.status = ReplyStatus::kOk;
  r.u = Matrix<float>(4, 4);
  EXPECT_EQ(check_payload(r, false), "");
  r.u(2, 3) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_NE(check_payload(r, false), "");
  r.u(2, 3) = std::numeric_limits<float>::infinity();
  EXPECT_NE(check_payload(r, false), "");

  Reply f;
  f.status = ReplyStatus::kOk;
  EXPECT_NE(check_payload(f, true), "");  // kOk without a flow
  f.flow = chambolle::FlowField(3, 3);
  EXPECT_EQ(check_payload(f, true), "");
  f.flow.u2(0, 0) = -std::numeric_limits<float>::infinity();
  EXPECT_NE(check_payload(f, true), "");

  Reply shed;
  shed.status = ReplyStatus::kShedQueueFull;
  EXPECT_EQ(check_payload(shed, false), "");  // no payload promised
}

TEST(Checks, BooksMustBalance) {
  chambolle::serving::ServiceStats service;
  service.completed = 5;
  service.primed = 1;
  service.shed_queue_full = 2;
  Books b{8, 4, 1, 2, 1};
  EXPECT_EQ(check_books(b, service), "");
  b.submitted = 9;
  EXPECT_NE(check_books(b, service), "");
  b.submitted = 8;
  service.shed_deadline = 1;  // the service shed one the client did not see
  EXPECT_NE(check_books(b, service), "");
}

// A real served chain passes its replay; corrupting one kept reply or one
// digest fails it.
TEST(Checks, ChainReplayCatchesACorruptedReply) {
  chambolle::serving::FlowServiceOptions o;
  o.params.chambolle.iterations = 12;
  o.params.tiled.tile_rows = 20;
  o.params.tiled.tile_cols = 20;
  o.slots = 1;
  o.lanes_per_slot = 2;
  chambolle::Rng rng(3);
  std::vector<Matrix<float>> fields;
  for (int i = 0; i < 3; ++i) fields.push_back(chambolle::random_image(rng, 40, 36, -3.f, 3.f));

  Chain chain;
  chain.name = "test";
  {
    chambolle::serving::FlowService service(o);
    auto session = service.open_session();
    for (int i = 0; i < 5; ++i) {
      const Matrix<float>& v = fields[static_cast<std::size_t>(i) % fields.size()];
      Reply r = session->submit(v).get();
      ASSERT_TRUE(r.ok());
      chain.inputs.push_back(&v);
      chain.digests.push_back(digest(r.u));
      if (i < 2) chain.kept.push_back(r.u);
    }
  }
  chambolle::TiledSolverOptions replay = o.params.tiled;
  std::vector<double> warm_ms;
  EXPECT_EQ(check_chain(chain, o.params.chambolle, replay, &warm_ms), "");
  EXPECT_EQ(warm_ms.size(), chain.inputs.size() - 1);  // every solve after the cold one

  Chain bad_bytes = chain;
  bad_bytes.kept[1](3, 3) += 1e-3f;
  EXPECT_NE(check_chain(bad_bytes, o.params.chambolle, replay), "");

  Chain bad_digest = chain;
  bad_digest.digests[4] ^= 1u;
  EXPECT_NE(check_chain(bad_digest, o.params.chambolle, replay), "");
}

TEST(Host, FingerprintIsFilledAndEscaped) {
  const HostFingerprint h = probe_host();
  EXPECT_GT(h.nproc, 0);
  EXPECT_FALSE(h.cpu_model.empty());
  EXPECT_FALSE(h.kernel_backend.empty());
  EXPECT_FALSE(h.build_type.empty());
  EXPECT_EQ(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
  const std::string j = to_json(h);
  EXPECT_EQ(j.front(), '{');
  EXPECT_NE(j.find("\"kernel_backend\""), std::string::npos);
}

}  // namespace
}  // namespace perfbench
