// served.cpp — the three served workloads: one FlowService, its sessions,
// and a generator on the main thread, closed or open loop.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "chambolle/resident_tiled.hpp"
#include "checks.hpp"
#include "common/rng.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "report.hpp"
#include "serving/flow_service.hpp"
#include "stats.hpp"
#include "tracer.hpp"
#include "tvl1/tvl1.hpp"
#include "workloads/metrics.hpp"

namespace perfbench {
namespace {

using chambolle::FlowField;
using chambolle::Matrix;
using chambolle::serving::FlowService;
using chambolle::serving::FlowServiceOptions;
using chambolle::serving::Reply;
using chambolle::serving::ReplyStatus;
using chambolle::serving::ServiceStats;

enum class Mode { kFlow, kSolve };

struct Config {
  const char* name;
  Mode mode;
  int slots;
  int lanes;              ///< per slot; slots * lanes = 4 solving lanes
  double rate_per_s;      ///< open-loop aggregate rate; 0 = closed loop
  int iterations;         ///< Chambolle iterations per solve
  std::size_t replayed;   ///< kOk replies replayed per sampled chain and rig
  std::size_t kept;       ///< of the first rig's, compared byte for byte
  int segments;           ///< measured services, each serving one slice
  int setups_per_segment; ///< services set up per segment (the last serves)
};

// Why each workload exists is in README.md.  The open-loop rate is fixed, so
// a faster or slower program sees the same offered load.  2 slots x 2 lanes
// sustain ~1000 req/s on a 4-core host with this client on the same cores;
// 300 req/s keeps the p90 off the knee where a few percent of host noise
// turns into queueing, so run-to-run spread stays small.
//
// Each measured service serves one slice (segment) of the window.  A
// service's speed is set when it is built and holds for its life: served
// 1024x768 solves ran at a steady 45, 58, 64 or 75 ms depending on the
// instance, on a quiet 4-core host.  So a run measures many services and
// averages them; rof_768p_200it, where this shows most, measures 24.  Set-ups
// spread over the run, 24 in all, so that setup_s, their median, does not
// rest on one moment's host load.
constexpr Config kConfigs[] = {
    {"flow_540p", Mode::kFlow, 2, 2, 0.0, 30, 0, 0, 8, 3},
    {"rof_768p_200it", Mode::kSolve, 1, 4, 0.0, 200, 4, 4, 24, 1},
    {"solve_small_open", Mode::kSolve, 2, 2, 300.0, 30,
     std::numeric_limits<std::size_t>::max(), 16, 8, 3},
};

constexpr int kFlowFrames = 6;       // per stream, played back and forth
constexpr double kWarmSeconds = 2.0;         // before the first segment
constexpr double kSegmentWarmSeconds = 0.3;  // before each later one
constexpr double kLateMs = 1.0;      // a send this far past due is late
// Mean endpoint error over a run's forward pairs must stay under this.  A
// flow of zeros errs by ~1.5 px on these scenes.  Seeds 1-60 measure
// 0.015-0.31 px on their first pairs: 5 of those 240 generated scenes defeat
// coarse-to-fine TV-L1 itself, at 0.4-1.2 px (the sequential reference
// solver gives the same flow, byte for byte), so a bound such as 0.1 px
// fails correct runs.
constexpr double kAeeBoundPx = 0.5;
// On each stream's first sampled forward pair the served flow may err by at
// most this much more than the sequential reference TV-L1
// (InnerSolver::kReference) does on that pair.
constexpr double kAeeExcessPx = 1e-3;

std::vector<StreamInputs> make_inputs(const Config& cfg, std::uint64_t seed) {
  std::vector<StreamInputs> out;
  if (cfg.mode == Mode::kFlow) {
    for (int s = 0; s < 4; ++s)
      out.push_back(flow_stream(seed, s, 540, 960, kFlowFrames));
  } else if (cfg.rate_per_s == 0.0) {
    out.push_back(pan_fields(seed, 768, 1024, 4));
  } else {
    constexpr int kSizes[3] = {96, 128, 160};
    for (int s = 0; s < 12; ++s)
      out.push_back(random_fields(seed * 16 + static_cast<std::uint64_t>(s),
                                  kSizes[s / 4], kSizes[s / 4], 4));
  }
  return out;
}

FlowServiceOptions service_options(const Config& cfg) {
  FlowServiceOptions o;
  o.params.solver = chambolle::tvl1::InnerSolver::kResident;
  o.params.chambolle.iterations = cfg.iterations;
  o.slots = cfg.slots;
  o.lanes_per_slot = cfg.lanes;
  // Room for a scheduling hiccup on the open loop without shedding.
  o.queue_capacity = 32;
  return o;
}

struct Pending {
  std::uint64_t position = 0;
  Clock::time_point start;  ///< submit time (closed) or due time (open)
  std::future<Reply> future;
};

struct Record {
  double start_s = 0.0;  ///< since the rig's epoch
  double ready_s = 0.0;
  double queue_ms = 0.0;
  double solve_ms = 0.0;
  bool ok = false;
};

struct Event {
  int stream = 0;
  Clock::time_point ready;
};

/// A flow reply kept for comparison with tvl1::compute_flow.
struct FlowSample {
  int stream = 0;
  std::uint64_t position = 0;
  std::uint64_t digest_u1 = 0, digest_u2 = 0;
  std::optional<FlowField> full;  ///< the first rig's first sample only
};

// Shared by the main thread and every collector of one rig.
struct Context {
  const Config* cfg = nullptr;
  bool keep_full = false;  ///< keep whole replies, not only digests
  Clock::time_point epoch;
  Tracer* tracer = nullptr;
  std::atomic<double> trace_from_s{std::numeric_limits<double>::infinity()};
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Event> events;

  double since(Clock::time_point t) const { return seconds_between(epoch, t); }
};

// One session and the collector thread that waits on its replies in submit
// order (a session's replies complete in that order, so waiting in order
// observes each one as soon as it is ready).
struct Stream {
  int index = 0;
  bool sampled = false;  ///< chain replayed / first and last flow compared
  const StreamInputs* inputs = nullptr;
  std::shared_ptr<FlowService::Session> session;
  std::uint64_t next_position = 0;  // main thread only

  // Collector-owned until the thread is joined.
  Books books;
  std::vector<Record> records;
  Chain chain;
  std::vector<double> aee;  ///< per forward pair; NaN until served
  std::optional<FlowSample> first_flow, last_flow;
  Problems problems;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool closing = false;
  std::thread thread;
};

void handle(Context& ctx, Stream& s, Pending& p) {
  Reply r;
  std::string error;
  try {
    r = p.future.get();
  } catch (const std::exception& e) {
    error = e.what();
  }
  const Clock::time_point ready = Clock::now();
  const bool flow = ctx.cfg->mode == Mode::kFlow;
  ++s.books.submitted;

  Record rec;
  rec.start_s = ctx.since(p.start);
  rec.ready_s = ctx.since(ready);
  rec.queue_ms = r.queue_ms;
  rec.solve_ms = r.solve_ms;
  const auto who = [&] {
    return "stream " + std::to_string(s.index) + " position " + std::to_string(p.position);
  };
  if (!error.empty()) {
    ++s.books.failed;
    s.problems.add(who() + ": " + error);
  } else if (r.shed()) {
    ++s.books.shed;
  } else if (r.status == ReplyStatus::kPrimed) {
    ++s.books.primed;
    if (!flow || p.position != 0) s.problems.add(who() + ": unexpected kPrimed");
  } else if (r.status != ReplyStatus::kOk) {
    ++s.books.failed;
  } else if (std::string e = check_payload(r, flow); !e.empty()) {
    ++s.books.failed;
    s.problems.add(who() + ": " + e);
  } else {
    ++s.books.ok;
    rec.ok = true;
    const auto& in = s.inputs->inputs;
    const std::size_t cur = input_index(p.position, in.size());
    if (flow) {
      const std::size_t prev = input_index(p.position - 1, in.size());
      if (cur == prev + 1 && std::isnan(s.aee[prev]))
        s.aee[prev] = chambolle::workloads::average_endpoint_error(
            r.flow, s.inputs->truth[prev]);
      if (s.sampled) {
        FlowSample f{s.index, p.position, digest(r.flow.u1), digest(r.flow.u2), std::nullopt};
        if (!s.first_flow) {
          if (ctx.keep_full) f.full = std::move(r.flow);
          s.first_flow = std::move(f);
        } else {
          s.last_flow = std::move(f);
        }
      }
    } else if (s.sampled && s.chain.inputs.size() < ctx.cfg->replayed) {
      s.chain.inputs.push_back(&in[cur]);
      s.chain.digests.push_back(digest(r.u));
      if (ctx.keep_full && s.chain.kept.size() < ctx.cfg->kept)
        s.chain.kept.push_back(std::move(r.u));
    }
  }
  s.records.push_back(rec);
  if (rec.start_s >= ctx.trace_from_s.load(std::memory_order_relaxed))
    ctx.tracer->record("serving.request", p.start, ready, p.position + 1);

  std::lock_guard<std::mutex> lk(ctx.mu);
  ctx.events.push_back({s.index, ready});
  ctx.cv.notify_one();
}

void collector_loop(Context& ctx, Stream& s) {
  for (;;) {
    Pending p;
    {
      std::unique_lock<std::mutex> lk(s.mu);
      s.cv.wait(lk, [&] { return s.closing || !s.queue.empty(); });
      if (s.queue.empty()) return;
      p = std::move(s.queue.front());
      s.queue.pop_front();
    }
    handle(ctx, s, p);
  }
}

// A service, its streams and their collectors.
struct Rig {
  Context ctx;
  std::unique_ptr<FlowService> service;
  std::vector<std::unique_ptr<Stream>> streams;

  /// `segment` < 0: a rig that is only set up; its replies are checked
  /// for payload and books, none is sampled.
  Rig(const Config& cfg, const std::vector<StreamInputs>& inputs, Tracer& tracer,
      int segment) {
    ctx.cfg = &cfg;
    ctx.keep_full = segment == 0;
    ctx.epoch = Clock::now();
    ctx.tracer = &tracer;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      auto s = std::make_unique<Stream>();
      s->index = static_cast<int>(i);
      s->inputs = &inputs[i];
      // Flow: one stream per segment, in turn, has its first and last flow
      // compared; Chambolle: one session per resolution (every fourth) has
      // its chain replayed.
      s->sampled = segment >= 0 && (cfg.mode == Mode::kFlow
                                        ? static_cast<int>(i) == segment % 4
                                        : i % 4 == 0);
      s->chain.name = "segment " + std::to_string(segment) + " stream " + std::to_string(i);
      s->aee.assign(inputs[i].truth.size(), std::numeric_limits<double>::quiet_NaN());
      streams.push_back(std::move(s));
    }
    for (auto& s : streams)
      s->thread = std::thread([this, st = s.get()] { collector_loop(ctx, *st); });
  }

  ~Rig() { shutdown(); }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Resolves every request, then joins the collectors.
  void shutdown() {
    if (service) service->drain();
    for (auto& s : streams) {
      {
        std::lock_guard<std::mutex> lk(s->mu);
        s->closing = true;
      }
      s->cv.notify_one();
      if (s->thread.joinable()) s->thread.join();
    }
  }

  void submit(Stream& s, Clock::time_point start) {
    const auto& in = s.inputs->inputs;
    Matrix<float> input = in[input_index(s.next_position, in.size())];
    Pending p;
    p.position = s.next_position++;
    p.start = ctx.cfg->rate_per_s > 0.0 ? start : Clock::now();
    p.future = ctx.cfg->mode == Mode::kFlow ? s.session->submit_frame(std::move(input))
                                            : s.session->submit(std::move(input));
    {
      std::lock_guard<std::mutex> lk(s.mu);
      s.queue.push_back(std::move(p));
    }
    s.cv.notify_one();
  }

  Event wait_event() {
    std::unique_lock<std::mutex> lk(ctx.mu);
    ctx.cv.wait(lk, [&] { return !ctx.events.empty(); });
    const Event e = ctx.events.front();
    ctx.events.pop_front();
    return e;
  }
};

/// Service construction, session open and each stream's first reply.
double set_up(Rig& rig, const FlowServiceOptions& options) {
  const Clock::time_point t0 = Clock::now();
  rig.service = std::make_unique<FlowService>(options);
  for (auto& s : rig.streams) s->session = rig.service->open_session();
  for (auto& s : rig.streams) rig.submit(*s, Clock::now());
  for (std::size_t i = 0; i < rig.streams.size(); ++i) (void)rig.wait_event();
  return seconds_between(t0, Clock::now());
}

struct LagSample {
  double start_s;
  double lag_ms;
};

/// Closed loop: each stream sends its next request when its reply arrives,
/// until `end`.  Returns the generator's reaction lag per send.
std::vector<LagSample> closed_loop(Rig& rig, Clock::time_point end) {
  std::vector<LagSample> lag;
  for (auto& s : rig.streams) rig.submit(*s, Clock::now());
  std::size_t outstanding = rig.streams.size();
  while (outstanding > 0) {
    const Event e = rig.wait_event();
    const Clock::time_point now = Clock::now();
    if (now >= end) {
      --outstanding;
      continue;
    }
    lag.push_back({rig.ctx.since(now), seconds_between(e.ready, now) * 1e3});
    rig.submit(*rig.streams[static_cast<std::size_t>(e.stream)], now);
  }
  return lag;
}

/// Open loop: requests on a seeded, evenly spaced schedule from `begin`
/// to `end`, each session once per round in a shuffled order.  Over the
/// first `ramp_s` the rate rises linearly from a tenth of its value, so
/// start-up does not begin with a backlog.  Returns how late each send was
/// against its due time.
std::vector<LagSample> open_loop(Rig& rig, Clock::time_point begin, double ramp_s,
                                 Clock::time_point end, std::uint64_t seed) {
  std::vector<LagSample> lag;
  chambolle::Rng rng(seed ^ 0x6f70656eull);
  std::vector<std::size_t> order(rig.streams.size());
  const double rate = rig.ctx.cfg->rate_per_s;
  std::size_t k = order.size();
  double offset_s = 0.0;
  for (Clock::time_point due = begin; due < end;
       due = begin + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(offset_s))) {
    if (k == order.size()) {
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::shuffle(order.begin(), order.end(), rng.engine());
      k = 0;
    }
    std::this_thread::sleep_until(due);
    const Clock::time_point now = Clock::now();
    lag.push_back({rig.ctx.since(due), seconds_between(due, now) * 1e3});
    rig.submit(*rig.streams[order[k++]], due);
    offset_s += 1.0 / (rate * std::clamp(offset_s / ramp_s, 0.1, 1.0));
  }
  rig.service->drain();
  return lag;
}

// One measured segment's kOk requests.
struct Window {
  std::vector<double> latency_ms, queue_ms, solve_ms;  ///< started inside
  std::size_t ready = 0;  ///< kOk replies that became ready inside
  double seconds = 0.0;   ///< the window's length
};

double mean(const std::vector<double>& x) {
  double sum = 0.0;
  for (const double v : x) sum += v;
  return x.empty() ? std::numeric_limits<double>::quiet_NaN()
                   : sum / static_cast<double>(x.size());
}

/// Replies per second in each window: the kOk replies that became ready
/// inside it over its length.  The loop keeps sending until the window
/// ends, so the count is taken in steady state.
std::vector<double> window_throughput(const std::vector<Window>& windows) {
  std::vector<double> fps;
  for (const Window& w : windows) fps.push_back(static_cast<double>(w.ready) / w.seconds);
  return fps;
}

/// Per-window throughput averaged over the windows, so each measured
/// service counts once.
double throughput(const std::vector<Window>& windows) {
  const std::vector<double> fps = window_throughput(windows);
  return fps.empty() ? 0.0 : mean(fps);
}

/// The q-quantile of `pick` in each window, averaged over the windows.
double mean_quantile(const std::vector<Window>& windows,
                     std::vector<double> Window::*pick, double q) {
  std::vector<double> per_window;
  for (const Window& w : windows)
    if (!(w.*pick).empty()) per_window.push_back(quantile(w.*pick, q));
  return mean(per_window);
}

/// Every window's samples of `pick`, pooled.
std::vector<double> pooled(const std::vector<Window>& windows,
                           std::vector<double> Window::*pick) {
  std::vector<double> out;
  for (const Window& w : windows) out.insert(out.end(), (w.*pick).begin(), (w.*pick).end());
  return out;
}

Window collect(const Rig& rig, double lo, double hi) {
  Window w;
  w.seconds = hi - lo;
  for (const auto& s : rig.streams)
    for (const Record& r : s->records) {
      if (!r.ok) continue;
      if (r.ready_s >= lo && r.ready_s < hi) ++w.ready;
      if (r.start_s < lo || r.start_s >= hi) continue;
      w.latency_ms.push_back((r.ready_s - r.start_s) * 1e3);
      w.queue_ms.push_back(r.queue_ms);
      w.solve_ms.push_back(r.solve_ms);
    }
  return w;
}

std::string num(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", x);
  return buf;
}

std::string percentile_json(const std::vector<double>& samples, double q) {
  return "{\"value\": " + num(quantile(samples, q)) +
         ", \"samples\": " + std::to_string(samples.size()) +
         ", \"beyond\": " + std::to_string(samples_beyond(samples.size(), q)) + "}";
}

std::string tail_json(const std::vector<double>& samples) {
  const auto t = tail_percentile(samples);
  if (!t) return "null";
  return "{\"q\": " + num(t->q) + ", \"value\": " + num(t->value) +
         ", \"samples\": " + std::to_string(t->samples) +
         ", \"beyond\": " + std::to_string(t->beyond) + "}";
}

/// A served flow request's work, called directly on a pool of the slot's
/// width with no service around it; the median per frame, in ms.  (For
/// Chambolle mode the chain check's replay gives this figure.)
double direct_flow_ms(const Config& cfg, const std::vector<StreamInputs>& inputs,
                      Tracer& tracer) {
  chambolle::parallel::ThreadPool pool(cfg.lanes);
  chambolle::tvl1::Tvl1Params params = service_options(cfg).params;
  params.tiled.pool = &pool;
  chambolle::tvl1::FlowSession session(params);
  const StreamInputs& in = inputs[0];
  (void)session.push_frame(in.inputs[0]);
  std::vector<double> ms;
  for (std::uint64_t p = 1; p <= 4; ++p) {
    const Clock::time_point t = Clock::now();
    {
      Scope span(tracer, "direct.solve", p);
      (void)session.push_frame(in.inputs[input_index(p, in.inputs.size())]);
    }
    ms.push_back(seconds_between(t, Clock::now()) * 1e3);
  }
  return median(ms);
}

/// Compares the sampled flow replies with tvl1::compute_flow on the same
/// pair (on all 4 lanes: the resident engine's result does not depend on
/// them): byte for byte where the whole reply was kept, else by digest.  On
/// each stream's first sampled forward pair, the served flow's endpoint
/// error must also stay within kAeeExcessPx of the sequential reference
/// TV-L1's on the same pair.
void check_flows(const Config& cfg, const std::vector<StreamInputs>& inputs,
                 const std::vector<FlowSample>& samples, Problems& problems) {
  chambolle::parallel::ThreadPool pool(cfg.slots * cfg.lanes);
  chambolle::tvl1::Tvl1Params params = service_options(cfg).params;
  params.tiled.pool = &pool;
  chambolle::tvl1::Tvl1Params reference = service_options(cfg).params;
  reference.solver = chambolle::tvl1::InnerSolver::kReference;
  std::vector<bool> compared(inputs.size(), false);
  for (const FlowSample& f : samples) {
    const StreamInputs& stream = inputs[static_cast<std::size_t>(f.stream)];
    const auto& in = stream.inputs;
    const std::size_t prev = input_index(f.position - 1, in.size());
    const std::size_t cur = input_index(f.position, in.size());
    const FlowField want = chambolle::tvl1::compute_flow(in[prev], in[cur], params);
    const std::string what =
        "stream " + std::to_string(f.stream) + " position " + std::to_string(f.position);
    if (f.full) problems.add(compare_flow(*f.full, want, what));
    if (digest(want.u1) != f.digest_u1 || digest(want.u2) != f.digest_u2)
      problems.add(what + ": flow digest differs from tvl1::compute_flow");
    if (cur != prev + 1 || compared[static_cast<std::size_t>(f.stream)]) continue;
    compared[static_cast<std::size_t>(f.stream)] = true;
    using chambolle::workloads::average_endpoint_error;
    const double served = average_endpoint_error(want, stream.truth[prev]);
    const double sequential = average_endpoint_error(
        chambolle::tvl1::compute_flow(in[prev], in[cur], reference), stream.truth[prev]);
    if (!(served <= sequential + kAeeExcessPx))
      problems.add(what + ": endpoint error " + num(served) + " px exceeds the sequential " +
                   "reference's " + num(sequential) + " px");
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const Config& c : kConfigs) n.emplace_back(c.name);
    return n;
  }();
  return names;
}

RunReport run_workload(const RunOptions& opt) {
  const Config* found = nullptr;
  for (const Config& c : kConfigs)
    if (opt.workload == c.name) found = &c;
  if (found == nullptr) throw std::invalid_argument("unknown workload " + opt.workload);
  const Config& cfg = *found;
  const FlowServiceOptions options = service_options(cfg);
  Tracer tracer(opt.trace);
  Problems problems;

  const std::vector<StreamInputs> inputs = make_inputs(cfg, opt.seed);
  // The inputs, the ground truth and the program image are resident from
  // here on; peak_rss_mb counts what the program adds on top of them, at
  // the peak of each measured service, and takes the median over those.
  const double baseline_rss_mb = current_rss_mb();

  // Every rig is set up and timed; every setups_per_segment-th then serves
  // one slice of the window after a warm-up.  A traced run traces every
  // other segment, so the traced-to-untraced throughput ratio is the
  // tracing overhead.
  std::vector<double> setup_s;
  std::vector<Window> untraced, traced;
  std::vector<LagSample> lag;
  Books books;
  std::vector<Chain> chains;
  std::vector<FlowSample> flows;
  std::vector<std::vector<double>> aee(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i)
    aee[i].assign(inputs[i].truth.size(), std::numeric_limits<double>::quiet_NaN());
  ServiceStats last_stats;
  std::vector<double> rss_mb;
  CpuTicks measured_ticks;  // the whole machine's, over the measured loops
  for (int i = 0; i < cfg.segments * cfg.setups_per_segment; ++i) {
    const int segment = i % cfg.setups_per_segment == cfg.setups_per_segment - 1
                            ? i / cfg.setups_per_segment
                            : -1;
    // Each service starts from a trimmed heap, so neither its set-up nor its
    // peak memory depends on what the allocator kept from earlier ones.
    malloc_trim(0);
    if (segment >= 0) reset_peak_rss();
    Rig rig(cfg, inputs, tracer, segment);
    setup_s.push_back(set_up(rig, options));
    if (segment >= 0) {
      const bool traced_segment = opt.trace && segment % 2 == 1;
      const double warm = segment == 0 ? kWarmSeconds : kSegmentWarmSeconds;
      const double length = opt.seconds / cfg.segments;
      const Clock::time_point begin = Clock::now();
      const auto at = [&](double sec) {
        return begin + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(sec));
      };
      const double lo = rig.ctx.since(at(warm));
      rig.ctx.trace_from_s.store(traced_segment ? lo : std::numeric_limits<double>::infinity());
      const CpuTicks before = cpu_ticks();
      const std::vector<LagSample> l =
          cfg.rate_per_s > 0.0 ? open_loop(rig, begin, warm, at(warm + length), opt.seed + i)
                               : closed_loop(rig, at(warm + length));
      const CpuTicks after = cpu_ticks();
      measured_ticks.total += after.total - before.total;
      measured_ticks.steal += after.steal - before.steal;
      lag.insert(lag.end(), l.begin(), l.end());
      rss_mb.push_back(peak_rss_mb() - baseline_rss_mb);  // before any check allocates
      rig.shutdown();
      (traced_segment ? traced : untraced).push_back(collect(rig, lo, lo + length));
    }
    rig.shutdown();
    last_stats = rig.service->stats();

    Books rb;
    for (auto& s : rig.streams) {
      rb.submitted += s->books.submitted;
      rb.ok += s->books.ok;
      rb.primed += s->books.primed;
      rb.shed += s->books.shed;
      rb.failed += s->books.failed;
      for (const auto& p : s->problems.list()) problems.add(p);
      for (std::size_t k = 0; k < s->aee.size(); ++k)
        if (!std::isnan(s->aee[k])) aee[static_cast<std::size_t>(s->index)][k] = s->aee[k];
      if (!s->sampled) continue;
      if (cfg.mode == Mode::kFlow) {
        if (!s->first_flow)
          problems.add(s->chain.name + ": no flow reply served");
        for (auto* f : {&s->first_flow, &s->last_flow})
          if (*f) flows.push_back(std::move(**f));
      } else {
        chains.push_back(std::move(s->chain));
      }
    }
    problems.add(check_books(rb, last_stats));
    books.submitted += rb.submitted;
    books.ok += rb.ok;
    books.primed += rb.primed;
    books.shed += rb.shed;
    books.failed += rb.failed;
  }

  // Output checks, after every measurement.  The chain replays run on a
  // pool of the slot's width, so their warm solves time the served
  // request's work without the service around it.
  std::vector<double> direct_ms;
  if (cfg.mode == Mode::kFlow) {
    check_flows(cfg, inputs, flows, problems);
  } else {
    chambolle::parallel::ThreadPool pool(cfg.lanes);
    chambolle::TiledSolverOptions replay = options.params.tiled;
    replay.pool = &pool;
    for (const Chain& c : chains)
      problems.add(check_chain(c, options.params.chambolle, replay, &direct_ms));
  }
  std::size_t aee_pairs = 0;
  double aee_px = std::numeric_limits<double>::quiet_NaN();
  if (cfg.mode == Mode::kFlow) {
    double sum = 0.0;
    for (const auto& stream : aee)
      for (const double a : stream)
        if (!std::isnan(a)) {
          sum += a;
          ++aee_pairs;
        }
    if (aee_pairs > 0) aee_px = sum / static_cast<double>(aee_pairs);
    if (!(aee_px < kAeeBoundPx))
      problems.add("aee_px " + num(aee_px) + " is not under its bound " + num(kAeeBoundPx));
  }

  const std::vector<double> latency = pooled(untraced, &Window::latency_ms);
  std::vector<double> all_lag;
  std::size_t late = 0;
  for (const LagSample& l : lag) {
    all_lag.push_back(l.lag_ms);
    if (l.lag_ms > kLateMs) ++late;
  }

  RunReport out;
  out.attempted = books.submitted;
  out.failed = books.submitted - books.ok - books.primed;
  if (!opt.trace) {
    out.metrics = {
        {"throughput_fps", throughput(untraced), "1/s"},
        {"latency_p50_ms", mean_quantile(untraced, &Window::latency_ms, 0.5), "ms"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", median(rss_mb), "MiB"},
    };
  } else {
    const std::vector<double> queue_ms = pooled(traced, &Window::queue_ms);
    const std::vector<double> solve_ms = pooled(traced, &Window::solve_ms);
    const double direct =
        cfg.mode == Mode::kFlow ? direct_flow_ms(cfg, inputs, tracer) : median(direct_ms);
    const ServiceStats& st = last_stats;
    out.metrics = {
        {"serving.queue_ms_p50", quantile(queue_ms, 0.5), "ms"},
        {"serving.queue_ms_p90", quantile(queue_ms, 0.9), "ms"},
        {"serving.solve_ms_p50", quantile(solve_ms, 0.5), "ms"},
        {"serving.batch_size",
         static_cast<double>(st.completed) / static_cast<double>(std::max<std::uint64_t>(1, st.batches)),
         "count"},
        {"serving.engine_builds", static_cast<double>(st.engine_builds), "count"},
        {"serving.overhead_ms", quantile(solve_ms, 0.5) - direct, "ms"},
        {"generator.lag_ms_p50", quantile(all_lag, 0.5), "ms"},
        {"generator.lag_ms_max", all_lag.empty() ? 0.0 : *std::max_element(all_lag.begin(), all_lag.end()), "ms"},
        {"generator.late_count", static_cast<double>(late), "count"},
        {"trace.throughput_fps", throughput(traced), "1/s"},
        {"trace.throughput_ratio", throughput(traced) / throughput(untraced), "ratio"},
    };
    for (Metric& m : run_layers(tracer, opt.seed, problems)) out.metrics.push_back(std::move(m));
    if (!opt.trace_out.empty() && !tracer.write_chrome_json(opt.trace_out))
      problems.add("could not write " + opt.trace_out);
  }

  std::ostringstream d;
  d << "{\"workload\": \"" << cfg.name << "\", \"seed\": " << opt.seed
    << ", \"seconds\": " << num(opt.seconds) << ", \"traced\": " << (opt.trace ? "true" : "false")
    << ", \"slots\": " << cfg.slots << ", \"lanes_per_slot\": " << cfg.lanes
    << ", \"loop\": \"" << (cfg.rate_per_s > 0.0 ? "open" : "closed") << "\""
    << ", \"rate_per_s\": " << num(cfg.rate_per_s)
    << ", \"segments\": " << cfg.segments
    << ", \"host_steal_share\": "
    << num(measured_ticks.total > 0.0 ? measured_ticks.steal / measured_ticks.total : 0.0)
    << ", \"segment_throughput_fps\": [";
  const std::vector<double> segment_fps = window_throughput(untraced);
  for (std::size_t i = 0; i < segment_fps.size(); ++i) d << (i ? ", " : "") << num(segment_fps[i]);
  d << "], \"segment_peak_rss_mb\": [";
  for (std::size_t i = 0; i < rss_mb.size(); ++i) d << (i ? ", " : "") << num(rss_mb[i]);
  d << "]"
    << ", \"latency_p50_ms\": " << percentile_json(latency, 0.5)
    << ", \"latency_p90_ms\": " << percentile_json(latency, 0.9)
    << ", \"latency_p99_ms\": " << percentile_json(latency, 0.99)
    << ", \"latency_tail_ms\": " << tail_json(latency)
    << ", \"aee_px\": " << (std::isnan(aee_px) ? "null" : num(aee_px))
    << ", \"aee_pairs\": " << aee_pairs
    << ", \"failed_share\": " << num(static_cast<double>(out.failed) / static_cast<double>(std::max<std::uint64_t>(1, out.attempted)))
    << ", \"generator_lag_ms\": {\"p50\": " << num(quantile(all_lag, 0.5))
    << ", \"max\": " << num(all_lag.empty() ? 0.0 : *std::max_element(all_lag.begin(), all_lag.end()))
    << ", \"late\": " << late << ", \"sends\": " << all_lag.size() << "}"
    << ", \"books\": {\"submitted\": " << books.submitted << ", \"ok\": " << books.ok
    << ", \"primed\": " << books.primed << ", \"shed\": " << books.shed
    << ", \"failed\": " << books.failed << "}"
    << ", \"setup_s\": [";
  for (std::size_t i = 0; i < setup_s.size(); ++i) d << (i ? ", " : "") << num(setup_s[i]);
  d << "]}";
  out.detail_json = d.str();
  out.problems = problems.list();
  return out;
}

}  // namespace perfbench
