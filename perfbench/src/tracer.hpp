// tracer.hpp — benchmark-side spans around calls into the program's public
// functions.  Spans are kept in memory and written out once, at the end of
// a traced run; an untraced run records nothing.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Span {
  std::string name;
  double start_us = 0.0;  ///< since the tracer's epoch
  double end_us = 0.0;
  int parent = -1;        ///< index into Tracer::spans(), -1 for a root
  std::uint64_t request = 0;
  bool served = false;    ///< a served request (record()), not a replay call
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread's nesting stack; returns its index
  /// (or -1 when disabled).  Only the main thread nests spans.
  int open(const std::string& name, std::uint64_t request = 0);
  void close(int index);

  /// Records a finished root span timed elsewhere (a served request, from
  /// submit to the moment its future became ready).
  void record(const std::string& name, Clock::time_point start,
              Clock::time_point end, std::uint64_t request);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time (duration minus the union of its children's intervals) of
  /// every span called `name`, in milliseconds.
  [[nodiscard]] std::vector<double> self_ms(const std::string& name) const;
  /// Full durations of every span called `name`, in milliseconds.
  [[nodiscard]] std::vector<double> total_ms(const std::string& name) const;
  [[nodiscard]] std::size_t count(const std::string& name) const;

  /// Chrome trace-event JSON ("X" events).
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  [[nodiscard]] double now_us() const;

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;  // guards spans_ against collector threads
  std::vector<Span> spans_;
  std::vector<int> stack_;  // open spans of the main thread
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name, std::uint64_t request = 0)
      : tracer_(t), index_(t.open(name, request)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench
