#include "tracer.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

double Tracer::now_us() const {
  return seconds_between(epoch_, Clock::now()) * 1e6;
}

int Tracer::open(const std::string& name, std::uint64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lk(mu_);
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.request = request != 0 || stack_.empty()
                  ? request
                  : spans_[static_cast<std::size_t>(stack_.back())].request;
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size() - 1);
  stack_.push_back(index);
  // Stamp last, so the bookkeeping above is not inside the span.
  spans_.back().start_us = now_us();
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  const double end = now_us();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(index)].end_us = end;
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void Tracer::record(const std::string& name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t request) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.start_us = seconds_between(epoch_, start) * 1e6;
  s.end_us = seconds_between(epoch_, end) * 1e6;
  s.request = request;
  s.served = true;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(s));
}

std::vector<double> Tracer::self_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us, s.end_us);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    for (const auto& [lo, hi] : kids) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out.push_back((spans_[i].end_us - spans_[i].start_us - covered) / 1e3);
  }
  return out;
}

std::vector<double> Tracer::total_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back((s.end_us - s.start_us) / 1e3);
  return out;
}

std::size_t Tracer::count(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<std::size_t>(std::count_if(
      spans_.begin(), spans_.end(), [&](const Span& s) { return s.name == name; }));
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lk(mu_);
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << (s.served ? 2 : 1)
        << ", \"ts\": " << s.start_us << ", \"dur\": " << (s.end_us - s.start_us)
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
