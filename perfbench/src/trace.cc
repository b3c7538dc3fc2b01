#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

int64_t Tracer::Begin(const std::string& name, int64_t parent,
                      uint64_t query) {
  double now = MsBetween(origin_, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, now, -1, parent, query});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) {
  double now = MsBetween(origin_, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_ms = now;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ms >= 0) out.push_back(s.end_ms - s.start_ms);
  }
  return out;
}

double Tracer::TotalMs(const std::string& name) const {
  double total = 0;
  for (double d : Durations(name)) total += d;
  return total;
}

double Tracer::SelfMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ms >= 0) {
      children[s.parent].emplace_back(s.start_ms, s.end_ms);
    }
  }
  double total = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name || s.end_ms < 0) continue;
    // Union of the child intervals, clipped to the span.
    auto& c = children[i];
    std::sort(c.begin(), c.end());
    double covered = 0, run_start = 0, run_end = -1;
    for (auto [a, b] : c) {
      a = std::max(a, s.start_ms);
      b = std::min(b, s.end_ms);
      if (b <= a) continue;
      if (a > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = a;
        run_end = b;
      } else {
        run_end = std::max(run_end, b);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    total += (s.end_ms - s.start_ms) - covered;
  }
  return total;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ms\": %.4f, "
                 "\"end_ms\": %.4f, \"parent\": %lld, \"query\": %llu}\n",
                 i, s.name.c_str(), s.start_ms, s.end_ms,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.query));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
