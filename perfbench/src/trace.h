// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into each layer's public functions, kept in
// memory, and written out as JSON lines when the run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_ms = 0;
    double end_ms = 0;
    int64_t parent = -1;  // index of the enclosing span, -1 for a root
    uint64_t query = 0;   // spans of one query or request share this id
  };

  Tracer() : origin_(Clock::now()) {}

  int64_t Begin(const std::string& name, int64_t parent = -1,
                uint64_t query = 0);
  void End(int64_t id);

  /// Opens a span on construction and closes it on destruction.
  class Scope {
   public:
    Scope(Tracer& t, const std::string& name, int64_t parent = -1,
          uint64_t query = 0)
        : tracer_(t), id_(t.Begin(name, parent, query)) {}
    ~Scope() { tracer_.End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int64_t id() const { return id_; }

   private:
    Tracer& tracer_;
    int64_t id_;
  };

  /// Durations of every closed span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Sum of the durations of the spans called `name`.
  double TotalMs(const std::string& name) const;
  /// Sum over the spans called `name` of their duration minus the part of
  /// it their child spans cover.
  double SelfMs(const std::string& name) const;

  /// Writes one JSON object per span. Returns false on an I/O error.
  bool Write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
