// Shared plumbing of the benchmark drivers: command line, clocks,
// percentiles, resident-set readings and the one-line JSON result.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string serve_binary;  // rigpm_serve, for serve-mixed
  std::string work_dir;      // scratch files (snapshot, delta log, socket)
  std::string trace_out;     // traced run: where the spans are written
};

/// Parses --workload --seed --seconds --serve-binary --work-dir
/// --trace-out. Returns false (after printing usage) on bad input.
bool ParseArgs(int argc, char** argv, Args* args);

/// Nearest-rank percentile (pct in (0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> values, double pct);
double Median(std::vector<double> values);

/// Pins this (single-threaded) process to the CPU it runs on, so the
/// timed phase is not migrated between CPUs mid-query; UnpinCpu allows
/// every online CPU again, before the checks start their threads.
void PinToCurrentCpu();
void UnpinCpu();

/// Peak resident set (VmHWM) of `pid` in MB, 0 = this process; -1 when
/// unreadable.
double PeakRssMb(pid_t pid = 0);

/// Collects metrics and prints the result object as one JSON line.
class Result {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Records a failed check; the run then reports "correct": false.
  void Fail(const std::string& what);
  bool correct() const { return failures_.empty(); }
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Prints the failures to stderr and the JSON object to stdout.
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
