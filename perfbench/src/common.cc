#include "common.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace perfbench {

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      args->workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args->seconds = std::atof(value);
    } else if (std::strcmp(flag, "--serve-binary") == 0) {
      args->serve_binary = value;
    } else if (std::strcmp(flag, "--work-dir") == 0) {
      args->work_dir = value;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag);
      return false;
    }
  }
  if (argc % 2 != 1 || args->workload.empty() || args->seconds <= 0) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "[--serve-binary PATH --work-dir DIR] [--trace-out FILE]\n",
                 argv[0]);
    return false;
  }
  return true;
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * values.size()));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

void PinToCurrentCpu() {
  int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void UnpinCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  for (long c = 0; c < cpus && c < CPU_SETSIZE; ++c) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double PeakRssMb(pid_t pid) {
  std::string path = pid == 0 ? std::string("/proc/self/status")
                              : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return -1;
}

void Result::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::Fail(const std::string& what) {
  if (failures_.size() < 20) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  failures_.push_back(what);
}

void Result::Print() const {
  if (!failures_.empty()) {
    std::fprintf(stderr, "%zu check(s) failed\n", failures_.size());
  }
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
