// Served workloads: rigpm_serve on a snapshot of the generated graph,
// driven as a closed loop over a Unix socket by QueryClient connections,
// with explicit delta-log writes and kRefresh between request phases.

#ifndef PERFBENCH_SERVE_H_
#define PERFBENCH_SERVE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common.h"
#include "engine/gm_engine.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

/// Shape of one served session.
struct ServeSpec {
  uint32_t clients = 4;
  double zipf = 1.0;
  uint32_t requests_per_phase = 0;
  uint32_t write_adds = 0;
  uint32_t write_deletes = 0;
  uint64_t limit = 20000;
  double tail_percentile = 99.0;
  double seconds = 10;
  uint32_t max_rounds = 0;  // 0 = whole rounds until `seconds` are up
  // Traced runs: report oracle.count_ms (mean oracle time per served pair).
  // Off where the caller reports its own.
  bool report_oracle_ms = true;
};

/// Optional calls into the program that only the traced run makes.
struct ServeHooks {
  /// Builds the engine the snapshot is taken of (default: BuildGraph +
  /// the GmEngine constructor). The graph is returned alongside.
  std::function<std::pair<std::unique_ptr<rigpm::Graph>,
                          std::unique_ptr<rigpm::GmEngine>>(const DataGraph&)>
      build;
  /// Re-runs one served query in process through the layer chain and
  /// returns its count, which must equal the served count.
  std::function<uint64_t(const rigpm::GmEngine&, const rigpm::PatternQuery&,
                         uint64_t qid)>
      chain;
};

/// Runs one served session over `data` and `pool`. Without a tracer it
/// reports the five end-to-end metrics; with one, the server.* and
/// storage.* per-layer metrics and oracle.count_ms. Every served count is
/// checked against the oracle on the generation it was served from. Returns false when the
/// session could not run at all (no daemon, unusable work directory).
bool RunServed(const Args& args, const ServeSpec& spec, const DataGraph& data,
               const std::vector<Pattern>& pool, Tracer* tracer,
               const ServeHooks& hooks, Result* result);

/// The serve-mixed workload: its own graph and pool, RunServed on them.
bool RunServeMixed(const Args& args, const WorkloadConfig& config,
                   Tracer* tracer, const ServeHooks& hooks, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_H_
