// The traced run's view of the engine: the same chain of public layer
// functions GmEngine::Evaluate runs (Reduce, Prefilter, Simulate, BuildRig,
// Order, Enumerate), called one by one with a span around each, plus the
// engine set-up split into its index builds. Only perfbench_trace links
// this file, so a signature change here cannot stop the untraced run.

#ifndef PERFBENCH_LAYER_CHAIN_H_
#define PERFBENCH_LAYER_CHAIN_H_

#include <cstdint>
#include <memory>

#include "common.h"
#include "engine/gm_engine.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

/// Counters the layer functions return, summed over the chained queries.
struct ChainStats {
  uint64_t queries = 0;
  uint64_t sim_pair_checks = 0;
  uint64_t sim_pruned_nodes = 0;
  uint64_t seed_nodes = 0;  // Σ candidate-set sizes before Simulate
  uint64_t kept_nodes = 0;  // Σ |cos(q)| after Simulate
  uint64_t rig_pair_checks = 0;
  uint64_t rig_edges = 0;
  uint64_t rig_memory_max = 0;
  uint64_t intersections = 0;
  uint64_t candidates_scanned = 0;
  uint64_t occurrences = 0;
};

/// Runs `q` through the layer chain under a "query" span with id `qid`
/// and returns its occurrence count.
uint64_t RunChain(const rigpm::GmEngine& engine, const rigpm::PatternQuery& q,
                  const rigpm::GmOptions& opts, Tracer& tracer, uint64_t qid,
                  ChainStats* stats);

/// Adds the sim.*, rig.*, enumerate.* and order/query per-layer metrics.
void AddChainMetrics(const Tracer& tracer, const ChainStats& stats,
                     Result* result);

/// A graph and an engine built step by step under the spans graph.build,
/// engine.build and its children reach.index_build, graph.condensation and
/// graph.intervals.
struct TracedEngine {
  std::unique_ptr<rigpm::Graph> graph;
  std::unique_ptr<rigpm::GmEngine> engine;
};
TracedEngine BuildTracedEngine(const DataGraph& data, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_CHAIN_H_
