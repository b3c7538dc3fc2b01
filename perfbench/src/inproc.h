// Shared parts of the in-process workloads (cq-bs, hq-bs): making the
// inputs and checking the engine's answers against the oracle. The timed
// loops live in the two drivers (untraced and traced).
//
// A run evaluates the query set on a stream of graphs drawn from its seed,
// one round per graph, until the time is up. A single power-law graph
// makes some queries several times cheaper or dearer than on the next
// graph; many distinct graphs per run keep the figures steady.

#ifndef PERFBENCH_INPROC_H_
#define PERFBENCH_INPROC_H_

#include <cstdint>
#include <vector>

#include "common.h"
#include "engine/gm_engine.h"
#include "query/pattern_query.h"
#include "workload.h"

namespace perfbench {

struct InProcQueries {
  std::vector<Pattern> patterns;
  std::vector<rigpm::PatternQuery> parsed;  // from each pattern's text
};

/// Makes the queries and parses each one's text with the program's
/// parser, checking that the parse is the intended pattern.
void PrepareQueries(const WorkloadConfig& config, InProcQueries* queries,
                    Result* result);

/// Graph `k` of the run with seed `seed` (generator seed 1000·seed + k).
DataGraph RunGraph(const WorkloadConfig& config, uint64_t seed, uint32_t k);

/// The daemon's default evaluation options, with the workload's cap.
rigpm::GmOptions ServingOptions(uint64_t limit);

/// Builds the program's graph from the generated input.
rigpm::Graph BuildGraph(const DataGraph& data);

/// After the timed phase. counts[k][i] is the engine's count of query i on
/// graph k. Every count must equal the oracle's (both capped at the
/// workload's limit). On the first few graphs, every occurrence Evaluate
/// streams must also be sound, distinct, and as many as the count. Returns
/// the oracle's mean time per query in ms.
double VerifyRun(const WorkloadConfig& config, uint64_t seed,
                 const InProcQueries& queries,
                 const std::vector<std::vector<uint64_t>>& counts,
                 Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_INPROC_H_
