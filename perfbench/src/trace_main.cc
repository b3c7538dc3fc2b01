// perfbench_trace — the traced run: per-layer metrics.
//
// Same workloads and inputs as perfbench_e2e, but the queries run through
// the layer chain (layer_chain.h) with a span around every layer call, and
// each query's chain count must equal GmEngine::Evaluate's count. Spans are
// kept in memory and written to --trace-out at the end.
//
//   perfbench_trace --workload hq-bs --seed 1 --seconds 10
//       --serve-binary PATH/rigpm_serve --work-dir DIR --trace-out FILE

#include <cstdio>

#include "common.h"
#include "inproc.h"
#include "layer_chain.h"
#include "serve.h"
#include "trace.h"

namespace perfbench {
namespace {

void RunInProcessTraced(const Args& args, const WorkloadConfig& config,
                        Tracer& tracer, Result* result) {
  InProcQueries queries;
  PrepareQueries(config, &queries, result);
  if (!result->correct()) return;
  const rigpm::GmOptions opts = ServingOptions(config.limit);

  // The same stream of graphs as the untraced run. Each query's chain
  // count must equal GmEngine::Evaluate's count on the same engine.
  std::vector<std::vector<uint64_t>> counts;
  ChainStats stats;
  uint64_t qid = 0;
  double chained_ms = 0;
  for (uint32_t k = 0; chained_ms < args.seconds * 1000; ++k) {
    TracedEngine te =
        BuildTracedEngine(RunGraph(config, args.seed, k), tracer);
    counts.emplace_back();
    for (size_t i = 0; i < queries.parsed.size(); ++i) {
      const rigpm::PatternQuery& q = queries.parsed[i];
      uint64_t expected = te.engine->Evaluate(q, opts).num_occurrences;
      auto t0 = Clock::now();
      uint64_t n = RunChain(*te.engine, q, opts, tracer, ++qid, &stats);
      chained_ms += MsBetween(t0, Clock::now());
      ++result->attempted;
      counts.back().push_back(expected);
      if (n != expected) {
        result->Fail(queries.patterns[i].name + ": layer chain counted " +
                     std::to_string(n) + ", Evaluate " +
                     std::to_string(expected));
      }
    }
  }
  AddChainMetrics(tracer, stats, result);
  result->Add("oracle.count_ms",
              VerifyRun(config, args.seed, queries, counts, result), "ms");

  // The storage and server layers on this workload's first graph and its
  // queries: a short served session of two generations.
  ServeSpec spec;
  spec.requests_per_phase =
      16 * static_cast<uint32_t>(queries.patterns.size());
  spec.write_adds = spec.write_deletes = 100;
  spec.limit = config.limit;
  spec.max_rounds = 2;
  spec.report_oracle_ms = false;  // reported above, from this workload's graphs
  if (!RunServed(args, spec, RunGraph(config, args.seed, 0), queries.patterns,
                 &tracer, {}, result)) {
    result->Fail("the served session did not run");
  }
}

void RunServeMixedTraced(const Args& args, const WorkloadConfig& config,
                         Tracer& tracer, Result* result) {
  ChainStats stats;
  const rigpm::GmOptions opts = ServingOptions(config.limit);
  ServeHooks hooks;
  hooks.build = [&](const DataGraph& data) {
    TracedEngine te = BuildTracedEngine(data, tracer);
    return std::make_pair(std::move(te.graph), std::move(te.engine));
  };
  hooks.chain = [&](const rigpm::GmEngine& engine,
                    const rigpm::PatternQuery& q, uint64_t qid) {
    return RunChain(engine, q, opts, tracer, qid, &stats);
  };
  if (!RunServeMixed(args, config, &tracer, hooks, result)) {
    result->Fail("serve-mixed did not run");
    return;
  }
  AddChainMetrics(tracer, stats, result);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  WorkloadConfig config;
  if (!LookupWorkload(args.workload, &config)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  Tracer tracer;
  Result result;
  if (config.served) {
    RunServeMixedTraced(args, config, tracer, &result);
  } else {
    RunInProcessTraced(args, config, tracer, &result);
  }
  // Set-up spans: the mean over the engines the run built.
  for (const char* span : {"graph.build", "engine.build", "reach.index_build"}) {
    std::vector<double> ms = tracer.Durations(span);
    double total = 0;
    for (double d : ms) total += d;
    result.Add(std::string(span) + "_ms", ms.empty() ? 0 : total / ms.size(),
               "ms");
  }
  if (!args.trace_out.empty() && !tracer.Write(args.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    return 1;
  }
  result.Print();
  return 0;
}
