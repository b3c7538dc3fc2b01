// perfbench_e2e — the untraced run: end-to-end metrics only.
//
// Drives the program through its public entry points alone
// (GmEngine::Evaluate in process, QueryClient against rigpm_serve), so a
// change to an inner layer's signature cannot stop it from building.
//
//   perfbench_e2e --workload cq-bs --seed 1 --seconds 10
//   perfbench_e2e --workload serve-mixed --seed 1 --seconds 10
//       --serve-binary PATH/rigpm_serve --work-dir DIR

#include <cstdio>
#include <memory>

#include "common.h"
#include "inproc.h"
#include "serve.h"

namespace perfbench {
namespace {

void RunInProcess(const Args& args, const WorkloadConfig& config,
                  Result* result) {
  InProcQueries queries;
  PrepareQueries(config, &queries, result);
  if (!result->correct()) return;
  const rigpm::GmOptions opts = ServingOptions(config.limit);

  // Set-up, cold, once: everything before the first query can be answered.
  DataGraph data = RunGraph(config, args.seed, 0);
  auto setup_start = Clock::now();
  auto graph = std::make_unique<rigpm::Graph>(BuildGraph(data));
  auto engine = std::make_unique<rigpm::GmEngine>(*graph);
  const double setup_s = MsBetween(setup_start, Clock::now()) / 1000.0;

  // Timed phase: one round (every query) per graph, on fresh graphs until
  // the queries have taken the run's time. Building the next graph is not
  // timed.
  std::vector<std::vector<uint64_t>> counts;
  std::vector<double> latency_ms;
  double timed_ms = 0;
  PinToCurrentCpu();
  for (uint32_t k = 0; timed_ms < args.seconds * 1000; ++k) {
    if (k > 0) {
      engine.reset();
      graph.reset();
      data = RunGraph(config, args.seed, k);
      graph = std::make_unique<rigpm::Graph>(BuildGraph(data));
      engine = std::make_unique<rigpm::GmEngine>(*graph);
    }
    data = DataGraph();
    rigpm::EvalContext ctx = engine->MakeContext();
    counts.emplace_back();
    for (const rigpm::PatternQuery& q : queries.parsed) {
      auto t0 = Clock::now();
      counts.back().push_back(engine->Evaluate(ctx, q, opts).num_occurrences);
      double ms = MsBetween(t0, Clock::now());
      timed_ms += ms;
      latency_ms.push_back(ms);
      ++result->attempted;
    }
  }
  const double peak_rss = PeakRssMb();
  UnpinCpu();
  engine.reset();
  graph.reset();

  double oracle_ms = VerifyRun(config, args.seed, queries, counts, result);
  std::fprintf(stderr,
               "%s: %zu queries x %zu graphs = %zu samples in %.1f s of "
               "queries; oracle %.2f ms/query\n",
               config.name.c_str(), queries.parsed.size(), counts.size(),
               latency_ms.size(), timed_ms / 1000, oracle_ms);

  result->Add("setup_s", setup_s, "s");
  result->Add("queries_per_s", latency_ms.size() / (timed_ms / 1000), "1/s");
  result->Add("latency_p50_ms", Median(latency_ms), "ms");
  result->Add("latency_tail_ms",
              Percentile(latency_ms, config.tail_percentile), "ms");
  result->Add("peak_rss_mb", peak_rss, "MB");
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
  Result result;
  if (config.served) {
    if (!RunServeMixed(args, config, nullptr, {}, &result)) return 1;
  } else {
    RunInProcess(args, config, &result);
  }
  result.Print();
  return 0;
}
