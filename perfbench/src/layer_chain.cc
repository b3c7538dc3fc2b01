#include "layer_chain.h"

#include <utility>

#include "enumerate/mjoin.h"
#include "graph/interval_labels.h"
#include "graph/scc.h"
#include "inproc.h"
#include "order/search_order.h"
#include "query/transitive_reduction.h"
#include "reach/reachability.h"
#include "rig/rig_builder.h"
#include "sim/prefilter.h"

namespace perfbench {

namespace {

uint64_t TotalCardinality(const rigpm::CandidateSets& sets) {
  uint64_t n = 0;
  for (const rigpm::Bitmap& b : sets) n += b.Cardinality();
  return n;
}

}  // namespace

uint64_t RunChain(const rigpm::GmEngine& engine, const rigpm::PatternQuery& q,
                  const rigpm::GmOptions& opts, Tracer& tracer, uint64_t qid,
                  ChainStats* stats) {
  Tracer::Scope query(tracer, "query", -1, qid);
  const int64_t parent = query.id();
  const rigpm::MatchContext ctx(engine.graph(), engine.reach());
  rigpm::RigBuildOptions rig_opts;
  rig_opts.sim_algorithm = opts.sim_algorithm;
  rig_opts.sim = opts.sim;
  rig_opts.skip_simulation = !opts.use_double_simulation;
  rig_opts.early_termination = opts.early_termination;
  rigpm::RigBuildStats rig_stats;
  ++stats->queries;

  rigpm::PatternQuery reduced;
  {
    Tracer::Scope s(tracer, "query.reduce", parent, qid);
    reduced = opts.use_transitive_reduction
                  ? rigpm::QueryTransitiveReduction(q)
                  : q;
  }
  rigpm::CandidateSets seeds;
  {
    Tracer::Scope s(tracer, "sim.prefilter", parent, qid);
    seeds = opts.use_prefilter ? rigpm::PreFilter(ctx, reduced, opts.sim)
                               : rigpm::InitialMatchSets(ctx.graph(), reduced);
  }
  stats->seed_nodes += TotalCardinality(seeds);
  rigpm::CandidateSets cos;
  {
    Tracer::Scope s(tracer, "sim.simulate", parent, qid);
    cos = rigpm::SelectRigNodes(ctx, reduced, std::move(seeds), rig_opts,
                                &rig_stats);
  }
  stats->kept_nodes += TotalCardinality(cos);
  stats->sim_pair_checks += rig_stats.sim.pair_checks;
  stats->sim_pruned_nodes += rig_stats.sim.pruned_nodes;
  std::optional<rigpm::Rig> rig;
  {
    Tracer::Scope s(tracer, "rig.expand", parent, qid);
    rig.emplace(rigpm::ExpandRig(ctx, reduced, std::move(cos), rig_opts,
                                 &engine.intervals(), &rig_stats));
  }
  stats->rig_pair_checks += rig_stats.expand_pair_checks;
  stats->rig_edges += rig->TotalEdges();
  stats->rig_memory_max =
      std::max<uint64_t>(stats->rig_memory_max, rig->MemoryBytes());
  if (rig->AnyEmpty()) return 0;  // the engine's empty-RIG shortcut

  std::vector<rigpm::QueryNodeId> order;
  {
    Tracer::Scope s(tracer, "order.search_order", parent, qid);
    order = rigpm::ComputeSearchOrder(reduced, *rig, opts.order);
  }
  rigpm::MJoinOptions mjoin_opts;
  mjoin_opts.limit = opts.limit;
  rigpm::MJoinStats mjoin_stats;
  uint64_t count;
  {
    Tracer::Scope s(tracer, "enumerate.mjoin", parent, qid);
    count = rigpm::MJoin(reduced, *rig, order, nullptr, mjoin_opts,
                         &mjoin_stats);
  }
  stats->intersections += mjoin_stats.intersections;
  stats->candidates_scanned += mjoin_stats.candidates_scanned;
  stats->occurrences += count;
  return count;
}

void AddChainMetrics(const Tracer& tracer, const ChainStats& s,
                     Result* result) {
  const double n = s.queries > 0 ? static_cast<double>(s.queries) : 1.0;
  const double query_ms = tracer.TotalMs("query");
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto layer = [&](const char* metric, const char* span) {
    double ms = tracer.TotalMs(span);
    result->Add(std::string(metric) + "_ms", ms / n, "ms");
    result->Add(std::string(metric) + "_share", ratio(ms, query_ms), "ratio");
  };
  result->Add("query.total_ms", query_ms / n, "ms");
  result->Add("query.self_ms", tracer.SelfMs("query") / n, "ms");
  layer("query.reduce", "query.reduce");
  layer("sim.prefilter", "sim.prefilter");
  layer("sim.simulate", "sim.simulate");
  result->Add("sim.pair_checks", s.sim_pair_checks / n, "count");
  result->Add("sim.pruned_nodes", s.sim_pruned_nodes / n, "count");
  result->Add("sim.kept_ratio", ratio(s.kept_nodes, s.seed_nodes), "ratio");
  layer("rig.expand", "rig.expand");
  result->Add("rig.pair_checks", s.rig_pair_checks / n, "count");
  result->Add("rig.edges", s.rig_edges / n, "count");
  result->Add("rig.edges_per_check", ratio(s.rig_edges, s.rig_pair_checks),
              "ratio");
  result->Add("rig.memory_bytes", static_cast<double>(s.rig_memory_max),
              "bytes");
  layer("order.search_order", "order.search_order");
  layer("enumerate.mjoin", "enumerate.mjoin");
  result->Add("enumerate.intersections", s.intersections / n, "count");
  result->Add("enumerate.candidates_scanned", s.candidates_scanned / n,
              "count");
  result->Add("enumerate.yield_ratio",
              ratio(s.occurrences, s.candidates_scanned), "ratio");
}

TracedEngine BuildTracedEngine(const DataGraph& data, Tracer& tracer) {
  TracedEngine out;
  {
    Tracer::Scope s(tracer, "graph.build");
    out.graph = std::make_unique<rigpm::Graph>(BuildGraph(data));
  }
  Tracer::Scope build(tracer, "engine.build");
  std::unique_ptr<rigpm::ReachabilityIndex> reach;
  {
    Tracer::Scope s(tracer, "reach.index_build", build.id());
    reach = rigpm::BuildReachabilityIndex(*out.graph, rigpm::ReachKind::kBfl);
  }
  std::unique_ptr<rigpm::Condensation> condensation;
  {
    Tracer::Scope s(tracer, "graph.condensation", build.id());
    condensation = std::make_unique<rigpm::Condensation>(*out.graph);
  }
  std::unique_ptr<rigpm::IntervalLabels> intervals;
  {
    Tracer::Scope s(tracer, "graph.intervals", build.id());
    intervals =
        std::make_unique<rigpm::IntervalLabels>(*out.graph, *condensation);
  }
  out.engine = std::make_unique<rigpm::GmEngine>(
      *out.graph, std::move(reach), std::move(condensation),
      std::move(intervals));
  return out;
}

}  // namespace perfbench
