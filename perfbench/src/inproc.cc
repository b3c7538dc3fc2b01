#include "inproc.h"

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <tuple>

#include "oracle.h"
#include "query/pattern_parser.h"

namespace perfbench {

namespace {

using EdgeKey = std::tuple<uint32_t, uint32_t, bool>;

// Graphs whose streamed occurrences are checked one by one (a full extra
// evaluation each); the counts of every graph are checked.
constexpr size_t kStreamedGraphs = 4;

// Evaluates every query on `data` again with a sink and checks what it
// streams: sound, pairwise distinct, and exactly `counts[i]` of them.
void CheckStreamed(const DataGraph& data, Oracle& oracle,
                   const InProcQueries& queries,
                   const std::vector<uint64_t>& counts, uint64_t limit,
                   std::vector<std::string>* failures) {
  rigpm::Graph graph = BuildGraph(data);
  rigpm::GmEngine engine(graph);
  const rigpm::GmOptions opts = ServingOptions(limit);
  for (size_t i = 0; i < queries.patterns.size(); ++i) {
    const Pattern& p = queries.patterns[i];
    std::vector<uint32_t> flat;
    uint64_t streamed = 0;
    engine.Evaluate(queries.parsed[i], opts,
                    [&](const rigpm::Occurrence& occ) {
                      flat.insert(flat.end(), occ.begin(), occ.end());
                      ++streamed;
                      return true;
                    });
    if (streamed != counts[i]) {
      failures->push_back(p.name + ": streamed " + std::to_string(streamed) +
                          " occurrence(s), counted " +
                          std::to_string(counts[i]));
    }
    const size_t arity = p.labels.size();
    std::vector<std::vector<uint32_t>> rows;
    std::string why;
    for (size_t k = 0; k + arity <= flat.size(); k += arity) {
      std::span<const uint32_t> occ(flat.data() + k, arity);
      if (!oracle.Sound(p, occ, &why)) {
        failures->push_back(p.name + ": unsound occurrence: " + why);
        break;
      }
      rows.emplace_back(occ.begin(), occ.end());
    }
    std::sort(rows.begin(), rows.end());
    if (std::adjacent_find(rows.begin(), rows.end()) != rows.end()) {
      failures->push_back(p.name + ": an occurrence was streamed twice");
    }
  }
}

}  // namespace

void PrepareQueries(const WorkloadConfig& config, InProcQueries* queries,
                    Result* result) {
  queries->patterns = TemplateInstances(config.variant, config.graph.labels);
  for (const Pattern& p : queries->patterns) {
    std::string error;
    auto q = rigpm::ParsePattern(p.Text(), &error);
    if (!q.has_value()) {
      result->Fail(p.name + ": cannot parse '" + p.Text() + "': " + error);
      queries->parsed.emplace_back();
      continue;
    }
    std::set<EdgeKey> want, got;
    for (const PatternEdge& e : p.edges) want.emplace(e.from, e.to, e.descendant);
    for (const rigpm::QueryEdge& e : q->Edges()) {
      got.emplace(e.from, e.to, e.kind == rigpm::EdgeKind::kDescendant);
    }
    if (q->Labels() != p.labels || want != got) {
      result->Fail(p.name + ": parsed query differs from its pattern");
    }
    queries->parsed.push_back(std::move(*q));
  }
}

DataGraph RunGraph(const WorkloadConfig& config, uint64_t seed, uint32_t k) {
  return GeneratePowerLawGraph(config.graph, seed * 1000 + k);
}

rigpm::GmOptions ServingOptions(uint64_t limit) {
  rigpm::GmOptions opts;  // the defaults QueryRequest also carries
  opts.limit = limit;
  return opts;
}

rigpm::Graph BuildGraph(const DataGraph& data) {
  return rigpm::Graph::FromEdges(
      std::vector<rigpm::LabelId>(data.labels.begin(), data.labels.end()),
      std::vector<std::pair<rigpm::NodeId, rigpm::NodeId>>(data.edges.begin(),
                                                           data.edges.end()));
}

double VerifyRun(const WorkloadConfig& config, uint64_t seed,
                 const InProcQueries& queries,
                 const std::vector<std::vector<uint64_t>>& counts,
                 Result* result) {
  const size_t graphs = counts.size();
  std::vector<std::vector<std::string>> failures(graphs);
  std::vector<double> oracle_ms(graphs, 0);
  std::atomic<size_t> next{0};
  auto check = [&] {
    for (size_t k = next.fetch_add(1); k < graphs; k = next.fetch_add(1)) {
      DataGraph data = RunGraph(config, seed, static_cast<uint32_t>(k));
      Oracle oracle(data);
      for (size_t i = 0; i < queries.patterns.size(); ++i) {
        auto t0 = Clock::now();
        uint64_t expected = oracle.Count(queries.patterns[i], config.limit);
        oracle_ms[k] += MsBetween(t0, Clock::now());
        if (counts[k][i] != expected) {
          failures[k].push_back(queries.patterns[i].name + " on graph " +
                                std::to_string(k) + ": engine count " +
                                std::to_string(counts[k][i]) +
                                " != oracle count " + std::to_string(expected));
        }
      }
      if (k < kStreamedGraphs) {
        CheckStreamed(data, oracle, queries, counts[k], config.limit,
                      &failures[k]);
      }
    }
  };
  const unsigned workers =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < workers; ++w) threads.emplace_back(check);
  for (std::thread& t : threads) t.join();
  double total_ms = 0;
  for (size_t k = 0; k < graphs; ++k) {
    total_ms += oracle_ms[k];
    for (const std::string& f : failures[k]) result->Fail(f);
  }
  const size_t evaluated = graphs * queries.patterns.size();
  return evaluated > 0 ? total_ms / evaluated : 0;
}

}  // namespace perfbench
