// The benchmark's inputs: its own data-graph generator, the Fig. 7 query
// shapes, their child-only and hybrid instances, and the make-up of each
// workload. Nothing here calls into the program under test, so a change to
// the program cannot change what the benchmark feeds it.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Edge = std::pair<uint32_t, uint32_t>;

/// A generated data graph, as the benchmark hands it to the program.
struct DataGraph {
  uint32_t num_labels = 0;
  std::vector<uint32_t> labels;  // one per node
  std::vector<Edge> edges;       // distinct directed edges
};

/// Shape of a power-law ("bs"-like web) graph: uniform sources, targets by
/// preferential attachment, Zipf-skewed labels.
struct GraphShape {
  uint32_t nodes = 0;
  uint64_t edges = 0;
  uint32_t labels = 5;
  double label_zipf = 0.2;
};

DataGraph GeneratePowerLawGraph(const GraphShape& shape, uint64_t seed);

struct PatternEdge {
  uint32_t from = 0;
  uint32_t to = 0;
  bool descendant = false;
};

/// A hybrid pattern in the benchmark's own representation. Node i of the
/// pattern is node i of the parsed query: Text() declares the nodes in
/// index order before any edge.
struct Pattern {
  std::string name;
  std::vector<uint32_t> labels;
  std::vector<PatternEdge> edges;

  /// The pattern in the program's surface syntax, e.g.
  /// "(n0:1), (n1:0), (n0)->(n1)".
  std::string Text() const;
  /// Node count, child/descendant edge counts and sorted labels: two
  /// patterns with different signatures cannot be isomorphic.
  std::string Signature() const;
};

enum class Variant { kChildOnly, kHybrid };

/// The twelve representative Fig. 7 shapes (acyclic HQ0/HQ3/HQ5, cyclic
/// HQ6/HQ8/HQ17, cliques HQ11/HQ12/HQ19, combos HQ10/HQ14/HQ16) with one
/// label draw each from a fixed stream: the same queries on every seed.
std::vector<Pattern> TemplateInstances(Variant variant, uint32_t num_labels);

/// A pool of `size` pairwise non-isomorphic instances, child-only and
/// hybrid alternating, in a fixed random popularity order.
std::vector<Pattern> ServePool(uint32_t size, uint32_t num_labels);

/// Make-up of one workload (README.md lists the same figures).
struct WorkloadConfig {
  std::string name;
  GraphShape graph;
  bool served = false;
  Variant variant = Variant::kChildOnly;  // in-process workloads
  uint64_t limit = 20000;                 // enumeration cap per query
  double tail_percentile = 96.0;          // latency_tail_ms
  // serve-mixed only.
  uint32_t clients = 4;
  uint32_t pool_size = 0;
  double zipf = 1.0;
  uint32_t requests_per_phase = 0;  // requests between two writes
  uint32_t write_adds = 0;          // edge adds per write batch
  uint32_t write_deletes = 0;       // edge deletes per write batch
};

/// Returns false for an unknown workload name.
bool LookupWorkload(const std::string& name, WorkloadConfig* config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
