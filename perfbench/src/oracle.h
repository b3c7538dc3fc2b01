// Independent correctness oracle: a by-definition homomorphism counter.
//
// It reads the generated label list and edge list directly, keeps its own
// sorted adjacency, and answers descendant edges with its own BFS. It uses
// nothing from the program under test, so an agreement between the two is
// evidence, not an echo.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "workload.h"

namespace perfbench {

/// Not thread-safe (the reachability memo is mutable); use one per thread.
class Oracle {
 public:
  explicit Oracle(const DataGraph& g);

  /// Number of homomorphisms of `p` into the graph, capped at `limit`.
  uint64_t Count(const Pattern& p, uint64_t limit);

  /// True iff `occurrence` (occurrence[i] = data node of pattern node i) is
  /// a homomorphism: labels match, every child edge is a data edge, every
  /// descendant edge's target is reachable by a path of one or more edges.
  /// Otherwise false, with the first violation in *why.
  bool Sound(const Pattern& p, std::span<const uint32_t> occurrence,
             std::string* why);

 private:
  bool HasEdge(uint32_t u, uint32_t v) const;
  /// Nodes reachable from `v` (forward) or reaching `v` (backward) through
  /// at least one edge, as a bitset; memoized.
  const std::vector<uint64_t>& Reach(uint32_t v, bool forward);
  bool Reaches(uint32_t u, uint32_t v) {
    return (Reach(u, true)[v >> 6] >> (v & 63)) & 1;
  }

  uint32_t n_ = 0;
  std::vector<uint32_t> labels_;
  std::vector<uint64_t> out_off_, in_off_;
  std::vector<uint32_t> out_, in_;
  std::vector<std::vector<uint32_t>> by_label_;
  std::unordered_map<uint32_t, std::vector<uint64_t>> fwd_memo_, bwd_memo_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
