#include "oracle.h"

#include <algorithm>
#include <functional>

namespace perfbench {

namespace {

struct Step {
  uint32_t node = 0;
  int anchor = -1;  // pattern edge that generates candidates; -1 = label list
  std::vector<uint32_t> checks;  // further edges to already-placed nodes
};

// Connected matching order: start at the rarest label, then repeatedly add
// the node with the most edges to the placed ones (child edges first).
std::vector<Step> PlanOrder(const Pattern& p,
                            const std::vector<std::vector<uint32_t>>& by_label) {
  const uint32_t n = static_cast<uint32_t>(p.labels.size());
  auto label_size = [&](uint32_t q) {
    return p.labels[q] < by_label.size() ? by_label[p.labels[q]].size() : 0;
  };
  std::vector<bool> placed(n, false);
  std::vector<Step> steps;
  for (uint32_t k = 0; k < n; ++k) {
    int best = -1;
    long best_score = -1;
    for (uint32_t q = 0; q < n; ++q) {
      if (placed[q]) continue;
      long links = 0, child = 0;
      for (const PatternEdge& e : p.edges) {
        uint32_t other = e.from == q ? e.to : e.to == q ? e.from : n;
        if (other == n || other == q || !placed[other]) continue;
        ++links;
        child += e.descendant ? 0 : 1;
      }
      if (k > 0 && links == 0) continue;
      long score = (links * 64 + child) * (1L << 32) -
                   static_cast<long>(label_size(q));
      if (score > best_score) best_score = score, best = static_cast<int>(q);
    }
    if (best < 0) {  // disconnected pattern: start a new component
      for (uint32_t q = 0; q < n; ++q) {
        if (!placed[q]) {
          best = static_cast<int>(q);
          break;
        }
      }
    }
    Step s;
    s.node = static_cast<uint32_t>(best);
    for (uint32_t i = 0; i < p.edges.size(); ++i) {
      const PatternEdge& e = p.edges[i];
      bool touches = e.from == s.node || e.to == s.node;
      uint32_t other = e.from == s.node ? e.to : e.from;
      if (!touches || (other != s.node && !placed[other])) continue;
      bool better_anchor =
          other != s.node &&
          (s.anchor < 0 || (p.edges[s.anchor].descendant && !e.descendant));
      if (better_anchor) {
        if (s.anchor >= 0) s.checks.push_back(static_cast<uint32_t>(s.anchor));
        s.anchor = static_cast<int>(i);
      } else {
        s.checks.push_back(i);
      }
    }
    placed[s.node] = true;
    steps.push_back(std::move(s));
  }
  return steps;
}

}  // namespace

Oracle::Oracle(const DataGraph& g)
    : n_(static_cast<uint32_t>(g.labels.size())), labels_(g.labels) {
  out_off_.assign(n_ + 1, 0);
  in_off_.assign(n_ + 1, 0);
  for (const Edge& e : g.edges) {
    ++out_off_[e.first + 1];
    ++in_off_[e.second + 1];
  }
  for (uint32_t v = 0; v < n_; ++v) {
    out_off_[v + 1] += out_off_[v];
    in_off_[v + 1] += in_off_[v];
  }
  out_.resize(g.edges.size());
  in_.resize(g.edges.size());
  std::vector<uint64_t> out_pos(out_off_.begin(), out_off_.end() - 1);
  std::vector<uint64_t> in_pos(in_off_.begin(), in_off_.end() - 1);
  for (const Edge& e : g.edges) {
    out_[out_pos[e.first]++] = e.second;
    in_[in_pos[e.second]++] = e.first;
  }
  for (uint32_t v = 0; v < n_; ++v) {
    std::sort(out_.begin() + out_off_[v], out_.begin() + out_off_[v + 1]);
    std::sort(in_.begin() + in_off_[v], in_.begin() + in_off_[v + 1]);
  }
  by_label_.resize(g.num_labels);
  for (uint32_t v = 0; v < n_; ++v) {
    if (labels_[v] >= by_label_.size()) by_label_.resize(labels_[v] + 1);
    by_label_[labels_[v]].push_back(v);
  }
}

bool Oracle::HasEdge(uint32_t u, uint32_t v) const {
  return std::binary_search(out_.begin() + out_off_[u],
                            out_.begin() + out_off_[u + 1], v);
}

const std::vector<uint64_t>& Oracle::Reach(uint32_t v, bool forward) {
  auto& memo = forward ? fwd_memo_ : bwd_memo_;
  auto it = memo.find(v);
  if (it != memo.end()) return it->second;
  const std::vector<uint64_t>& off = forward ? out_off_ : in_off_;
  const std::vector<uint32_t>& adj = forward ? out_ : in_;
  std::vector<uint64_t> seen((n_ + 63) / 64, 0);
  std::vector<uint32_t> frontier = {v};
  while (!frontier.empty()) {
    uint32_t u = frontier.back();
    frontier.pop_back();
    for (uint64_t i = off[u]; i < off[u + 1]; ++i) {
      uint32_t w = adj[i];
      uint64_t bit = uint64_t{1} << (w & 63);
      if (seen[w >> 6] & bit) continue;
      seen[w >> 6] |= bit;
      frontier.push_back(w);
    }
  }
  return memo.emplace(v, std::move(seen)).first->second;
}

uint64_t Oracle::Count(const Pattern& p, uint64_t limit) {
  const std::vector<Step> steps = PlanOrder(p, by_label_);
  std::vector<uint32_t> h(p.labels.size(), 0);
  uint64_t count = 0;

  auto satisfied = [&](uint32_t e) {
    const PatternEdge& pe = p.edges[e];
    return pe.descendant ? Reaches(h[pe.from], h[pe.to])
                         : HasEdge(h[pe.from], h[pe.to]);
  };

  std::function<void(size_t)> extend = [&](size_t k) {
    if (count >= limit) return;
    if (k == steps.size()) {
      ++count;
      return;
    }
    const Step& s = steps[k];
    const uint32_t want = p.labels[s.node];
    auto try_node = [&](uint32_t v) {
      if (count >= limit || labels_[v] != want) return;
      h[s.node] = v;
      for (uint32_t e : s.checks) {
        if (!satisfied(e)) return;
      }
      extend(k + 1);
    };
    if (s.anchor < 0) {
      if (want < by_label_.size()) {
        for (uint32_t v : by_label_[want]) try_node(v);
      }
      return;
    }
    const PatternEdge& a = p.edges[s.anchor];
    const bool forward = a.to == s.node;  // placed node is the edge's tail
    const uint32_t from = h[forward ? a.from : a.to];
    if (!a.descendant) {
      const std::vector<uint64_t>& off = forward ? out_off_ : in_off_;
      const std::vector<uint32_t>& adj = forward ? out_ : in_;
      for (uint64_t i = off[from]; i < off[from + 1]; ++i) try_node(adj[i]);
      return;
    }
    // Memo entries keep their address when deeper steps add more.
    const std::vector<uint64_t>& reach = Reach(from, forward);
    for (size_t w = 0; w < reach.size(); ++w) {
      for (uint64_t bits = reach[w]; bits != 0; bits &= bits - 1) {
        try_node(static_cast<uint32_t>(w * 64 + __builtin_ctzll(bits)));
      }
    }
  };
  extend(0);
  return count;
}

bool Oracle::Sound(const Pattern& p, std::span<const uint32_t> occ,
                   std::string* why) {
  if (occ.size() != p.labels.size()) {
    *why = "occurrence has " + std::to_string(occ.size()) + " nodes, pattern " +
           std::to_string(p.labels.size());
    return false;
  }
  for (size_t i = 0; i < occ.size(); ++i) {
    if (occ[i] >= n_ || labels_[occ[i]] != p.labels[i]) {
      *why = "node " + std::to_string(i) + " -> " + std::to_string(occ[i]) +
             " has the wrong label";
      return false;
    }
  }
  for (const PatternEdge& e : p.edges) {
    bool ok = e.descendant ? Reaches(occ[e.from], occ[e.to])
                           : HasEdge(occ[e.from], occ[e.to]);
    if (!ok) {
      *why = std::string(e.descendant ? "descendant" : "child") + " edge " +
             std::to_string(e.from) + "->" + std::to_string(e.to) +
             " not satisfied by " + std::to_string(occ[e.from]) + "->" +
             std::to_string(occ[e.to]);
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
