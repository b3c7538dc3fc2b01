#include "workload.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>

#include "rng.h"

namespace perfbench {

namespace {

// Fixed streams: the queries are the same on every seed, only the data
// graph (and the serve-mixed request stream) follows --seed.
constexpr uint64_t kInstanceSeed = 0x5eed0007;
constexpr uint64_t kPoolSeed = 0x5eed0011;

struct Shape {
  const char* name;
  uint32_t nodes;
  std::vector<Edge> edges;
};

std::vector<Edge> Clique(uint32_t n) {
  std::vector<Edge> e;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) e.emplace_back(i, j);
  }
  return e;
}

const std::vector<Shape>& Shapes() {
  static const std::vector<Shape> shapes = {
      {"HQ0", 4, {{0, 1}, {1, 2}, {0, 3}}},
      {"HQ3", 7, {{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}, {2, 6}}},
      {"HQ5", 8, {{0, 1}, {1, 2}, {2, 3}, {1, 4}, {4, 5}, {0, 6}, {6, 7}}},
      {"HQ6", 4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}},
      {"HQ8", 3, {{0, 1}, {0, 2}, {1, 2}}},
      {"HQ17", 6, {{0, 1}, {1, 2}, {0, 3}, {3, 2}, {2, 4}, {2, 5}}},
      {"HQ11", 4, Clique(4)},
      {"HQ12", 5, Clique(5)},
      {"HQ19", 7, Clique(7)},
      {"HQ10", 5, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {2, 4}}},
      {"HQ14",
       8,
       {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {1, 2}, {3, 4}, {3, 5}, {4, 5},
        {4, 6}, {5, 6}, {6, 7}, {2, 7}}},
      {"HQ16",
       7,
       {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 4}, {3, 4}, {4, 5}, {3, 5},
        {5, 6}, {0, 6}}},
  };
  return shapes;
}

Pattern Instantiate(const Shape& shape, Variant variant, Rng& rng,
                    uint32_t num_labels) {
  Pattern p;
  p.name = std::string(variant == Variant::kHybrid ? "H" : "C") + shape.name;
  for (uint32_t i = 0; i < shape.nodes; ++i) {
    p.labels.push_back(rng.Below(num_labels));
  }
  for (size_t i = 0; i < shape.edges.size(); ++i) {
    // Hybrid instances make every second edge a descendant edge.
    bool desc = variant == Variant::kHybrid && i % 2 == 1;
    p.edges.push_back({shape.edges[i].first, shape.edges[i].second, desc});
  }
  return p;
}

}  // namespace

DataGraph GeneratePowerLawGraph(const GraphShape& shape, uint64_t seed) {
  Rng rng(StreamSeed(seed, 1));
  DataGraph g;
  g.num_labels = shape.labels;
  std::vector<double> cumulative;
  double total = 0;
  for (uint32_t l = 0; l < shape.labels; ++l) {
    total += 1.0 / std::pow(l + 1.0, shape.label_zipf);
    cumulative.push_back(total);
  }
  g.labels.reserve(shape.nodes);
  for (uint32_t v = 0; v < shape.nodes; ++v) {
    double x = rng.Unit() * total;
    uint32_t l = static_cast<uint32_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), x) -
        cumulative.begin());
    g.labels.push_back(std::min(l, shape.labels - 1));
  }
  // Targets are drawn from a pool holding every node once plus every
  // target chosen so far, so in-degrees grow a heavy tail.
  std::vector<uint32_t> pool(shape.nodes);
  for (uint32_t v = 0; v < shape.nodes; ++v) pool[v] = v;
  pool.reserve(shape.nodes + shape.edges);
  std::unordered_set<uint64_t> seen;
  seen.reserve(shape.edges * 2);
  g.edges.reserve(shape.edges);
  while (g.edges.size() < shape.edges) {
    uint32_t u = rng.Below(shape.nodes);
    uint32_t v = pool[rng.Below(static_cast<uint32_t>(pool.size()))];
    if (u == v && rng.Unit() > 0.001) continue;  // rare self loops
    if (!seen.insert(uint64_t{u} << 32 | v).second) continue;
    g.edges.emplace_back(u, v);
    pool.push_back(v);
  }
  return g;
}

std::string Pattern::Text() const {
  std::string s;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) s += ", ";
    s += "(n" + std::to_string(i) + ":" + std::to_string(labels[i]) + ")";
  }
  for (const PatternEdge& e : edges) {
    s += ", (n" + std::to_string(e.from) + ")" + (e.descendant ? "=>" : "->") +
         "(n" + std::to_string(e.to) + ")";
  }
  return s;
}

std::string Pattern::Signature() const {
  std::vector<uint32_t> sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  size_t desc = 0;
  for (const PatternEdge& e : edges) desc += e.descendant ? 1 : 0;
  std::string s = std::to_string(labels.size()) + "/" +
                  std::to_string(edges.size() - desc) + "/" +
                  std::to_string(desc) + ":";
  for (uint32_t l : sorted) s += std::to_string(l) + ",";
  return s;
}

std::vector<Pattern> TemplateInstances(Variant variant, uint32_t num_labels) {
  std::vector<Pattern> out;
  Rng rng(kInstanceSeed);
  for (const Shape& shape : Shapes()) {
    out.push_back(Instantiate(shape, variant, rng, num_labels));
  }
  return out;
}

std::vector<Pattern> ServePool(uint32_t size, uint32_t num_labels) {
  std::vector<Pattern> out;
  std::set<std::string> signatures;
  Rng rng(kPoolSeed);
  const auto& shapes = Shapes();
  for (uint32_t i = 0; out.size() < size; ++i) {
    Variant v = i % 2 == 0 ? Variant::kChildOnly : Variant::kHybrid;
    const Shape& shape = shapes[(i / 2) % shapes.size()];
    Pattern p = Instantiate(shape, v, rng, num_labels);
    p.name += "." + std::to_string(i / (2 * shapes.size()));
    // Distinct signatures make the pool pairwise non-isomorphic, so the
    // daemon's cache sees exactly one key per pool entry.
    if (signatures.insert(p.Signature()).second) out.push_back(std::move(p));
  }
  // Popularity order: a fixed shuffle, so hot entries mix both variants.
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.Below(static_cast<uint32_t>(i))]);
  }
  return out;
}

bool LookupWorkload(const std::string& name, WorkloadConfig* c) {
  *c = WorkloadConfig();
  c->name = name;
  if (name == "cq-bs") {
    c->graph = {.nodes = 13700, .edges = 152000};
    c->variant = Variant::kChildOnly;
    return true;
  }
  if (name == "hq-bs") {
    c->graph = {.nodes = 3400, .edges = 38000};
    c->variant = Variant::kHybrid;
    c->tail_percentile = 97.0;
    return true;
  }
  if (name == "serve-mixed") {
    c->graph = {.nodes = 6850, .edges = 76000};
    c->served = true;
    c->tail_percentile = 99.95;
    c->clients = 4;
    c->pool_size = 32;
    c->zipf = 1.0;
    c->requests_per_phase = 2000;
    c->write_adds = 200;
    c->write_deletes = 200;
    return true;
  }
  return false;
}

}  // namespace perfbench
