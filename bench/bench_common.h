#ifndef GPAR_BENCH_BENCH_COMMON_H_
#define GPAR_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "graph/generator.h"
#include "graph/graph.h"
#include "graph/stats.h"
#include "pattern/pattern_generator.h"
#include "rule/gpar.h"

namespace gpar::bench {

/// Global scale multiplier: GPAR_BENCH_SCALE=4 reruns every experiment on
/// 4x larger graphs. Default 1 keeps the full suite in a few minutes on a
/// laptop; the paper's absolute sizes (millions of nodes) are reduced by a
/// constant factor, which preserves curve *shapes* (see README.md,
/// "Reproduction substitutions").
inline uint32_t Scale() {
  const char* s = std::getenv("GPAR_BENCH_SCALE");
  if (s == nullptr) return 1;
  int v = std::atoi(s);
  return v >= 1 ? static_cast<uint32_t>(v) : 1;
}

/// GPAR_BENCH_SMALL=1 shrinks an experiment to a CI-sized run (fewer steps,
/// ~10x smaller graphs) so per-PR artifacts stay cheap to produce. Off by
/// default: local runs keep the paper-shaped sizes.
inline bool SmallRun() {
  const char* s = std::getenv("GPAR_BENCH_SMALL");
  return s != nullptr && std::atoi(s) >= 1;
}

/// Destination for a machine-readable report (GPAR_BENCH_JSON), or nullptr
/// when the bench should only print its table.
inline const char* JsonPath() { return std::getenv("GPAR_BENCH_JSON"); }

/// Picks the most frequent (x_label, edge, y_label) triple whose edge label
/// is `edge_name` — the benchmark predicate q(x, y).
inline Predicate PickPredicate(const Graph& g, const std::string& edge_name) {
  LabelId edge = g.labels().Lookup(edge_name);
  for (const EdgePatternStat& s : FrequentEdgePatterns(g)) {
    if (s.edge_label == edge) return {s.src_label, s.edge_label, s.dst_label};
  }
  std::fprintf(stderr, "no edge pattern with label %s\n", edge_name.c_str());
  std::abort();
}

/// Generates a Σ of `count` GPARs pertaining to `q`, lifted from `g`
/// (supported by construction), |R| controlled as in the paper's pattern
/// generator.
inline std::vector<Gpar> MakeSigma(const Graph& g, const Predicate& q,
                                   size_t count, uint32_t num_nodes,
                                   uint32_t num_edges, uint32_t max_radius,
                                   uint64_t seed = 7) {
  GparGenOptions opt;
  opt.num_nodes = num_nodes;
  opt.num_edges = num_edges;
  opt.max_radius = max_radius;
  opt.seed = seed;
  return GenerateGparWorkload(g, q, count, opt);
}

/// Table helpers: fixed-width rows the paper's figures plot.
inline void PrintHeader(const std::string& title,
                        const std::vector<std::string>& cols) {
  std::printf("\n=== %s ===\n", title.c_str());
  for (const auto& c : cols) std::printf("%16s", c.c_str());
  std::printf("\n");
  for (size_t i = 0; i < cols.size(); ++i) std::printf("%16s", "---------");
  std::printf("\n");
}

inline void PrintCell(double v) { std::printf("%16.4f", v); }
inline void PrintCell(uint64_t v) {
  std::printf("%16llu", static_cast<unsigned long long>(v));
}
inline void PrintCell(const std::string& s) { std::printf("%16s", s.c_str()); }
/// Rows flush immediately so partial results survive a timeout/kill.
inline void EndRow() {
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace gpar::bench

#endif  // GPAR_BENCH_BENCH_COMMON_H_
