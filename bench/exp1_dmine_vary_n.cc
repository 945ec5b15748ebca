// Experiment E1a/E1b/E1e — Figures 5(a), 5(b), 5(e): DMine vs DMineno,
// varying the number of processors n on Pokec-like, Google+-like, and
// synthetic graphs. The reported time is the simulated parallel time
// (max per-worker CPU per round + coordinator); see README.md,
// "Reproduction substitutions".
//
// Paper shape to reproduce: both curves fall as n grows (DMine ~3.7x /
// 2.69x faster from n=4 to 20); DMine beats DMineno at every n.

#include <cstdio>

#include "bench_common.h"
#include "mine/dmine.h"

namespace gpar::bench {
namespace {

void RunSeries(const std::string& name, const Graph& g, const Predicate& q,
               uint64_t sigma) {
  PrintHeader("Fig 5 DMine varying n — " + name,
              {"n", "DMine(s)", "DMineno(s)", "speedup_vs_n4", "rules"});
  DmineOptions base;
  base.k = 10;
  base.d = 2;
  base.sigma = sigma;
  base.lambda = 0.5;
  base.max_pattern_edges = 3;
  base.seed_edge_limit = 12;
  base.max_candidates_per_round = 120;

  double t4 = 0;
  for (uint32_t n : {4u, 8u, 12u, 16u, 20u}) {
    DmineOptions opt = base;
    opt.num_workers = n;
    auto fast = Dmine(g, q, opt);
    auto slow = Dmine(g, q, DmineNoOptions(opt));
    if (!fast.ok() || !slow.ok()) {
      std::fprintf(stderr, "dmine failed\n");
      return;
    }
    double tf = fast->times.SimulatedParallelSeconds();
    double ts = slow->times.SimulatedParallelSeconds();
    if (n == 4) t4 = tf;
    PrintCell(static_cast<uint64_t>(n));
    PrintCell(tf);
    PrintCell(ts);
    PrintCell(t4 > 0 ? t4 / tf : 0.0);
    PrintCell(static_cast<uint64_t>(fast->stats.accepted));
    EndRow();
  }
}

}  // namespace
}  // namespace gpar::bench

int main() {
  using namespace gpar;
  using namespace gpar::bench;
  const uint32_t scale = Scale();

  {
    Graph g = MakePokecLike(scale);
    Predicate q = PickPredicate(g, "like_music");
    std::printf("[Pokec-like] |V|+|E| = %zu\n", g.size());
    RunSeries("Pokec-like (Fig 5a)", g, q, 10 * scale);
  }
  {
    Graph g = MakeGPlusLike(scale);
    Predicate q = PickPredicate(g, "majored_in");
    std::printf("[GPlus-like] |V|+|E| = %zu\n", g.size());
    RunSeries("Google+-like (Fig 5b)", g, q, 30 * scale);
  }
  {
    Graph g = MakeSynthetic(10000 * scale, 20000 * scale, 100, 42);
    auto freq = FrequentEdgePatterns(g, 1);
    Predicate q{freq[0].src_label, freq[0].edge_label, freq[0].dst_label};
    std::printf("[Synthetic] |V|+|E| = %zu\n", g.size());
    RunSeries("Synthetic (10k,20k) (Fig 5e)", g, q, 5 * scale);
  }
  return 0;
}
