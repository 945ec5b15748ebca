// Experiment E1f — Figure 5(f): DMine vs DMineno on synthetic graphs of
// growing size (n = 16, d = 2, fixed σ). Each row also reports DMine's
// worker probes and parent-skipped centers, its coordinator share
// (coordinator seconds / simulated parallel seconds), the coordinator's
// candidate-production seconds, the wall seconds of the partition step
// and the candidates the workers generated.
//
// Paper shape: both grow with |G|; DMine outperforms DMineno (1.76x at the
// largest size).
//
// With GPAR_BENCH_JSON=<path> the rows are also written as JSON (the
// BENCH_dmine.json CI artifact tracking DMine-level speedups PR-over-PR);
// GPAR_BENCH_SMALL=1 shrinks the sweep to CI size.

#include <cstdio>

#include "bench_common.h"
#include "mine/dmine.h"

int main() {
  using namespace gpar;
  using namespace gpar::bench;
  const uint32_t scale = Scale();
  const bool small = SmallRun();
  const uint32_t steps = small ? 3 : 5;
  const uint32_t v_step = small ? 4000 : 10000;

  struct Row {
    uint64_t v, e;
    double dmine_s, dmineno_s;
    double coord_share, coord_merge, partition;
    uint64_t centers_skipped, exists_calls;
    uint64_t proposals;
  };
  std::vector<Row> rows;

  PrintHeader("Fig 5(f) DMine varying |G| (synthetic, n=16)",
              {"V", "E", "DMine(s)", "DMineno(s)", "ratio",
               "coord%", "props"});
  for (uint32_t step = 1; step <= steps; ++step) {
    uint32_t v = v_step * step * scale;
    uint64_t e = 2ull * v_step * step * scale;
    Graph g = MakeSynthetic(v, e, 100, 42 + step);
    auto freq = FrequentEdgePatterns(g, 1);
    Predicate q{freq[0].src_label, freq[0].edge_label, freq[0].dst_label};

    DmineOptions opt;
    opt.num_workers = 16;
    opt.k = 10;
    opt.d = 2;
    opt.sigma = 2 * scale;
    opt.max_pattern_edges = small ? 4 : 3;
    opt.seed_edge_limit = 14;
    opt.max_candidates_per_round = 150;

    // CI-sized configs finish in tens of ms, where scheduler noise rivals
    // the measured effect: report the min over a few repetitions. The
    // coordinator share and the partition time come from the run that
    // produced the min time.
    const int reps = small ? 3 : 1;
    double tf = 0, ts = 0;
    DmineStats fast_stats;
    double coord_share = 0, coord_merge = 0, partition = 0;
    for (int rep = 0; rep < reps; ++rep) {
      auto fast = Dmine(g, q, opt);
      auto slow = Dmine(g, q, DmineNoOptions(opt));
      if (!fast.ok() || !slow.ok()) return 1;
      double f = fast->times.SimulatedParallelSeconds();
      double s = slow->times.SimulatedParallelSeconds();
      if (rep == 0 || f < tf) {
        tf = f;
        coord_share = f > 0 ? fast->times.coordinator_seconds / f : 0;
        coord_merge = fast->stats.coordinator_merge_seconds;
        partition = fast->stats.partition_seconds;
      }
      if (rep == 0 || s < ts) ts = s;
      fast_stats = fast->stats;
    }
    uint64_t proposals = 0;
    for (uint64_t p : fast_stats.proposals_per_worker) proposals += p;
    rows.push_back({v, e, tf, ts, coord_share, coord_merge, partition,
                    fast_stats.centers_skipped_by_parent,
                    fast_stats.exists_calls, proposals});
    PrintCell(static_cast<uint64_t>(v));
    PrintCell(e);
    PrintCell(tf);
    PrintCell(ts);
    PrintCell(tf > 0 ? ts / tf : 0.0);
    PrintCell(coord_share);
    PrintCell(proposals);
    EndRow();
  }

  if (const char* json = JsonPath()) {
    std::FILE* f = std::fopen(json, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json);
      return 1;
    }
    // dmine_s = this build; dmineno_s = the same build with the paper's
    // three optimizations off, the in-run baseline. The *_workergen column
    // names are kept so earlier BENCH_dmine.json artifacts stay comparable.
    std::fprintf(f, "{\n  \"bench\": \"exp1_dmine_vary_size\",\n");
    std::fprintf(f, "  \"scale\": %u,\n  \"small\": %s,\n  \"rows\": [\n",
                 scale, small ? "true" : "false");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          f,
          "    {\"v\": %llu, \"e\": %llu, \"dmine_s\": %.6f, "
          "\"dmineno_s\": %.6f, "
          "\"coord_share_workergen\": %.6f, "
          "\"coord_merge_s_workergen\": %.6f, "
          "\"partition_s\": %.6f, "
          "\"proposals\": %llu, "
          "\"centers_skipped_by_parent\": %llu, "
          "\"exists_calls_pruned\": %llu}%s\n",
          static_cast<unsigned long long>(r.v),
          static_cast<unsigned long long>(r.e), r.dmine_s, r.dmineno_s,
          r.coord_share, r.coord_merge, r.partition,
          static_cast<unsigned long long>(r.proposals),
          static_cast<unsigned long long>(r.centers_skipped),
          static_cast<unsigned long long>(r.exists_calls),
          i + 1 < rows.size() ? "," : "");
    }
    double tot_dmine = 0, tot_dmineno = 0;
    for (const Row& r : rows) {
      tot_dmine += r.dmine_s;
      tot_dmineno += r.dmineno_s;
    }
    // Per-row times at CI sizes are noisy (tens of ms); trajectory
    // comparisons should use the sweep totals. dmineno_over_dmine is the
    // paper's Exp-1 ratio (1.76x at the largest size).
    std::fprintf(f,
                 "  ],\n  \"totals\": {\"dmine_s\": %.6f, \"dmineno_s\": "
                 "%.6f, \"dmineno_over_dmine\": %.6f}\n}\n",
                 tot_dmine, tot_dmineno,
                 tot_dmine > 0 ? tot_dmineno / tot_dmine : 0.0);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s: %zu rows\n", json, rows.size());
  }
  return 0;
}
