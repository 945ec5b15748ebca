// Experiment E4 — the partition-skew check from the Section 6 setup: the
// paper reports a max-min gap of <= 14.4% (Pokec) / 8.8% (Google+) across
// fragments for DMine, and <= 6.0% / 5.2% for Match, showing partitioning
// skew is small. We report fragment-size skew and per-worker busy-time
// spread for the EIP workload, plus the partition build time (center
// ownership only; the skew derives each fragment's node set separately).
//
// With GPAR_BENCH_JSON=<path> the rows are also written as JSON (the
// BENCH_partition.json CI artifact tracking skew and build time
// PR-over-PR); GPAR_BENCH_SMALL=1 keeps the CI-sized config.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "graph/partition.h"
#include "identify/eip.h"

int main() {
  using namespace gpar;
  using namespace gpar::bench;
  const uint32_t scale = Scale();
  const bool small = SmallRun();

  struct Row {
    std::string dataset;
    uint32_t n;
    double size_skew, time_gap;
    double build_s;
  };
  std::vector<Row> rows;

  PrintHeader("Exp-4 partition skew",
              {"dataset", "n", "size_skew", "time_gap", "build(s)"});
  struct Dataset {
    std::string name;
    Graph graph;
    Predicate q;
  };
  std::vector<Dataset> datasets;
  {
    Graph g = MakePokecLike(scale);
    Predicate q = PickPredicate(g, "like_music");
    datasets.push_back({"Pokec-like", std::move(g), q});
  }
  {
    Graph g = MakeGPlusLike(scale);
    Predicate q = PickPredicate(g, "majored_in");
    datasets.push_back({"GPlus-like", std::move(g), q});
  }

  for (const Dataset& ds : datasets) {
    for (uint32_t n : {4u, 8u, 16u}) {
      std::vector<NodeId> centers;
      {
        auto span = ds.graph.nodes_with_label(ds.q.x_label);
        centers.assign(span.begin(), span.end());
      }
      PartitionOptions popt;
      popt.num_fragments = n;
      popt.d = 2;

      // CI sizes finish in ms, so report the min over a few repetitions.
      const int reps = small ? 3 : 2;
      double build = 0;
      Partitioning parts;  // last build, reused for the skew
      for (int rep = 0; rep < reps; ++rep) {
        Timer t;
        auto built = PartitionGraph(ds.graph, centers, popt);
        double s = t.Seconds();
        if (!built.ok()) return 1;
        if (rep == 0 || s < build) build = s;
        parts = std::move(*built);
      }
      const double skew = FragmentSkew(ds.graph, parts, popt.d);

      auto sigma = MakeSigma(ds.graph, ds.q, 12, 4, 6, 2);
      EipOptions opt;
      opt.num_workers = n;
      opt.eta = 1.5;
      auto r = IdentifyEntities(ds.graph, sigma, opt);
      double gap = 0;
      if (r.ok() && !r->times.worker_total_seconds.empty()) {
        double mx = *std::max_element(r->times.worker_total_seconds.begin(),
                                      r->times.worker_total_seconds.end());
        double mn = *std::min_element(r->times.worker_total_seconds.begin(),
                                      r->times.worker_total_seconds.end());
        gap = mx > 0 ? (mx - mn) / mx : 0;
      }
      rows.push_back({ds.name, n, skew, gap, build});
      PrintCell(ds.name);
      PrintCell(static_cast<uint64_t>(n));
      PrintCell(skew);
      PrintCell(gap);
      PrintCell(build);
      EndRow();
    }
  }
  std::printf(
      "size_skew = (max-min)/max fragment |G|; time_gap = (max-min)/max\n"
      "per-worker busy seconds during Match. The paper's gaps: <= 14.4%%.\n"
      "build = PartitionGraph seconds: center ownership only; fragment\n"
      "node sets are derived for the skew and not timed.\n");

  if (const char* json = JsonPath()) {
    std::FILE* f = std::fopen(json, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"exp4_partition_skew\",\n");
    std::fprintf(f, "  \"scale\": %u,\n  \"small\": %s,\n  \"rows\": [\n",
                 scale, small ? "true" : "false");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          f,
          "    {\"dataset\": \"%s\", \"n\": %u, \"size_skew\": %.6f, "
          "\"time_gap\": %.6f, \"build_s\": %.6f}%s\n",
          r.dataset.c_str(), r.n, r.size_skew, r.time_gap, r.build_s,
          i + 1 < rows.size() ? "," : "");
    }
    double tot_build = 0;
    for (const Row& r : rows) tot_build += r.build_s;
    // Per-row times at CI sizes are noisy; trajectory comparisons should
    // use the sweep totals.
    std::fprintf(f, "  ],\n  \"totals\": {\"build_s\": %.6f}\n}\n",
                 tot_build);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s: %zu rows\n", json, rows.size());
  }
  return 0;
}
