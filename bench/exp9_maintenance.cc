// Experiment E9 — the cost of keeping mined rules fresh. One
// RuleMaintainer rides an interleaved insert+delete stream, against a
// per-batch re-mine of the current graph:
//
//   maintained: per batch, a membership is re-probed only if the delta can
//               change it: a deleted edge its pattern uses lies within the
//               rule's radius of an old member, an inserted one within
//               radius of an old non-member, or the center changed q / ~q
//               pool. Every other pool membership and match set is carried
//               from the previous pass's evidence.
//   remine:     a fresh RuleMaintainer::Seed on the post-batch graph — one
//               BSP Dmine run with its evidence captured, every membership
//               probed from scratch.
//
// Both must produce byte-identical top-k supports/confidences every batch
// (the MaintainEquivalence invariant; a mismatch fails the bench), and
// every membership the maintained run carries must be one the remine run
// probes (re-probed + carried = remine's re-probed; a mismatch fails the
// bench too), so the only difference the table shows is cost: per-batch
// maintain seconds (freshness lag — how stale the served top-k is after a
// delta lands), centers re-probed vs carried, and the match-set-delta
// encoding's evidence bytes against the raw full encoding. A final
// from-scratch Dmine on the post-stream graph anchors the comparison to
// the real miner's cost and checks the maintained objective against it.
//
// With GPAR_BENCH_JSON=<path> the rows are also written as JSON (the
// BENCH_maintenance.json CI artifact); GPAR_BENCH_SMALL=1 keeps the
// CI-sized config.

#include <cmath>
#include <cstdio>
#include <random>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "graph/graph_delta.h"
#include "maintain/rule_maintainer.h"
#include "mine/dmine.h"

namespace {

bool SameTopK(const std::vector<gpar::RuleRecord>& a,
              const std::vector<gpar::RuleRecord>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].supp != b[i].supp || a[i].conf != b[i].conf) return false;
  }
  return true;
}

}  // namespace

int main() {
  using namespace gpar;
  using namespace gpar::bench;
  const uint32_t scale = Scale();
  const bool small = SmallRun();
  const size_t batches = small ? 4 : 10;
  const size_t batch_k = small ? 12 : 48;

  auto g = std::make_shared<const Graph>(MakePokecLike(scale));
  Predicate q = PickPredicate(*g, "like_music");
  std::printf("Pokec-like: %u nodes, %zu edges\n", g->num_nodes(),
              g->num_edges());

  MaintainOptions mopt;
  mopt.mine.k = 6;
  mopt.mine.d = 2;
  mopt.mine.sigma = small ? 3 : 5;
  mopt.mine.max_pattern_edges = 3;

  Timer ts;
  auto maintained = RuleMaintainer::Seed(g, q, mopt);
  double seed_s = ts.Seconds();
  if (!maintained.ok()) return 1;
  RuleMaintainer& m = **maintained;
  std::printf("seeded: %zu rules in top-k (F = %.4f) in %.4fs\n",
              m.topk().size(), m.objective(), seed_s);

  struct Row {
    size_t batch;
    size_t inserted, deleted;
    uint64_t affected, reprobed, carried;
    size_t patched, reexpanded, crossings;
    double maintain_s, remine_s;
    uint64_t bytes_full, bytes_delta;
  };
  std::vector<Row> rows;

  PrintHeader("Exp-9 incremental maintenance (identical delta stream)",
              {"batch", "ins", "del", "affected", "reprobed", "carried",
               "maint(s)", "remine(s)"});

  // CDC-style stream: every batch sprays fresh q-labeled edges at random
  // endpoints and cleans up half of the previous batch's spray — inserts
  // and deletes interleave, so sigma crossings happen in both directions.
  std::mt19937_64 rng(4242);
  std::vector<EdgeInsert> live;
  for (size_t b = 0; b < batches; ++b) {
    GraphDelta d;
    d.sequence = b + 1;
    for (size_t i = 0; i < live.size() / 2; ++i) {
      d.deletes.push_back({live[i].src, live[i].label, live[i].dst});
    }
    live.erase(live.begin(), live.begin() + live.size() / 2);
    for (size_t i = 0; i < batch_k; ++i) {
      NodeId src = static_cast<NodeId>(rng() % g->num_nodes());
      NodeId dst = static_cast<NodeId>(rng() % g->num_nodes());
      d.inserts.push_back({src, q.edge_label, dst});
    }
    live.insert(live.end(), d.inserts.begin(), d.inserts.end());

    auto ms = m.ApplyDelta(d);
    if (!ms.ok()) return 1;
    auto remine = RuleMaintainer::Seed(m.graph(), q, mopt);
    if (!remine.ok()) return 1;
    const MaintainStats& rs = (*remine)->lifetime_stats();
    if (!SameTopK(m.TopKRecords(), (*remine)->TopKRecords())) {
      std::fprintf(stderr, "batch %zu: maintained top-k diverged from the "
                   "remine baseline\n", b);
      return 1;
    }
    if (ms->centers_reprobed + ms->centers_carried != rs.centers_reprobed) {
      std::fprintf(stderr,
                   "batch %zu: maintained re-probed %llu + carried %llu != "
                   "remine re-probed %llu memberships\n",
                   b, static_cast<unsigned long long>(ms->centers_reprobed),
                   static_cast<unsigned long long>(ms->centers_carried),
                   static_cast<unsigned long long>(rs.centers_reprobed));
      return 1;
    }

    Row row;
    row.batch = b;
    row.inserted = ms->edges_inserted;
    row.deleted = ms->edges_deleted;
    row.affected = ms->affected_nodes;
    row.reprobed = ms->centers_reprobed;
    row.carried = ms->centers_carried;
    row.patched = ms->rules_patched;
    row.reexpanded = ms->rules_reexpanded;
    row.crossings = ms->sigma_crossed_up + ms->sigma_crossed_down;
    row.maintain_s = ms->seconds;
    row.remine_s = rs.seconds;
    row.bytes_full = ms->evidence_bytes_full;
    row.bytes_delta = ms->evidence_bytes_delta;
    rows.push_back(row);

    PrintCell(static_cast<uint64_t>(row.batch));
    PrintCell(static_cast<uint64_t>(row.inserted));
    PrintCell(static_cast<uint64_t>(row.deleted));
    PrintCell(row.affected);
    PrintCell(row.reprobed);
    PrintCell(row.carried);
    PrintCell(row.maintain_s);
    PrintCell(row.remine_s);
    EndRow();
  }

  // Anchor: one true from-scratch Dmine on the post-stream graph — what a
  // deployment without the maintainer pays for the same freshness.
  Timer td;
  auto mined = Dmine(*m.graph(), q, mopt.mine);
  double dmine_s = td.Seconds();
  if (!mined.ok()) return 1;
  if (std::abs(mined->objective - m.objective()) > 1e-9) {
    std::fprintf(stderr, "maintained objective %.9f != Dmine %.9f\n",
                 m.objective(), mined->objective);
    return 1;
  }

  double maintain_total = 0, remine_total = 0, max_lag = 0;
  for (const Row& row : rows) {
    maintain_total += row.maintain_s;
    remine_total += row.remine_s;
    if (row.maintain_s > max_lag) max_lag = row.maintain_s;
  }
  const Row& last = rows.back();
  double mean_lag = maintain_total / static_cast<double>(rows.size());
  double speedup = maintain_total > 0 ? remine_total / maintain_total : 0;
  double bytes_saved =
      last.bytes_full > 0
          ? 1.0 - static_cast<double>(last.bytes_delta) /
                      static_cast<double>(last.bytes_full)
          : 0;

  std::printf(
      "\ntotals: maintain %.4fs vs remine-per-batch %.4fs (%.1fx), one\n"
      "from-scratch Dmine on the final graph %.4fs; freshness lag mean\n"
      "%.4fs / max %.4fs; evidence %llu bytes delta-encoded vs %llu full\n"
      "(%.1f%% saved). Top-k supports/confidences stayed identical across\n"
      "both paths every batch, and the final objective matches Dmine.\n",
      maintain_total, remine_total, speedup, dmine_s, mean_lag, max_lag,
      static_cast<unsigned long long>(last.bytes_delta),
      static_cast<unsigned long long>(last.bytes_full), 100.0 * bytes_saved);

  if (const char* json = JsonPath()) {
    std::FILE* f = std::fopen(json, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"exp9_maintenance\",\n");
    std::fprintf(f, "  \"scale\": %u,\n  \"small\": %s,\n", scale,
                 small ? "true" : "false");
    std::fprintf(f, "  \"seed_s\": %.6f,\n  \"batches\": [\n", seed_s);
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::fprintf(
          f,
          "    {\"batch\": %zu, \"inserted\": %zu, \"deleted\": %zu, "
          "\"affected_nodes\": %llu, \"centers_reprobed\": %llu, "
          "\"centers_carried\": %llu, \"rules_patched\": %zu, "
          "\"rules_reexpanded\": %zu, \"sigma_crossings\": %zu, "
          "\"maintain_s\": %.6f, \"remine_s\": %.6f}%s\n",
          row.batch, row.inserted, row.deleted,
          static_cast<unsigned long long>(row.affected),
          static_cast<unsigned long long>(row.reprobed),
          static_cast<unsigned long long>(row.carried), row.patched,
          row.reexpanded, row.crossings, row.maintain_s, row.remine_s,
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"totals\": {\"maintain_s\": %.6f, \"remine_s\": %.6f, "
                 "\"speedup\": %.2f, \"dmine_final_s\": %.6f},\n",
                 maintain_total, remine_total, speedup, dmine_s);
    std::fprintf(f,
                 "  \"freshness\": {\"mean_lag_s\": %.6f, "
                 "\"max_lag_s\": %.6f},\n",
                 mean_lag, max_lag);
    std::fprintf(f,
                 "  \"evidence\": {\"bytes_full\": %llu, "
                 "\"bytes_delta\": %llu, \"saved_frac\": %.4f}\n}\n",
                 static_cast<unsigned long long>(last.bytes_full),
                 static_cast<unsigned long long>(last.bytes_delta),
                 bytes_saved);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", json);
  }
  return 0;
}
