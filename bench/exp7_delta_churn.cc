// Experiment E7 — delta maintenance under churn: a CDC-style stream where
// fake-account edges appear in bursts and are cleaned up a round later
// (the paper's fraud scenario, Section 1). Each round ships one insert
// batch and one delete batch through RuleServer::ApplyDelta and re-answers
// the full identification from the maintained session; the baseline pays a
// from-scratch RuleServer::Create + cold identification on the same final
// edge list. The table tracks both costs plus the invalidation fraction —
// the share of (rule, center) cache entries each batch actually dropped,
// the locality argument for maintaining instead of rebuilding.
//
// With GPAR_BENCH_JSON=<path> the rows are also written as JSON (the
// BENCH_delta_churn.json CI artifact); GPAR_BENCH_SMALL=1 keeps the
// CI-sized config.

#include <cstdio>
#include <random>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "graph/graph_delta.h"
#include "serve/rule_server.h"

int main() {
  using namespace gpar;
  using namespace gpar::bench;
  const uint32_t scale = Scale();
  const bool small = SmallRun();
  const uint32_t workers = 4;
  const size_t rounds = small ? 4 : 8;
  const size_t churn_k = small ? 8 : 32;

  Graph g = MakePokecLike(scale);
  Predicate q = PickPredicate(g, "like_music");
  // Fake-account activity gets its own edge label, interned up front so
  // both servers can resolve it; the churn batches also reuse q's edge
  // label so some rounds genuinely move answers, not just cache bits.
  LabelId fake = g.mutable_labels()->Intern("fake_follow");
  std::printf("Pokec-like: %u nodes, %zu edges\n", g.num_nodes(),
              g.num_edges());

  auto sigma = MakeSigma(g, q, 6, 4, 5, 2);
  if (sigma.size() < 2) return 1;
  std::vector<RuleRecord> records;
  for (const Gpar& r : sigma) records.push_back({r, 0, 0.0});

  RuleServerOptions sopt;
  sopt.num_workers = workers;
  auto server = RuleServer::Create(g, records, sopt);
  if (!server.ok()) return 1;
  RuleServer& s = **server;
  SessionRequest all;
  all.all_centers = true;
  all.eta = 1.0;
  if (!s.Query(all).ok()) return 1;  // warm the maintained session

  const double cache_slots =
      static_cast<double>(records.size()) * s.candidates().size();

  struct Row {
    size_t round;
    size_t inserted, deleted, missing;
    double insert_s, delete_s, requery_s, rebuild_s;
    double inval_frac_insert, inval_frac_delete;
  };
  std::vector<Row> rows;

  PrintHeader("Exp-7 delta churn (maintained vs fresh rebuild)",
              {"round", "ins", "del", "ins(s)", "del(s)", "requery(s)",
               "rebuild(s)", "if_ins", "if_del"});

  std::mt19937_64 rng(1234);
  Graph current = g;  // the reference edge list, patched outside the server
  std::vector<EdgeInsert> live;  // last round's fakes, cleaned up next round
  for (size_t round = 0; round < rounds; ++round) {
    // The cleanup batch: delete the previous burst.
    GraphDelta cleanup;
    cleanup.sequence = 2 * round;
    for (const EdgeInsert& e : live) {
      cleanup.deletes.push_back({e.src, e.label, e.dst});
    }
    // The new burst: a few fake accounts spraying edges at random targets.
    GraphDelta burst;
    burst.sequence = 2 * round + 1;
    for (size_t i = 0; i < churn_k; ++i) {
      NodeId src = static_cast<NodeId>(rng() % g.num_nodes());
      NodeId dst = static_cast<NodeId>(rng() % g.num_nodes());
      burst.inserts.push_back({src, i % 2 == 0 ? fake : q.edge_label, dst});
    }
    live = burst.inserts;

    double delete_s = 0;
    double inval_frac_delete = 0;
    size_t deleted = 0, missing = 0;
    if (!cleanup.deletes.empty()) {
      auto ref = PatchGraph(current, cleanup);
      if (!ref.ok()) return 1;
      current = std::move(ref)->graph;
      auto ds = s.ApplyDelta(cleanup);
      if (!ds.ok()) return 1;
      delete_s = ds->seconds;
      deleted = ds->edges_deleted;
      missing = ds->deletes_missing;
      inval_frac_delete =
          static_cast<double>(ds->memberships_invalidated) / cache_slots;
    }

    auto ref = PatchGraph(current, burst);
    if (!ref.ok()) return 1;
    current = std::move(ref)->graph;
    auto ds = s.ApplyDelta(burst);
    if (!ds.ok()) return 1;
    double insert_s = ds->seconds;
    double inval_frac_insert =
        static_cast<double>(ds->memberships_invalidated) / cache_slots;

    // Maintained path: re-answer the full identification from the session.
    Timer tq;
    auto maintained = s.Query(all);
    double requery_s = tq.Seconds();
    if (!maintained.ok()) return 1;

    // Baseline: rebuild a server from the final edge list and answer cold.
    Timer tr;
    auto fresh = RuleServer::Create(current, records, sopt);
    if (!fresh.ok()) return 1;
    auto cold = (*fresh)->Query(all);
    double rebuild_s = tr.Seconds();
    if (!cold.ok()) return 1;
    if (cold->entities != maintained->entities) {
      std::fprintf(stderr, "maintained/rebuild mismatch at round %zu\n",
                   round);
      return 1;
    }

    rows.push_back({round, ds->edges_inserted, deleted, missing, insert_s,
                    delete_s, requery_s, rebuild_s, inval_frac_insert,
                    inval_frac_delete});
    PrintCell(static_cast<uint64_t>(round));
    PrintCell(static_cast<uint64_t>(ds->edges_inserted));
    PrintCell(static_cast<uint64_t>(deleted));
    PrintCell(insert_s);
    PrintCell(delete_s);
    PrintCell(requery_s);
    PrintCell(rebuild_s);
    PrintCell(inval_frac_insert);
    PrintCell(inval_frac_delete);
    EndRow();
  }

  std::printf(
      "Each round: delete last round's %zu fake edges, insert a fresh\n"
      "burst, re-answer everything. ins/del(s) = ApplyDelta cost per batch;\n"
      "requery(s) = maintained full identification (invalidated centers\n"
      "only); rebuild(s) = fresh RuleServer::Create + cold identification\n"
      "on the same edge list. if_* = fraction of (rule, center) cache\n"
      "entries invalidated — locality means far below 1.\n",
      churn_k);

  if (const char* json = JsonPath()) {
    std::FILE* f = std::fopen(json, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"exp7_delta_churn\",\n");
    std::fprintf(f, "  \"scale\": %u,\n  \"small\": %s,\n  \"rows\": [\n",
                 scale, small ? "true" : "false");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          f,
          "    {\"round\": %zu, \"inserted\": %zu, \"deleted\": %zu, "
          "\"missing\": %zu, \"insert_s\": %.6f, \"delete_s\": %.6f, "
          "\"requery_s\": %.6f, \"rebuild_s\": %.6f, "
          "\"inval_frac_insert\": %.6f, \"inval_frac_delete\": %.6f}%s\n",
          r.round, r.inserted, r.deleted, r.missing, r.insert_s, r.delete_s,
          r.requery_s, r.rebuild_s, r.inval_frac_insert, r.inval_frac_delete,
          i + 1 < rows.size() ? "," : "");
    }
    double maintained_s = 0, rebuild_s = 0, frac = 0;
    for (const Row& r : rows) {
      maintained_s += r.insert_s + r.delete_s + r.requery_s;
      rebuild_s += r.rebuild_s;
      frac += r.inval_frac_insert + r.inval_frac_delete;
    }
    // Per-row numbers at CI sizes are noisy; trajectory comparisons should
    // use the sweep totals.
    std::fprintf(f,
                 "  ],\n  \"totals\": {\"maintained_s\": %.6f, "
                 "\"rebuild_s\": %.6f, \"inval_frac_mean\": %.6f}\n}\n",
                 maintained_s, rebuild_s,
                 frac / (2.0 * static_cast<double>(rows.size())));
    std::fclose(f);
    std::fprintf(stderr, "wrote %s: %zu rows\n", json, rows.size());
  }
  return 0;
}
