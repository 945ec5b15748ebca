// Experiment E8 — the price of durability and the cost of losing a shard.
// Three measurements around the fault-tolerance layer:
//
//   1. Journal overhead: a delta stream applied through RuleServer with
//      and without an attached journal (and with fsync-per-append), so
//      the write-ahead tax on ApplyDelta is a tracked number.
//   2. Replay throughput: RuleServer::Recover over the journal the stream
//      just wrote — frames/s and the end-to-end rebuild time, checked
//      result-identical to the maintained session.
//   3. Degraded-mode serving: warm all-centers QPS of a k-shard
//      ShardedRuleServer, healthy vs one shard down (failpoint-injected),
//      plus the surviving-entity fraction of each degraded answer.
//
// With GPAR_BENCH_JSON=<path> the rows are also written as JSON (the
// BENCH_recovery.json CI artifact); GPAR_BENCH_SMALL=1 keeps the CI-sized
// config.

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/failpoint.h"
#include "common/timer.h"
#include "graph/delta_journal.h"
#include "graph/graph_delta.h"
#include "graph/graph_snapshot.h"
#include "rule/rule_snapshot.h"
#include "serve/rule_server.h"
#include "serve/sharded_rule_server.h"

namespace {

// A batch of random edges between existing nodes; reusing q's edge label
// for half of them keeps the stream adversarial for the caches.
gpar::GraphDelta MakeBatch(const gpar::Graph& g, gpar::LabelId label,
                           std::mt19937_64& rng, size_t k) {
  gpar::GraphDelta d;
  for (size_t i = 0; i < k; ++i) {
    gpar::NodeId src = static_cast<gpar::NodeId>(rng() % g.num_nodes());
    gpar::NodeId dst = static_cast<gpar::NodeId>(rng() % g.num_nodes());
    d.inserts.push_back({src, label, dst});
  }
  return d;
}

}  // namespace

int main() {
  using namespace gpar;
  using namespace gpar::bench;
  const uint32_t scale = Scale();
  const bool small = SmallRun();
  const uint32_t workers = 4;
  const size_t batches = small ? 6 : 16;
  const size_t batch_k = small ? 16 : 64;
  const size_t qps_rounds = small ? 4 : 12;
  const std::string dir = "/tmp/gpar_exp8";

  Graph g = MakePokecLike(scale);
  Predicate q = PickPredicate(g, "like_music");
  std::printf("Pokec-like: %u nodes, %zu edges\n", g.num_nodes(),
              g.num_edges());
  auto sigma = MakeSigma(g, q, 6, 4, 5, 2);
  if (sigma.size() < 2) return 1;
  std::vector<RuleRecord> records;
  for (const Gpar& r : sigma) records.push_back({r, 0, 0.0});

  RuleServerOptions sopt;
  sopt.num_workers = workers;

  // ---- 1. journal overhead: the same stream, three durability modes ----
  struct Mode {
    const char* name;
    bool journaled;
    bool fsync;
    double apply_s = 0;
    uint64_t journal_bytes = 0;
  };
  std::vector<Mode> modes = {{"off", false, false},
                             {"journal", true, false},
                             {"fsync", true, true}};
  for (Mode& mode : modes) {
    auto server = RuleServer::Create(g, records, sopt);
    if (!server.ok()) return 1;
    const std::string wal = dir + "_" + mode.name + ".wal";
    std::remove(wal.c_str());
    if (mode.journaled) {
      DeltaJournalOptions jopt;
      jopt.fsync_on_append = mode.fsync;
      if (!(*server)->AttachJournal(wal, jopt).ok()) return 1;
    }
    std::mt19937_64 rng(99);  // identical stream for every mode
    Timer t;
    for (size_t b = 0; b < batches; ++b) {
      auto ds = (*server)->ApplyDelta(MakeBatch(g, q.edge_label, rng, batch_k));
      if (!ds.ok()) return 1;
      mode.journal_bytes += ds->journal_bytes;
    }
    mode.apply_s = t.Seconds();
  }

  PrintHeader("Exp-8a journal overhead (identical delta stream)",
              {"mode", "apply(s)", "bytes"});
  for (const Mode& m : modes) {
    PrintCell(std::string(m.name));
    PrintCell(m.apply_s);
    PrintCell(m.journal_bytes);
    EndRow();
  }

  // ---- 2. replay throughput: recover the journaled stream ----
  const std::string gpath = dir + ".snap";
  const std::string rpath = dir + ".rules";
  const std::string wal = dir + "_journal.wal";
  if (!WriteGraphSnapshotFile(g, gpath).ok()) return 1;
  if (!WriteRuleSetSnapshotFile(records, g.labels(), rpath).ok()) return 1;
  JournalReplayStats replay;
  Timer tr;
  auto recovered = RuleServer::Recover(gpath, rpath, wal, sopt, {}, &replay);
  double recover_s = tr.Seconds();
  if (!recovered.ok()) return 1;
  double frames_per_s =
      recover_s > 0 ? static_cast<double>(replay.frames) / recover_s : 0;
  std::printf("Exp-8b recovery: %zu frames (%llu bytes) in %.4fs = %.1f "
              "frames/s\n",
              replay.frames,
              static_cast<unsigned long long>(replay.valid_bytes), recover_s,
              frames_per_s);

  // ---- 3. degraded-mode QPS: k shards, healthy vs one down ----
  ShardedRuleServerOptions shopt;
  shopt.num_shards = 4;
  shopt.shard_options.num_workers = 2;
  shopt.max_shard_retries = 0;  // a failure degrades immediately
  auto sharded = ShardedRuleServer::Create(g, records, shopt);
  if (!sharded.ok()) return 1;
  ShardedRuleServer& sh = **sharded;
  SessionRequest all;
  all.all_centers = true;
  all.eta = 1.0;
  auto warmup = sh.Query(all);  // warm every shard's cache
  if (!warmup.ok()) return 1;
  const double healthy_entities =
      static_cast<double>(warmup->entities.size());

  Timer th;
  for (size_t i = 0; i < qps_rounds; ++i) {
    if (!sh.Query(all).ok()) return 1;
  }
  double healthy_s = th.Seconds();

  // One shard down for the whole degraded sweep: the first query's failure
  // is permanent (fires = 0), so every round answers from k-1 shards.
  FailpointSpec spec;
  spec.fires = 0;
  spec.probability = 1.0 / static_cast<double>(shopt.num_shards);
  spec.seed = 7;  // deterministic victim selection per round
  FailpointRegistry::Instance().Arm("shard.query", spec);
  double degraded_entities = 0;
  size_t degraded_hits = 0;
  Timer td;
  for (size_t i = 0; i < qps_rounds; ++i) {
    auto r = sh.Query(all);
    if (!r.ok()) return 1;
    if (r->degraded) {
      ++degraded_hits;
      degraded_entities += static_cast<double>(r->entities.size());
    }
  }
  double degraded_s = td.Seconds();
  FailpointRegistry::Instance().DisarmAll();

  double healthy_qps =
      healthy_s > 0 ? static_cast<double>(qps_rounds) / healthy_s : 0;
  double degraded_qps =
      degraded_s > 0 ? static_cast<double>(qps_rounds) / degraded_s : 0;
  double survive_frac =
      degraded_hits > 0 && healthy_entities > 0
          ? degraded_entities /
                (static_cast<double>(degraded_hits) * healthy_entities)
          : 1.0;

  PrintHeader("Exp-8c degraded serving (k=4, failpoint-injected loss)",
              {"mode", "qps", "entity_frac"});
  PrintCell(std::string("healthy"));
  PrintCell(healthy_qps);
  PrintCell(1.0);
  EndRow();
  PrintCell(std::string("degraded"));
  PrintCell(degraded_qps);
  PrintCell(survive_frac);
  EndRow();

  std::printf(
      "8a: one delta stream through ApplyDelta, journal off / on / fsync —\n"
      "the write-ahead tax. 8b: RuleServer::Recover replaying that journal.\n"
      "8c: all-centers QPS with shard.query failing probabilistically —\n"
      "degraded answers keep the surviving shards' entities (entity_frac).\n");

  if (const char* json = JsonPath()) {
    std::FILE* f = std::fopen(json, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"exp8_recovery\",\n");
    std::fprintf(f, "  \"scale\": %u,\n  \"small\": %s,\n", scale,
                 small ? "true" : "false");
    std::fprintf(f, "  \"journal_overhead\": [\n");
    for (size_t i = 0; i < modes.size(); ++i) {
      const Mode& m = modes[i];
      std::fprintf(f,
                   "    {\"mode\": \"%s\", \"apply_s\": %.6f, "
                   "\"journal_bytes\": %llu}%s\n",
                   m.name, m.apply_s,
                   static_cast<unsigned long long>(m.journal_bytes),
                   i + 1 < modes.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"recovery\": {\"frames\": %zu, \"valid_bytes\": %llu, "
                 "\"recover_s\": %.6f, \"frames_per_s\": %.1f},\n",
                 replay.frames,
                 static_cast<unsigned long long>(replay.valid_bytes),
                 recover_s, frames_per_s);
    std::fprintf(f,
                 "  \"degraded\": {\"healthy_qps\": %.2f, "
                 "\"degraded_qps\": %.2f, \"degraded_rounds\": %zu, "
                 "\"entity_frac\": %.4f}\n}\n",
                 healthy_qps, degraded_qps, degraded_hits, survive_frac);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", json);
  }
  return 0;
}
