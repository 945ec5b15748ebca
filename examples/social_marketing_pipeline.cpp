// End-to-end social-media-marketing pipeline, the paper's headline use
// case, split the way Section 5 frames it — offline mining, online
// serving:
//   (1) mine diversified GPARs for an event q(x, y) with DMine;
//   (2) persist the graph and the mined rules as binary snapshots;
//   (3) load them into a long-lived serving session (`ServeSession`) and
//       answer identify requests as they "arrive" — including after live
//       edge updates — then A/B the same snapshot pair through a 2-shard
//       `ShardedRuleServer` deployment.
//
//   ./build/examples/social_marketing_pipeline
//
// Runs on a generated Pokec-like social network (users, follows, music /
// book / hobby preferences with planted community structure).

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "graph/generator.h"
#include "graph/graph_delta.h"
#include "graph/graph_snapshot.h"
#include "graph/stats.h"
#include "mine/dmine.h"
#include "rule/rule_snapshot.h"
#include "serve/rule_server.h"
#include "serve/sharded_rule_server.h"

int main() {
  using namespace gpar;

  // --- Data: a Pokec-like social network. ----------------------------------
  Graph g = MakePokecLike(/*scale=*/1, /*seed=*/2024);
  std::printf("social graph: %u nodes, %zu edges\n", g.num_nodes(),
              g.num_edges());

  // The event to market: the most popular like_music kind.
  LabelId user = g.labels().Lookup("user");
  LabelId like_music = g.labels().Lookup("like_music");
  Predicate q{user, like_music, kNoLabel};
  for (const EdgePatternStat& s : FrequentEdgePatterns(g)) {
    if (s.edge_label == like_music) {
      q.y_label = s.dst_label;
      break;
    }
  }
  std::printf("target event q(x, y) = like_music(user, %s)\n\n",
              g.labels().Name(q.y_label).c_str());

  // --- Stage 1 (offline): discover diversified GPARs (DMP). ----------------
  DmineOptions mine_opt;
  mine_opt.num_workers = 4;
  mine_opt.k = 4;
  mine_opt.d = 2;
  mine_opt.sigma = 8;
  mine_opt.lambda = 0.5;
  mine_opt.max_pattern_edges = 3;
  mine_opt.seed_edge_limit = 12;
  auto mined = Dmine(g, q, mine_opt);
  if (!mined.ok()) {
    std::fprintf(stderr, "DMine failed: %s\n",
                 mined.status().ToString().c_str());
    return 1;
  }
  std::printf("DMine: %zu rules accepted, top-%u diversified set "
              "(F = %.4f), %.2fs simulated parallel time\n",
              mined->stats.accepted, mine_opt.k, mined->objective,
              mined->times.SimulatedParallelSeconds());
  std::vector<RuleRecord> records;
  for (const auto& r : mined->topk) {
    std::printf("--- conf %.3f, supp %llu ---\n%s", r->conf,
                static_cast<unsigned long long>(r->supp),
                r->rule.ToString(g.labels()).c_str());
    records.push_back({r->rule, r->supp, r->conf});
  }
  if (records.empty()) {
    std::printf("no rules found — raise scale or lower sigma\n");
    return 0;
  }

  // --- Stage 2: persist the snapshot pair. ---------------------------------
  const std::string graph_snap = "social_graph.snap";
  const std::string rules_snap = "social_rules.snap";
  if (!WriteGraphSnapshotFile(g, graph_snap).ok() ||
      !WriteRuleSetSnapshotFile(records, g.labels(), rules_snap).ok()) {
    std::fprintf(stderr, "snapshot write failed\n");
    return 1;
  }
  std::printf("\nwrote %s + %s (binary, checksummed)\n", graph_snap.c_str(),
              rules_snap.c_str());

  // --- Stage 3 (online): load the pair into a serving session. -------------
  RuleServerOptions serve_opt;
  serve_opt.num_workers = 4;
  auto server = RuleServer::Load(graph_snap, rules_snap, serve_opt);
  if (!server.ok()) {
    std::fprintf(stderr, "RuleServer load failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  RuleServer& s = **server;  // speaks the ServeSession interface
  std::printf("RuleServer up: %zu rules, %zu candidate users, "
              "%zu plans precomputed\n",
              s.rules().size(), s.candidates().size(), s.plans_prepared());

  // A full identification — the campaign audience at eta = 1.0.
  SessionRequest all_req;
  all_req.all_centers = true;
  all_req.eta = 1.0;
  auto audience = s.Query(all_req);
  if (!audience.ok()) {
    std::fprintf(stderr, "full identification failed: %s\n",
                 audience.status().ToString().c_str());
    return 1;
  }
  std::printf("\nfull identification: %zu potential customers at eta=1.0 "
              "(%.1f ms cold)\n",
              audience->entities.size(),
              audience->stats.latency_seconds * 1e3);

  // Online requests: batches of users "arriving" at the service.
  std::mt19937_64 rng(7);
  for (int batch = 0; batch < 3; ++batch) {
    SessionRequest req;
    for (int i = 0; i < 32; ++i) {
      req.centers.push_back(
          s.candidates()[rng() % s.candidates().size()]);
    }
    auto reply = s.Query(req);
    if (!reply.ok()) return 1;
    std::printf("request %d: %zu/%zu users matched >=1 rule "
                "[%llu hits, %llu probes, %.2f ms]\n",
                batch, reply->entities.size(), req.centers.size(),
                static_cast<unsigned long long>(reply->stats.cache_hits),
                static_cast<unsigned long long>(reply->stats.cache_probes),
                reply->stats.latency_seconds * 1e3);
  }

  // The graph is alive: new follow edges arrive as one typed, serializable
  // GraphDelta batch; only nearby cached answers are invalidated.
  const NodeId num_nodes = s.graph_snapshot()->num_nodes();
  GraphDelta delta;
  delta.inserts.reserve(5);
  LabelId follows = s.InternLabel("follows");
  for (int i = 0; i < 5; ++i) {
    delta.inserts.push_back({static_cast<NodeId>(rng() % num_nodes), follows,
                             static_cast<NodeId>(rng() % num_nodes)});
  }
  auto ds = s.ApplyDelta(delta);
  if (!ds.ok()) return 1;
  std::printf("\ndelta: +%zu follow edges -> %llu memberships invalidated "
              "(%.2f ms)\n",
              ds->edges_inserted,
              static_cast<unsigned long long>(ds->memberships_invalidated),
              ds->seconds * 1e3);

  auto refreshed = s.Query(all_req);
  if (!refreshed.ok()) return 1;
  std::printf("re-identification after delta: %zu customers "
              "(%.1f ms, %llu re-probes — the locality win)\n",
              refreshed->entities.size(),
              refreshed->stats.latency_seconds * 1e3,
              static_cast<unsigned long long>(refreshed->stats.cache_probes));

  // How many are *new* prospects (no like_music edge to the target yet)?
  std::shared_ptr<const Graph> live = s.graph_snapshot();
  size_t fresh = 0;
  for (NodeId v : refreshed->entities) {
    bool has = false;
    for (const AdjEntry& e : live->out_edges_labeled(v, q.edge_label)) {
      if (live->node_label(e.other) == q.y_label) {
        has = true;
        break;
      }
    }
    if (!has) ++fresh;
  }
  std::printf("of which %zu have not liked the target genre yet — the "
              "campaign audience.\n", fresh);

  // Churn cleanup: three of those follow edges turn out to be fake-account
  // activity and are deleted again — the non-monotone direction. Deletes
  // ride the same GraphDelta batch (a v2 wire frame) and are tolerant: a
  // delete naming an edge the graph lost already is counted, not fatal.
  GraphDelta cleanup;
  cleanup.sequence = delta.sequence + 1;
  for (size_t i = 0; i < 3 && i < delta.inserts.size(); ++i) {
    const EdgeInsert& e = delta.inserts[i];
    cleanup.deletes.push_back({e.src, e.label, e.dst});
  }
  auto cds = s.ApplyDelta(cleanup);
  if (!cds.ok()) return 1;
  std::printf("cleanup: -%zu fake follow edges (%zu missing) -> %llu "
              "memberships invalidated (%.2f ms)\n",
              cds->edges_deleted, cds->deletes_missing,
              static_cast<unsigned long long>(cds->memberships_invalidated),
              cds->seconds * 1e3);
  auto cleaned = s.Query(all_req);
  if (!cleaned.ok()) return 1;
  std::printf("re-identification after cleanup: %zu customers (%.1f ms)\n",
              cleaned->entities.size(),
              cleaned->stats.latency_seconds * 1e3);

  // --- Stage 4: the same session API, sharded. ------------------------------
  // Load the identical snapshot pair behind a 2-shard router, replay both
  // delta batches (shipped to the shards as serialized "GPARDLTA" bytes),
  // and confirm the sharded deployment identifies the same audience.
  ShardedRuleServerOptions shard_opt;
  shard_opt.num_shards = 2;
  shard_opt.shard_options = serve_opt;
  auto sharded = ShardedRuleServer::Load(graph_snap, rules_snap, shard_opt);
  if (!sharded.ok()) {
    std::fprintf(stderr, "ShardedRuleServer load failed: %s\n",
                 sharded.status().ToString().c_str());
    return 1;
  }
  ShardedRuleServer& r = **sharded;
  for (uint32_t i = 0; i < r.num_shards(); ++i) {
    std::printf("shard %u: %zu owned centers\n", i,
                r.shard(i).candidates().size());
  }
  // Label dictionaries are append-only and both sessions loaded the same
  // snapshot, so interning here reproduces the id `delta` was built with.
  if (r.InternLabel("follows") != follows) {
    std::fprintf(stderr, "label dictionaries diverged\n");
    return 1;
  }
  auto shard_ds = r.ApplyDelta(delta);
  if (!shard_ds.ok()) {
    std::fprintf(stderr, "sharded ApplyDelta failed: %s\n",
                 shard_ds.status().ToString().c_str());
    return 1;
  }
  auto shard_cds = r.ApplyDelta(cleanup);
  if (!shard_cds.ok()) {
    std::fprintf(stderr, "sharded cleanup ApplyDelta failed: %s\n",
                 shard_cds.status().ToString().c_str());
    return 1;
  }
  auto shard_audience = r.Query(all_req);
  if (!shard_audience.ok()) {
    std::fprintf(stderr, "sharded Query failed: %s\n",
                 shard_audience.status().ToString().c_str());
    return 1;
  }
  std::printf("sharded re-identification: %zu customers (%llu wire bytes "
              "shipped) — %s the single-server answer.\n",
              shard_audience->entities.size(),
              static_cast<unsigned long long>(shard_ds->wire_bytes +
                                              shard_cds->wire_bytes),
              shard_audience->entities == cleaned->entities
                  ? "identical to"
                  : "MISMATCH vs");
  if (shard_audience->entities != cleaned->entities) return 1;

  std::remove(graph_snap.c_str());
  std::remove(rules_snap.c_str());
  return 0;
}
