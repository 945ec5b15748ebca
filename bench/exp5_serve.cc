// Experiment E5 — the serving subsystem: cold vs warm-cache QPS for batched
// identify requests against a long-lived RuleServer, the warm full
// identification vs the per-request batch IdentifyEntities baseline (the
// only pre-existing way to answer an online request), and the cost +
// locality of edge-delta invalidation, across rule-set sizes.
//
// With GPAR_BENCH_JSON=<path> the rows are also written as JSON (the
// BENCH_serve.json CI artifact tracking serve-path speedups PR-over-PR);
// GPAR_BENCH_SMALL=1 keeps the CI-sized config.

#include <algorithm>
#include <cstdio>
#include <random>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "graph/graph_delta.h"
#include "identify/eip.h"
#include "serve/rule_server.h"

int main() {
  using namespace gpar;
  using namespace gpar::bench;
  const uint32_t scale = Scale();
  const bool small = SmallRun();
  const uint32_t workers = 4;
  const size_t batch_size = 16;  // centers per serve request

  struct Row {
    size_t rules;
    size_t candidates;
    double load_s;
    double cold_qps, warm_qps, after_delta_qps;
    double batch_s, warm_all_s;
    double delta_s;
    uint64_t invalidated;
  };
  std::vector<Row> rows;

  Graph g = MakePokecLike(scale);
  Predicate q = PickPredicate(g, "like_music");
  std::printf("Pokec-like: %u nodes, %zu edges\n", g.num_nodes(),
              g.num_edges());

  PrintHeader("Exp-5 rule serving (cold/warm QPS, delta invalidation)",
              {"rules", "cands", "load(s)", "cold_qps", "warm_qps",
               "delta_qps", "batch(s)", "warm_all(s)", "delta(s)", "inval"});

  std::vector<size_t> sizes = small ? std::vector<size_t>{2, 6}
                                    : std::vector<size_t>{2, 6, 12};
  for (size_t m : sizes) {
    auto sigma = MakeSigma(g, q, m, 4, 5, 2);
    if (sigma.size() < 2) continue;
    std::vector<RuleRecord> records;
    for (const Gpar& r : sigma) records.push_back({r, 0, 0.0});

    // Baseline: one batch IdentifyEntities per "request".
    EipOptions bopt;
    bopt.num_workers = workers;
    bopt.eta = 1.0;
    Timer tb;
    auto batch = IdentifyEntities(g, sigma, bopt);
    double batch_s = tb.Seconds();
    if (!batch.ok()) return 1;

    RuleServerOptions sopt;
    sopt.num_workers = workers;
    Timer tl;
    auto server = RuleServer::Create(g, records, sopt);
    double load_s = tl.Seconds();
    if (!server.ok()) return 1;
    RuleServer& s = **server;

    // Request set: random candidate batches covering the candidate pool
    // roughly once (capped so cold runs stay CI-sized).
    std::mt19937_64 rng(99 + m);
    const auto& cands = s.candidates();
    size_t num_requests =
        std::min<size_t>(small ? 64 : 512,
                         std::max<size_t>(cands.size() / batch_size, 1));
    std::vector<SessionRequest> requests(num_requests);
    for (auto& req : requests) {
      for (size_t i = 0; i < batch_size; ++i) {
        req.centers.push_back(cands[rng() % cands.size()]);
      }
    }

    auto run_requests = [&]() -> double {
      Timer t;
      for (const SessionRequest& req : requests) {
        auto reply = s.Query(req);
        if (!reply.ok()) std::abort();
      }
      return static_cast<double>(requests.size()) / t.Seconds();
    };

    double cold_qps = run_requests();
    double warm_qps = run_requests();

    // Warm full identification (the batch-equivalent answer, from cache).
    Timer tw;
    SessionRequest all;
    all.all_centers = true;
    all.eta = 1.0;
    auto warm_all = s.Query(all);
    double warm_all_s = tw.Seconds();
    if (!warm_all.ok() || warm_all->entities != batch->entities) {
      std::fprintf(stderr, "serve/batch mismatch at m=%zu\n", m);
      return 1;
    }

    // Delta: a few random inserts, then the same request set.
    GraphDelta inserts;
    {
      LabelId follows = g.labels().Lookup("follows");
      if (follows == kNoLabel) follows = q.edge_label;
      for (int i = 0; i < 8; ++i) {
        inserts.inserts.push_back(
            {static_cast<NodeId>(rng() % g.num_nodes()), follows,
             static_cast<NodeId>(rng() % g.num_nodes())});
      }
    }
    auto ds = s.ApplyDelta(inserts);
    if (!ds.ok()) return 1;
    double after_delta_qps = run_requests();

    rows.push_back({sigma.size(), cands.size(), load_s, cold_qps, warm_qps,
                    after_delta_qps, batch_s, warm_all_s, ds->seconds,
                    ds->memberships_invalidated});
    PrintCell(static_cast<uint64_t>(sigma.size()));
    PrintCell(static_cast<uint64_t>(cands.size()));
    PrintCell(load_s);
    PrintCell(cold_qps);
    PrintCell(warm_qps);
    PrintCell(after_delta_qps);
    PrintCell(batch_s);
    PrintCell(warm_all_s);
    PrintCell(ds->seconds);
    PrintCell(ds->memberships_invalidated);
    EndRow();
  }

  std::printf(
      "qps = %zu-center Serve requests per second (cold: empty cache; warm:\n"
      "repeat of the same request set; delta_qps: after an 8-edge delta).\n"
      "batch(s) = one IdentifyEntities call — the per-request baseline a\n"
      "server-less deployment pays; warm_all(s) = the same answer from the\n"
      "warm session. inval = (rule, center) memberships invalidated by the\n"
      "delta (locality: far below rules x candidates).\n",
      batch_size);

  if (const char* json = JsonPath()) {
    std::FILE* f = std::fopen(json, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"exp5_serve\",\n");
    std::fprintf(f, "  \"scale\": %u,\n  \"small\": %s,\n  \"rows\": [\n",
                 scale, small ? "true" : "false");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          f,
          "    {\"rules\": %zu, \"candidates\": %zu, \"load_s\": %.6f, "
          "\"cold_qps\": %.2f, \"warm_qps\": %.2f, "
          "\"after_delta_qps\": %.2f, \"batch_s\": %.6f, "
          "\"warm_all_s\": %.6f, \"delta_s\": %.6f, "
          "\"memberships_invalidated\": %llu}%s\n",
          r.rules, r.candidates, r.load_s, r.cold_qps, r.warm_qps,
          r.after_delta_qps, r.batch_s, r.warm_all_s, r.delta_s,
          static_cast<unsigned long long>(r.invalidated),
          i + 1 < rows.size() ? "," : "");
    }
    double tot_cold = 0, tot_warm = 0, tot_batch = 0, tot_warm_all = 0,
           tot_delta = 0;
    for (const Row& r : rows) {
      tot_cold += r.cold_qps;
      tot_warm += r.warm_qps;
      tot_batch += r.batch_s;
      tot_warm_all += r.warm_all_s;
      tot_delta += r.delta_s;
    }
    // Per-row numbers at CI sizes are noisy; trajectory comparisons should
    // use the sweep totals.
    std::fprintf(f,
                 "  ],\n  \"totals\": {\"cold_qps\": %.2f, "
                 "\"warm_qps\": %.2f, \"batch_s\": %.6f, "
                 "\"warm_all_s\": %.6f, \"delta_s\": %.6f}\n}\n",
                 tot_cold, tot_warm, tot_batch, tot_warm_all, tot_delta);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s: %zu rows\n", json, rows.size());
  }
  return 0;
}
