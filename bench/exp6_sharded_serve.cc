// Experiment E6 — the sharded serving tier: aggregate warm QPS as the
// shard count grows (k client streams firing point queries with per-shard
// center affinity at a k-shard ShardedRuleServer), and request latency
// p50/p99 under a mixed workload where edge-delta batches land while the
// clients keep querying (deltas swap immutable state snapshots, so they
// must never block in-flight queries).
//
// Aggregate warm QPS uses the same makespan accounting as the BSP mining
// runtime (src/parallel/bsp.h): each shard of a real deployment is its own
// machine, so the per-stream busy times are measured independently and the
// aggregate rate is total requests over the max stream time. Wall time on
// a single CI host cannot show the scaling; makespan can. `wall_qps`
// additionally reports the k-thread wall-clock rate on this host. The
// mixed phase runs genuinely concurrent client threads + one delta writer
// (that is what the latency percentiles are about).
//
// With GPAR_BENCH_JSON=<path> the rows are also written as JSON (the
// BENCH_sharded_serve.json CI artifact tracking the k=4 vs k=1 scaling
// ratio PR-over-PR); GPAR_BENCH_SMALL=1 keeps the CI-sized config.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <random>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "graph/graph_delta.h"
#include "serve/rule_server.h"
#include "serve/serve_session.h"
#include "serve/sharded_rule_server.h"

int main() {
  using namespace gpar;
  using namespace gpar::bench;
  const uint32_t scale = Scale();
  const bool small = SmallRun();
  const size_t batch_size = 8;          // centers per point request
  const size_t rules = small ? 4 : 6;   // |Sigma|
  const size_t warm_requests = small ? 400 : 4000;   // per client thread
  const size_t mixed_requests = small ? 200 : 2000;  // per client thread
  const size_t delta_batches = small ? 6 : 24;
  const size_t delta_edges = 4;

  struct Row {
    uint32_t shards;
    uint32_t threads;
    double load_s;
    double warm_qps;  ///< makespan-accounted aggregate rate
    double wall_qps;  ///< k concurrent threads on this host
    double mixed_qps, p50_ms, p99_ms;
    double delta_s;
  };
  std::vector<Row> rows;

  Graph g = MakePokecLike(scale);
  Predicate q = PickPredicate(g, "like_music");
  std::printf("Pokec-like: %u nodes, %zu edges\n", g.num_nodes(),
              g.num_edges());

  auto sigma = MakeSigma(g, q, rules, 4, 5, 2);
  if (sigma.size() < 2) {
    std::fprintf(stderr, "workload generation produced %zu rules\n",
                 sigma.size());
    return 1;
  }
  std::vector<RuleRecord> records;
  for (const Gpar& r : sigma) records.push_back({r, 0, 0.0});

  // Reference entities for the equivalence spot-check across shard counts.
  std::vector<NodeId> want_entities;

  PrintHeader("Exp-6 sharded serving (aggregate warm QPS, mixed p50/p99)",
              {"shards", "threads", "load(s)", "warm_qps", "wall_qps",
               "mixed_qps", "p50(ms)", "p99(ms)", "delta(s)"});

  for (uint32_t k : {1u, 2u, 4u}) {
    ShardedRuleServerOptions sopt;
    sopt.num_shards = k;
    sopt.shard_options.num_workers = 2;
    Timer tl;
    auto server = ShardedRuleServer::Create(g, records, sopt);
    double load_s = tl.Seconds();
    if (!server.ok()) {
      std::fprintf(stderr, "create failed: %s\n",
                   server.status().ToString().c_str());
      return 1;
    }
    ShardedRuleServer& s = **server;

    {
      SessionRequest all;
      all.all_centers = true;
      all.eta = 1.0;
      auto r = s.Query(all);
      if (!r.ok()) return 1;
      if (k == 1) {
        want_entities = r->entities;
      } else if (r->entities != want_entities) {
        std::fprintf(stderr, "k=%u entities diverge from k=1\n", k);
        return 1;
      }
    }

    // Per-client request streams with shard affinity: thread t draws its
    // centers from shard t's owned set, so a request scatters to exactly
    // one shard and aggregate throughput measures the sharding, not the
    // router fan-out.
    const uint32_t threads = k;
    std::vector<std::vector<SessionRequest>> streams(threads);
    for (uint32_t t = 0; t < threads; ++t) {
      const auto& owned = s.shard(t).candidates();
      if (owned.empty()) {
        std::fprintf(stderr, "shard %u owns no centers\n", t);
        return 1;
      }
      std::mt19937_64 rng(31 * t + k);
      streams[t].resize(64);
      for (auto& req : streams[t]) {
        for (size_t i = 0; i < batch_size; ++i) {
          req.centers.push_back(owned[rng() % owned.size()]);
        }
      }
    }

    // Warm every stream's centers once, off the clock.
    for (uint32_t t = 0; t < threads; ++t) {
      for (const auto& req : streams[t]) {
        if (!s.Query(req).ok()) return 1;
      }
    }

    // Phase 1a: makespan-accounted aggregate warm QPS. Each stream is one
    // simulated shard machine: run it alone, clock its busy time, and
    // charge the deployment the slowest stream (partition skew and router
    // overhead both land here).
    double warm_qps = 0;
    {
      double makespan = 0;
      for (uint32_t t = 0; t < threads; ++t) {
        Timer tt;
        for (size_t i = 0; i < warm_requests; ++i) {
          if (!s.Query(streams[t][i % streams[t].size()]).ok()) return 1;
        }
        makespan = std::max(makespan, tt.Seconds());
      }
      warm_qps =
          static_cast<double>(warm_requests) * threads / makespan;
    }

    // Phase 1b (and the mixed phase below): genuinely concurrent clients.
    auto run_clients = [&](size_t per_thread,
                           std::vector<double>* latencies_ms) -> double {
      std::atomic<bool> failed{false};
      std::vector<std::vector<double>> lat(threads);
      Timer t0;
      std::vector<std::thread> clients;
      clients.reserve(threads);
      for (uint32_t t = 0; t < threads; ++t) {
        clients.emplace_back([&, t] {
          auto& mine = lat[t];
          if (latencies_ms != nullptr) mine.reserve(per_thread);
          for (size_t i = 0; i < per_thread; ++i) {
            const SessionRequest& req = streams[t][i % streams[t].size()];
            Timer tr;
            if (!s.Query(req).ok()) {
              failed.store(true);
              return;
            }
            if (latencies_ms != nullptr) mine.push_back(tr.Millis());
          }
        });
      }
      for (auto& th : clients) th.join();
      double elapsed = t0.Seconds();
      if (failed.load()) std::abort();
      if (latencies_ms != nullptr) {
        for (auto& v : lat) {
          latencies_ms->insert(latencies_ms->end(), v.begin(), v.end());
        }
      }
      return static_cast<double>(per_thread) * threads / elapsed;
    };

    double wall_qps = run_clients(warm_requests, nullptr);

    // Phase 2: the same clients with a writer landing delta batches
    // mid-stream. Latencies include the cache-miss recomputation of
    // invalidated centers; the writer's batches are identical across k.
    std::vector<double> latencies;
    double delta_s = 0;
    double mixed_qps = 0;
    {
      std::atomic<bool> clients_done{false};
      std::atomic<uint64_t> deltas_failed{0};
      double writer_s = 0;
      std::thread writer([&] {
        std::mt19937_64 rng(777);
        LabelId follows = g.labels().Lookup("follows");
        if (follows == kNoLabel) follows = q.edge_label;
        for (size_t b = 0; b < delta_batches; ++b) {
          if (clients_done.load(std::memory_order_relaxed)) break;
          GraphDelta delta;
          for (size_t i = 0; i < delta_edges; ++i) {
            delta.inserts.push_back(
                {static_cast<NodeId>(rng() % g.num_nodes()), follows,
                 static_cast<NodeId>(rng() % g.num_nodes())});
          }
          Timer td;
          auto ds = s.ApplyDelta(delta);
          writer_s += td.Seconds();
          if (!ds.ok()) {
            ++deltas_failed;
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      });
      mixed_qps = run_clients(mixed_requests, &latencies);
      clients_done.store(true);
      writer.join();
      if (deltas_failed.load() != 0) return 1;
      delta_s = writer_s;
    }

    std::sort(latencies.begin(), latencies.end());
    double p50 = latencies.empty() ? 0 : latencies[latencies.size() / 2];
    double p99 =
        latencies.empty() ? 0 : latencies[latencies.size() * 99 / 100];

    rows.push_back({k, threads, load_s, warm_qps, wall_qps, mixed_qps, p50,
                    p99, delta_s});
    PrintCell(static_cast<uint64_t>(k));
    PrintCell(static_cast<uint64_t>(threads));
    PrintCell(load_s);
    PrintCell(warm_qps);
    PrintCell(wall_qps);
    PrintCell(mixed_qps);
    PrintCell(p50);
    PrintCell(p99);
    PrintCell(delta_s);
    EndRow();
  }

  std::printf(
      "warm_qps = aggregate %zu-center point requests per second, k client\n"
      "streams with per-shard center affinity, all answers cached —\n"
      "makespan-accounted (total requests / slowest stream, the rate a\n"
      "k-machine deployment sees; see src/parallel/bsp.h). wall_qps = the\n"
      "same streams as k concurrent threads on this host. mixed_* = those\n"
      "threads while a writer lands %zu-edge delta batches (snapshot swaps;\n"
      "queries never block); p50/p99 over all client-observed request\n"
      "latencies.\n",
      batch_size, delta_edges);

  if (const char* json = JsonPath()) {
    std::FILE* f = std::fopen(json, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"exp6_sharded_serve\",\n");
    std::fprintf(f, "  \"scale\": %u,\n  \"small\": %s,\n  \"rows\": [\n",
                 scale, small ? "true" : "false");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          f,
          "    {\"shards\": %u, \"threads\": %u, \"load_s\": %.6f, "
          "\"warm_qps\": %.2f, \"wall_qps\": %.2f, \"mixed_qps\": %.2f, "
          "\"p50_ms\": %.4f, \"p99_ms\": %.4f, \"delta_s\": %.6f}%s\n",
          r.shards, r.threads, r.load_s, r.warm_qps, r.wall_qps, r.mixed_qps,
          r.p50_ms, r.p99_ms, r.delta_s, i + 1 < rows.size() ? "," : "");
    }
    // The scaling ratio is the headline number: aggregate warm QPS at the
    // largest shard count over the single-shard deployment.
    double base = rows.empty() ? 0 : rows.front().warm_qps;
    double top = rows.empty() ? 0 : rows.back().warm_qps;
    std::fprintf(f,
                 "  ],\n  \"totals\": {\"warm_qps_k1\": %.2f, "
                 "\"warm_qps_kmax\": %.2f, \"scaling\": %.3f}\n}\n",
                 base, top, base > 0 ? top / base : 0.0);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s: %zu rows\n", json, rows.size());
  }
  return 0;
}
