// Pipeline benchmark program for the gpar library.
//
// One process runs the library's pipeline on the benches' Pokec-like
// graph — mine (DMine) -> snapshot -> load a journaled, maintained
// RuleServer and a 4-shard ShardedRuleServer -> apply a delta batch ->
// serve — and then repeats one workload's operation for --seconds,
// checking every output:
//
//   mine   one DMine run for the diversified top-k. Every run must equal
//          the top-k the maintained server serves for the same graph.
//   serve  one pass over a stream of 64 8-center point requests to the
//          sharded router, every center owned by the client's shard, all
//          answers cached (Exp-6's warm phase); one client per shard.
//          Every reply must equal a freshly built single server's.
//   churn  one insert+delete batch of Exp-9's stream applied to the
//          journaled server in maintain-on-ApplyDelta mode (CSR patch,
//          cache invalidation, journal append, incremental maintenance
//          pass), then the full identification re-answered from the
//          session (Exp-7's requery). Every answer must equal a server
//          built from scratch on a copy of the graph patched outside the
//          server; at the end the served graph must equal that copy, the
//          served rules a from-scratch DMine on it, and a recovery from
//          snapshot + journal the same graph.
//
// Workload shapes and mining parameters come from bench/exp6_sharded_serve,
// exp7_delta_churn and exp9_maintenance; perfbench/README.md lists them and
// the one departure. Each workload is a closed loop: one client on mine
// and churn, one per shard on serve. The set-up runs kSetUpRepeats times
// and setup_s is its median. With --trace 1 every call this program makes
// into a library layer is timed, and the per-layer metrics are the mean
// times of those calls over the whole run plus the layers' own counters
// per operation.
//
// Usage: gpar_pipeline --workload mine|serve|churn --seed N --seconds S
//                      --trace 0|1 --workdir DIR
// The last line on stdout is one JSON object with the keys correct,
// attempted, failed and metrics.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/result.h"
#include "common/status.h"
#include "common/timer.h"
#include "graph/generator.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "graph/graph_snapshot.h"
#include "graph/stats.h"
#include "identify/eip.h"
#include "maintain/rule_maintainer.h"
#include "mine/dmine.h"
#include "rule/rule_snapshot.h"
#include "serve/rule_server.h"
#include "serve/serve_session.h"
#include "serve/sharded_rule_server.h"

using namespace gpar;

namespace {

/// The benches' graph: MakePokecLike at scale 1 with the generator's
/// default seed, the same for every --seed. What mining and maintenance
/// cost depends mostly on the graph's community structure, so a per-seed
/// graph would move the numbers more than any code change. The seed drives
/// everything the workloads feed that graph — the set-up batch (so every
/// workload mines and serves a seed-specific graph), the request streams
/// and the churn stream.
constexpr uint32_t kGraphScale = 1;
constexpr int kSetUpRepeats = 5;
/// Exp-6: point requests of 8 centers, each drawn from one shard's owned
/// centers (per-shard affinity), 64 pre-drawn requests per shard stream,
/// every stream warmed once off the clock; the k = 4 row (4 shards, one
/// client thread each), 2 workers per shard, the default cache capacity.
constexpr uint32_t kShards = 4;
constexpr size_t kRequestCenters = 8;
constexpr size_t kStreamRequests = 64;
/// Exp-9 (full size): each batch sprays 48 q-labeled edges between random
/// nodes and cleans up half of the edges earlier batches sprayed.
constexpr size_t kBatchInserts = 48;

/// Exp-9's mining parameters (k = 6, d = 2, sigma = 5, other fields at
/// their defaults) except max_pattern_edges, 2 instead of 3: at 3 one DMine
/// or maintenance pass takes 1-2 s on this graph, too few operations per
/// run for a steady median.
DmineOptions MineOptions() {
  DmineOptions o;
  o.k = 6;
  o.d = 2;
  o.sigma = 5;
  o.max_pattern_edges = 2;
  return o;
}

// ---------------------------------------------------------------------------
// Per-layer timing

/// Sums the wall time of this program's calls into each library layer. Off
/// (--trace 0), nothing is recorded.
class LayerTimes {
 public:
  explicit LayerTimes(bool enabled) : enabled_(enabled) {}

  /// Adds `calls` calls that took `seconds` in total.
  void Add(const char* name, double seconds, uint64_t calls = 1) {
    if (!enabled_) return;
    Sum& s = sums_[name];
    s.seconds += seconds;
    s.calls += calls;
  }

  /// Mean time of the calls named `name`, in milliseconds.
  double MeanMs(const std::string& name) const {
    auto it = sums_.find(name);
    if (it == sums_.end() || it->second.calls == 0) return 0;
    return 1e3 * it->second.seconds / static_cast<double>(it->second.calls);
  }

 private:
  struct Sum {
    double seconds = 0;
    uint64_t calls = 0;
  };
  bool enabled_;
  std::map<std::string, Sum> sums_;
};

/// Times one scope into a LayerTimes entry.
class LayerTimer {
 public:
  LayerTimer(LayerTimes& times, const char* name)
      : times_(times), name_(name) {}
  ~LayerTimer() { times_.Add(name_, clock_.Seconds()); }
  LayerTimer(const LayerTimer&) = delete;
  LayerTimer& operator=(const LayerTimer&) = delete;

 private:
  LayerTimes& times_;
  const char* name_;
  Timer clock_;
};

/// Layer counters read from the library's own stats, summed over the run.
using Counters = std::map<std::string, double>;

// ---------------------------------------------------------------------------
// The pipeline

struct Pipeline {
  std::string graph_snap, rules_snap, journal;
  Predicate q{};
  /// The graph as patched by this program itself, outside both servers.
  std::shared_ptr<const Graph> reference;
  std::unique_ptr<RuleServer> server;  ///< journaled, maintain-on-ApplyDelta
  std::unique_ptr<ShardedRuleServer> router;
  MaintainStats seed_maintain;  ///< maintainer stats right after seeding
  std::mt19937_64 rng;          ///< drives the churn stream
  std::vector<EdgeInsert> live;  ///< sprayed edges not yet cleaned up
};

/// q(x, y): the most frequent like_music triple, as the benches pick it.
Result<Predicate> PickPredicate(const Graph& g) {
  const LabelId edge = g.labels().Lookup("like_music");
  for (const EdgePatternStat& s : FrequentEdgePatterns(g)) {
    if (s.edge_label == edge) {
      return Predicate{s.src_label, s.edge_label, s.dst_label};
    }
  }
  return Status::NotFound("the graph has no like_music edge");
}

std::vector<RuleRecord> Records(const DmineResult& r) {
  std::vector<RuleRecord> out;
  for (const auto& m : r.topk) out.push_back({m->rule, m->supp, m->conf});
  return out;
}

void CountMine(const DmineResult& r, Counters& c) {
  c["mine.runs"] += 1;
  c["mine.exists_calls"] += static_cast<double>(r.stats.exists_calls);
  c["mine.candidates_verified"] +=
      static_cast<double>(r.stats.candidates_verified);
  c["mine.coordinator_s"] += r.times.coordinator_seconds;
  c["mine.makespan_s"] += r.times.makespan_seconds;
}

/// Exp-9's CDC-style stream: each batch deletes the older half of the
/// edges earlier batches sprayed and sprays kBatchInserts new q-labeled
/// edges between random nodes. An insert that names an edge the graph
/// already has, or one already sprayed, is drawn again, so every cleanup
/// deletes only sprayed edges and the graph never drifts from its
/// generated state by more than the live spray.
GraphDelta NextBatch(Pipeline& p) {
  GraphDelta d;
  const size_t cleanup = p.live.size() / 2;
  for (size_t i = 0; i < cleanup; ++i) {
    d.deletes.push_back({p.live[i].src, p.live[i].label, p.live[i].dst});
  }
  p.live.erase(p.live.begin(), p.live.begin() + cleanup);
  const NodeId n = p.reference->num_nodes();
  while (d.inserts.size() < kBatchInserts) {
    const EdgeInsert e{static_cast<NodeId>(p.rng() % n), p.q.edge_label,
                       static_cast<NodeId>(p.rng() % n)};
    if (p.reference->HasEdge(e.src, e.label, e.dst) ||
        std::find(p.live.begin(), p.live.end(), e) != p.live.end()) {
      continue;
    }
    d.inserts.push_back(e);
    p.live.push_back(e);
  }
  return d;
}

Status ApplyToServer(const GraphDelta& d, LayerTimes& lt, Counters& c,
                     Pipeline& p) {
  LayerTimer timer(lt, "serve.apply_delta");
  GPAR_ASSIGN_OR_RETURN(const DeltaStats ds, p.server->ApplyDelta(d));
  c["delta.batches"] += 1;
  c["delta.memberships_invalidated"] +=
      static_cast<double>(ds.memberships_invalidated);
  c["delta.sketches_refreshed"] += static_cast<double>(ds.sketches_refreshed);
  c["journal.bytes"] += static_cast<double>(ds.journal_bytes);
  return Status::OK();
}

Status PatchReference(const GraphDelta& d, Pipeline& p) {
  GPAR_ASSIGN_OR_RETURN(GraphPatch patched, PatchGraph(*p.reference, d));
  p.reference = std::make_shared<const Graph>(std::move(patched.graph));
  return Status::OK();
}

/// The full identification (Exp-7's requery), on either server.
Result<SessionReply> QueryAll(ServeSession& s) {
  SessionRequest all;
  all.all_centers = true;
  all.eta = 1.0;
  return s.Query(all);
}

/// Set-up: generate -> mine -> snapshot -> load both servers -> attach the
/// journal -> seed maintenance -> one delta batch through both servers ->
/// warm the single server's cache with one full identification.
Status SetUp(uint64_t seed, const std::string& workdir, LayerTimes& lt,
             Counters& c, Pipeline& p) {
  p.graph_snap = workdir + "/graph.snap";
  p.rules_snap = workdir + "/rules.snap";
  p.journal = workdir + "/deltas.wal";
  p.rng.seed(seed);
  {
    LayerTimer timer(lt, "graph.generate");
    p.reference = std::make_shared<const Graph>(MakePokecLike(kGraphScale));
  }
  const std::shared_ptr<const Graph> g = p.reference;
  GPAR_ASSIGN_OR_RETURN(p.q, PickPredicate(*g));

  std::vector<RuleRecord> mined;
  {
    LayerTimer timer(lt, "mine.dmine");
    GPAR_ASSIGN_OR_RETURN(const DmineResult r, Dmine(*g, p.q, MineOptions()));
    CountMine(r, c);
    mined = Records(r);
  }
  if (mined.empty()) return Status::Internal("DMine found no rules");
  {
    LayerTimer timer(lt, "snapshot.write");
    GPAR_RETURN_NOT_OK(WriteGraphSnapshotFile(*g, p.graph_snap));
    GPAR_RETURN_NOT_OK(
        WriteRuleSetSnapshotFile(mined, g->labels(), p.rules_snap));
  }
  {
    LayerTimer timer(lt, "serve.load");
    GPAR_ASSIGN_OR_RETURN(p.server,
                          RuleServer::Load(p.graph_snap, p.rules_snap));
  }
  {
    LayerTimer timer(lt, "router.load");
    ShardedRuleServerOptions o;
    o.num_shards = kShards;
    o.shard_options.num_workers = 2;
    GPAR_ASSIGN_OR_RETURN(
        p.router, ShardedRuleServer::Load(p.graph_snap, p.rules_snap, o));
  }
  std::error_code ec;
  std::filesystem::remove(p.journal, ec);
  {
    LayerTimer timer(lt, "journal.attach");
    GPAR_RETURN_NOT_OK(p.server->AttachJournal(p.journal));
  }
  {
    LayerTimer timer(lt, "maintain.seed");
    MaintainOptions o;
    o.mine = MineOptions();
    GPAR_RETURN_NOT_OK(p.server->EnableMaintenance(o));
  }
  p.seed_maintain = p.server->maintain_stats();

  const GraphDelta d = NextBatch(p);
  GPAR_RETURN_NOT_OK(ApplyToServer(d, lt, c, p));
  {
    LayerTimer timer(lt, "router.apply_delta");
    GPAR_ASSIGN_OR_RETURN(const DeltaStats ds, p.router->ApplyDelta(d));
    c["router.batches"] += 1;
    c["router.wire_bytes"] += static_cast<double>(ds.wire_bytes);
  }
  GPAR_RETURN_NOT_OK(PatchReference(d, p));

  LayerTimer timer(lt, "serve.query");
  return QueryAll(*p.server).status();
}

/// Adds a pipeline's lifetime stats to the counters, before it is torn
/// down. Maintenance counts only the delta passes, not the seed pass.
void CollectStats(const Pipeline& p, Counters& c) {
  if (p.server == nullptr || p.router == nullptr) return;
  const ServeStats s = p.server->lifetime_stats();
  c["serve.requests"] += static_cast<double>(s.requests);
  c["serve.cache_hits"] += static_cast<double>(s.cache_hits);
  c["serve.cache_probes"] += static_cast<double>(s.cache_probes);
  const ServeStats r = p.router->lifetime_stats();
  c["router.requests"] += static_cast<double>(r.requests);
  c["router.cache_hits"] += static_cast<double>(r.cache_hits);
  c["router.cache_probes"] += static_cast<double>(r.cache_probes);
  c["router.failures"] += static_cast<double>(r.retries + r.shards_failed);
  for (uint32_t i = 0; i < p.router->num_shards(); ++i) {
    c["router.shard_query_s"] +=
        p.router->shard(i).lifetime_stats().latency_seconds;
  }
  const MaintainStats m = p.server->maintain_stats();
  const MaintainStats& s0 = p.seed_maintain;
  c["maintain.passes"] += static_cast<double>(m.passes - s0.passes);
  c["maintain.pass_s"] += m.seconds - s0.seconds;
  c["maintain.affected_nodes"] +=
      static_cast<double>(m.affected_nodes - s0.affected_nodes);
  c["maintain.centers_reprobed"] +=
      static_cast<double>(m.centers_reprobed - s0.centers_reprobed);
  c["maintain.centers_carried"] +=
      static_cast<double>(m.centers_carried - s0.centers_carried);
  c["maintain.exists_calls"] +=
      static_cast<double>(m.exists_calls - s0.exists_calls);
  c["maintain.rules_reexpanded"] +=
      static_cast<double>(m.rules_reexpanded - s0.rules_reexpanded);
}

// ---------------------------------------------------------------------------
// Checks (run outside every timed section)

Result<std::string> SnapshotBytes(const Graph& g) {
  std::ostringstream os;
  GPAR_RETURN_NOT_OK(WriteGraphSnapshot(g, os));
  return os.str();
}

Status SameAnswers(const SessionReply& a, const SessionReply& b,
                   const std::string& what) {
  bool same = a.matched == b.matched && a.entities == b.entities &&
              a.supp_q == b.supp_q && a.supp_qbar == b.supp_qbar &&
              a.rule_evals.size() == b.rule_evals.size();
  for (size_t i = 0; same && i < a.rule_evals.size(); ++i) {
    same = a.rule_evals[i].supp_r == b.rule_evals[i].supp_r &&
           a.rule_evals[i].supp_qqbar == b.rule_evals[i].supp_qqbar &&
           a.rule_evals[i].conf == b.rule_evals[i].conf;
  }
  return same ? Status::OK() : Status::Internal(what + ": answers differ");
}

/// The served rule set must be what a from-scratch DMine returns on the
/// reference graph — the maintained invariant, checked against a graph the
/// server never touched.
Status CheckServedRules(const Pipeline& p) {
  GPAR_ASSIGN_OR_RETURN(const DmineResult r,
                        Dmine(*p.reference, p.q, MineOptions()));
  if (Records(r) != p.server->rules()) {
    return Status::Internal("served rules differ from DMine on the graph");
  }
  return Status::OK();
}

/// The full identification of a server built from scratch on the
/// reference graph with `rules`.
Result<SessionReply> FreshAnswers(const Pipeline& p,
                                  std::vector<RuleRecord> rules) {
  GPAR_ASSIGN_OR_RETURN(auto fresh,
                        RuleServer::Create(Graph(*p.reference),
                                           std::move(rules)));
  return QueryAll(*fresh);
}

/// Checks the router against a fresh single server and the batch
/// identification, and returns the fresh server's rows by center: the
/// reference every served point request is compared with.
Result<std::unordered_map<NodeId, std::vector<uint32_t>>> CheckRouter(
    Pipeline& p) {
  GPAR_ASSIGN_OR_RETURN(const SessionReply want,
                        FreshAnswers(p, p.router->rules()));
  GPAR_ASSIGN_OR_RETURN(const SessionReply got, QueryAll(*p.router));
  GPAR_RETURN_NOT_OK(SameAnswers(got, want, "router vs fresh server"));

  std::vector<Gpar> sigma;
  for (const RuleRecord& r : p.router->rules()) sigma.push_back(r.rule);
  GPAR_ASSIGN_OR_RETURN(const EipResult batch,
                        IdentifyEntities(*p.reference, sigma));
  if (batch.entities != want.entities) {
    return Status::Internal("fresh server and batch identification differ");
  }

  std::unordered_map<NodeId, std::vector<uint32_t>> rows;
  const std::vector<NodeId>& cands = p.router->candidates();
  for (size_t i = 0; i < cands.size(); ++i) rows[cands[i]] = want.matched[i];
  return rows;
}

/// End of the churn stream: graph, rules and recovery.
Status CheckChurn(Pipeline& p) {
  GPAR_ASSIGN_OR_RETURN(const std::string want, SnapshotBytes(*p.reference));
  GPAR_ASSIGN_OR_RETURN(const std::string served,
                        SnapshotBytes(*p.server->graph_snapshot()));
  if (served != want) {
    return Status::Internal("served graph differs from the reference");
  }
  GPAR_RETURN_NOT_OK(CheckServedRules(p));

  // Recovery replays a copy of the journal; the live one stays untouched.
  const std::string copy = p.journal + ".copy";
  std::error_code ec;
  std::filesystem::copy_file(p.journal, copy,
                             std::filesystem::copy_options::overwrite_existing,
                             ec);
  if (ec) return Status::IoError("cannot copy the journal: " + ec.message());
  GPAR_ASSIGN_OR_RETURN(
      auto recovered, RuleServer::Recover(p.graph_snap, p.rules_snap, copy));
  GPAR_ASSIGN_OR_RETURN(const std::string replayed,
                        SnapshotBytes(*recovered->graph_snapshot()));
  if (replayed != want) {
    return Status::Internal("recovered graph differs from the reference");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Workload loops

struct Outcome {
  std::vector<double> latency_ms;  ///< successful operations only
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::string error;  ///< first failure or mismatch, for stderr

  void Fail(const Status& s) {
    ++failed;
    if (error.empty()) error = s.ToString();
  }
  void Wrong(const std::string& what) {
    if (correct) error = what;
    correct = false;
  }
};

void RunMine(double seconds, LayerTimes& lt, Counters& c, Pipeline& p,
             Outcome& out) {
  const std::vector<RuleRecord> want = p.server->rules();
  const Timer run;
  while (run.Seconds() < seconds) {
    ++out.attempted;
    const Timer t;
    Result<DmineResult> r = [&] {
      LayerTimer timer(lt, "mine.dmine");
      return Dmine(*p.reference, p.q, MineOptions());
    }();
    const double ms = t.Millis();
    if (!r.ok()) {
      out.Fail(r.status());
      continue;
    }
    out.latency_ms.push_back(ms);
    CountMine(*r, c);
    if (Records(*r) != want) out.Wrong("DMine differs from the served rules");
  }
}

/// Exp-6's concurrent warm phase: one client thread per shard, each with a
/// stream of kStreamRequests pre-drawn requests of kRequestCenters centers
/// that shard owns, every stream warmed once. A client's operation is one
/// pass over its stream, as Exp-6 times whole streams. One client per
/// shard also keeps every core busy: a single client thread's latency
/// follows whichever core it runs on, and cores of a shared host run at
/// different speeds that change over seconds.
void RunServe(uint64_t seed, double seconds, LayerTimes& lt,
              const std::unordered_map<NodeId, std::vector<uint32_t>>& rows,
              Pipeline& p, Outcome& out) {
  std::mt19937_64 rng(seed ^ 0x5E7E5E7Eull);
  std::vector<std::vector<SessionRequest>> streams(kShards);
  for (uint32_t t = 0; t < kShards; ++t) {
    const std::vector<NodeId>& owned = p.router->shard(t).candidates();
    if (owned.empty()) {
      out.Wrong("a shard owns no centers");
      return;
    }
    streams[t].resize(kStreamRequests);
    for (SessionRequest& req : streams[t]) {
      for (size_t i = 0; i < kRequestCenters; ++i) {
        req.centers.push_back(owned[rng() % owned.size()]);
      }
      const Result<SessionReply> warm = p.router->Query(req);
      if (!warm.ok()) out.Fail(warm.status());
    }
  }

  const auto client = [&](const std::vector<SessionRequest>& stream,
                          Outcome& o) {
    std::vector<SessionReply> replies(stream.size());
    const Timer run;
    while (run.Seconds() < seconds) {
      ++o.attempted;
      Status s;
      const Timer t;
      for (size_t i = 0; i < stream.size() && s.ok(); ++i) {
        Result<SessionReply> r = p.router->Query(stream[i]);
        if (r.ok()) {
          replies[i] = std::move(r).value();
        } else {
          s = r.status();
        }
      }
      const double ms = t.Millis();
      if (!s.ok()) {
        o.Fail(s);
        continue;
      }
      o.latency_ms.push_back(ms);
      for (size_t i = 0; i < stream.size(); ++i) {
        for (size_t j = 0; j < stream[i].centers.size(); ++j) {
          auto want = rows.find(stream[i].centers[j]);
          if (want == rows.end() || replies[i].matched[j] != want->second) {
            o.Wrong("served rows differ from the fresh server's");
          }
        }
      }
    }
  };
  std::vector<Outcome> outs(kShards);
  {
    std::vector<std::jthread> clients;
    for (uint32_t t = 0; t < kShards; ++t) {
      clients.emplace_back([&, t] {
        try {
          client(streams[t], outs[t]);
        } catch (const std::exception& e) {
          outs[t].Wrong(std::string("serve client: ") + e.what());
        }
      });
    }
  }
  double busy_s = 0;
  for (const Outcome& o : outs) {
    out.attempted += o.attempted;
    out.failed += o.failed;
    if (!o.error.empty() && out.error.empty()) out.error = o.error;
    out.correct = out.correct && o.correct;
    out.latency_ms.insert(out.latency_ms.end(), o.latency_ms.begin(),
                          o.latency_ms.end());
    for (double ms : o.latency_ms) busy_s += ms / 1e3;
  }
  // Each pass is kStreamRequests router queries.
  lt.Add("router.query", busy_s,
         out.latency_ms.size() * static_cast<uint64_t>(kStreamRequests));
}

void RunChurn(double seconds, LayerTimes& lt, Counters& c, Pipeline& p,
              Outcome& out) {
  const Timer run;
  while (run.Seconds() < seconds) {
    const GraphDelta d = NextBatch(p);
    ++out.attempted;
    const Timer t;
    const Result<SessionReply> reply = [&]() -> Result<SessionReply> {
      GPAR_RETURN_NOT_OK(ApplyToServer(d, lt, c, p));
      LayerTimer timer(lt, "serve.query");
      return QueryAll(*p.server);
    }();
    const double ms = t.Millis();
    if (!reply.ok()) {
      out.Fail(reply.status());
      continue;
    }
    out.latency_ms.push_back(ms);
    Status s = PatchReference(d, p);
    if (s.ok()) {
      const Result<SessionReply> want = FreshAnswers(p, p.server->rules());
      s = want.ok() ? SameAnswers(*reply, *want, "maintained vs fresh server")
                    : want.status();
    }
    if (!s.ok()) out.Wrong(s.ToString());
  }
}

// ---------------------------------------------------------------------------
// Report

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<Metric> EndToEndMetrics(const Outcome& out,
                                    const std::vector<double>& setup_s) {
  return {
      {"op_p50_ms", Quantile(out.latency_ms, 0.5), "ms"},
      {"op_p80_ms", Quantile(out.latency_ms, 0.8), "ms"},
      {"setup_s", Quantile(setup_s, 0.5), "s"},
  };
}

std::vector<Metric> PerLayerMetrics(const LayerTimes& lt, Counters& c) {
  std::vector<Metric> m;
  for (const char* layer :
       {"graph.generate", "mine.dmine", "snapshot.write", "serve.load",
        "router.load", "journal.attach", "maintain.seed", "serve.apply_delta",
        "router.apply_delta", "serve.query", "router.query"}) {
    m.push_back({std::string(layer) + "_ms", lt.MeanMs(layer), "ms"});
  }
  c["serve.lookups"] = c["serve.cache_hits"] + c["serve.cache_probes"];
  c["router.lookups"] = c["router.cache_hits"] + c["router.cache_probes"];
  c["maintain.centers"] =
      c["maintain.centers_reprobed"] + c["maintain.centers_carried"];
  // A layer's counter per operation of that layer, or a ratio of counters.
  const struct {
    const char* name;
    const char* num;
    const char* den;
    double scale;
    const char* unit;
  } per_op[] = {
      {"mine.exists_per_run", "mine.exists_calls", "mine.runs", 1, "count"},
      {"mine.candidates_per_run", "mine.candidates_verified", "mine.runs", 1,
       "count"},
      {"mine.coordinator_ms", "mine.coordinator_s", "mine.runs", 1e3, "ms"},
      {"mine.makespan_ms", "mine.makespan_s", "mine.runs", 1e3, "ms"},
      {"serve.probes_per_request", "serve.cache_probes", "serve.requests", 1,
       "count"},
      {"serve.cache_hit_ratio", "serve.cache_hits", "serve.lookups", 1,
       "ratio"},
      {"router.probes_per_request", "router.cache_probes", "router.requests",
       1, "count"},
      {"router.cache_hit_ratio", "router.cache_hits", "router.lookups", 1,
       "ratio"},
      {"router.shard_ms_per_request", "router.shard_query_s",
       "router.requests", 1e3, "ms"},
      {"router.wire_bytes_per_batch", "router.wire_bytes", "router.batches", 1,
       "bytes"},
      {"delta.invalidated_per_batch", "delta.memberships_invalidated",
       "delta.batches", 1, "count"},
      {"delta.sketches_per_batch", "delta.sketches_refreshed",
       "delta.batches", 1, "count"},
      {"journal.bytes_per_batch", "journal.bytes", "delta.batches", 1,
       "bytes"},
      {"maintain.pass_ms", "maintain.pass_s", "maintain.passes", 1e3, "ms"},
      {"maintain.affected_per_pass", "maintain.affected_nodes",
       "maintain.passes", 1, "count"},
      {"maintain.reprobed_per_pass", "maintain.centers_reprobed",
       "maintain.passes", 1, "count"},
      {"maintain.exists_per_pass", "maintain.exists_calls", "maintain.passes",
       1, "count"},
      {"maintain.reexpanded_per_pass", "maintain.rules_reexpanded",
       "maintain.passes", 1, "count"},
      {"maintain.reprobe_ratio", "maintain.centers_reprobed",
       "maintain.centers", 1, "ratio"},
  };
  for (const auto& x : per_op) {
    m.push_back({x.name, x.scale * Ratio(c[x.num], c[x.den]), x.unit});
  }
  m.push_back({"router.failures", c["router.failures"], "count"});
  return m;
}

void PrintResult(const Outcome& out, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Result<FlagMap> flags = ParseFlagArgs(argc, argv, 1);
  const auto flag = [&](const char* name) -> std::string {
    if (!flags.ok()) return "";
    auto it = flags->find(name);
    return it == flags->end() ? "" : it->second;
  };
  const std::string workload = flag("workload");
  const std::string workdir = flag("workdir");
  const double seconds = std::atof(flag("seconds").c_str());
  const uint64_t seed = std::strtoull(flag("seed").c_str(), nullptr, 10);
  const bool trace = flag("trace") == "1";
  if (!flags.ok() || workdir.empty() || seconds <= 0 ||
      (workload != "mine" && workload != "serve" && workload != "churn")) {
    std::fprintf(stderr,
                 "usage: gpar_pipeline --workload mine|serve|churn --seed N "
                 "--seconds S --trace 0|1 --workdir DIR\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(workdir, ec);

  LayerTimes lt(trace);
  Counters c;
  std::vector<double> setup_s;
  Pipeline p;
  for (int i = 0; i < kSetUpRepeats; ++i) {
    CollectStats(p, c);
    p = Pipeline{};
    const Timer t;
    const Status s = SetUp(seed, workdir, lt, c, p);
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      return 1;
    }
    setup_s.push_back(t.Seconds());
  }

  Outcome out;
  std::unordered_map<NodeId, std::vector<uint32_t>> rows;
  auto checked = CheckRouter(p);
  if (checked.ok()) {
    rows = std::move(checked).value();
  } else {
    out.Wrong(checked.status().ToString());
  }
  if (out.correct) {
    if (workload == "mine") {
      RunMine(seconds, lt, c, p, out);
    } else if (workload == "serve") {
      RunServe(seed, seconds, lt, rows, p, out);
    } else {
      RunChurn(seconds, lt, c, p, out);
    }
  }
  if (out.correct) {
    const Status s = workload == "churn" ? CheckChurn(p) : CheckServedRules(p);
    if (!s.ok()) out.Wrong(s.ToString());
  }
  CollectStats(p, c);

  std::fprintf(stderr,
               "%s seed %llu: %llu ops, %llu failed, correct %s, set-up "
               "%.3fs (median of %d)%s%s\n",
               workload.c_str(), static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(out.attempted),
               static_cast<unsigned long long>(out.failed),
               out.correct ? "yes" : "no", Quantile(setup_s, 0.5),
               kSetUpRepeats, out.error.empty() ? "" : "; ",
               out.error.c_str());
  PrintResult(out, trace ? PerLayerMetrics(lt, c)
                         : EndToEndMetrics(out, setup_s));
  return 0;
}
