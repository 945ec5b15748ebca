#include "serve/rule_server.h"

#include <algorithm>
#include <bit>
#include <unordered_set>
#include <utility>

#include "common/failpoint.h"
#include "common/timer.h"
#include "pattern/pattern_ops.h"

namespace gpar {

namespace {

constexpr uint8_t kQKnown = 1;
constexpr uint8_t kQIsQ = 2;
constexpr uint8_t kQIsQbar = 4;

bool GetBit(const std::vector<uint64_t>& words, size_t i) {
  return (words[i >> 6] >> (i & 63)) & 1;
}
void SetBit(std::vector<uint64_t>* words, size_t i) {
  (*words)[i >> 6] |= uint64_t{1} << (i & 63);
}
void ClearBit(std::vector<uint64_t>* words, size_t i) {
  (*words)[i >> 6] &= ~(uint64_t{1} << (i & 63));
}
/// Whether a cache entry still holds something worth keeping.
bool HoldsAnything(uint8_t qclass, const std::vector<uint64_t>& known) {
  return (qclass & kQKnown) != 0 ||
         std::any_of(known.begin(), known.end(),
                     [](uint64_t w) { return w != 0; });
}

}  // namespace

RuleServer::RuleServer(std::vector<RuleRecord> rules,
                       const RuleServerOptions& options)
    : options_(options),
      initial_records_(std::move(rules)),
      pool_(std::max(1u, options.num_workers)) {
  options_.num_workers = pool_.num_threads();
}

Result<std::unique_ptr<RuleServer>> RuleServer::Create(
    Graph g, std::vector<RuleRecord> rules, const RuleServerOptions& options) {
  auto graph = std::make_shared<const Graph>(std::move(g));
  std::unique_ptr<RuleServer> server(
      new RuleServer(std::move(rules), options));
  server->interner_ = graph->labels_ptr();
  GPAR_RETURN_NOT_OK(server->Init(std::move(graph)));
  return server;
}

Result<std::unique_ptr<RuleServer>> RuleServer::CreateShard(
    std::shared_ptr<const Graph> graph, std::vector<NodeId> owned_centers,
    std::vector<RuleRecord> rules, const RuleServerOptions& options) {
  if (graph == nullptr) {
    return Status::InvalidArgument("shard graph must not be null");
  }
  std::unique_ptr<RuleServer> server(
      new RuleServer(std::move(rules), options));
  server->read_only_ = true;
  server->interner_ = graph->labels_ptr();
  std::sort(owned_centers.begin(), owned_centers.end());
  owned_centers.erase(
      std::unique(owned_centers.begin(), owned_centers.end()),
      owned_centers.end());
  server->candidates_ = std::move(owned_centers);
  GPAR_RETURN_NOT_OK(server->Init(std::move(graph)));
  return server;
}

Status RuleServer::Init(std::shared_ptr<const Graph> g) {
  std::shared_ptr<const RuleSet> rules =
      BuildRuleSet(std::move(initial_records_));
  auto info = ValidateSigma(rules->sigma);
  if (!info.ok()) return info.status();
  q_ = info->q;
  pq_ = q_.ToPattern();
  if (!is_shard()) {
    auto span = g->nodes_with_label(q_.x_label);
    candidates_.assign(span.begin(), span.end());
  } else {
    for (NodeId c : candidates_) {
      if (c >= g->num_nodes()) {
        return Status::InvalidArgument("owned center out of range");
      }
    }
  }

  auto st = std::make_shared<State>();
  st->graph = std::move(g);
  st->rules = std::move(rules);
  // Other-component satisfiability is a WHOLE-graph property (components
  // not containing x match anywhere), computed once per generation.
  st->other_ok = OtherComponentsOk(*st->graph, st->rules->sigma);
  st->plan_store = std::make_unique<SearchPlanStore>(*st->graph);
  PreparePlans(st->plan_store.get(), *st->rules);

  // Init runs single-threaded, but `state_` is guarded and the lock is
  // uncontended — take it rather than poke an analysis hole.
  MutexLock lock(state_mu_);
  state_ = std::move(st);
  return Status::OK();
}

std::shared_ptr<const RuleServer::RuleSet> RuleServer::BuildRuleSet(
    std::vector<RuleRecord> records) {
  auto rs = std::make_shared<RuleSet>();
  rs->records = std::move(records);
  rs->sigma.reserve(rs->records.size());
  for (const RuleRecord& r : rs->records) rs->sigma.push_back(r.rule);
  rs->all_ok.assign(rs->sigma.size(), 1);
  for (const Gpar& r : rs->sigma) {
    if (!r.other_components().empty()) rs->has_other_components = true;
    rs->radius = std::max(rs->radius, r.eval_radius());
  }
  return rs;
}

void RuleServer::PreparePlans(SearchPlanStore* store,
                              const RuleSet& rules) const {
  // Anchored at x, the only anchor serving ever uses; planned once per
  // state and shared by every matching context of that generation.
  auto prepare_at_x = [store](const Pattern& p) {
    PNodeId x = p.x();
    store->Prepare(p, std::span<const PNodeId>(&x, 1));
  };
  prepare_at_x(pq_);
  for (const Gpar& r : rules.sigma) {
    prepare_at_x(r.pr());
    prepare_at_x(r.x_component());
    for (const Pattern& comp : r.other_components()) {
      store->Prepare(comp, {});
    }
  }
}

std::unique_ptr<RuleServer::WorkerCtx> RuleServer::BuildCtx(
    const State& st) const {
  auto ctx = std::make_unique<WorkerCtx>();
  ctx->evaluator = MakeMatchEvaluator(*st.graph, st.rules->sigma,
                                      st.rules->all_ok, st.plan_store.get());
  ctx->matcher = std::make_unique<VF2Matcher>(*st.graph);
  ctx->matcher->set_plan_store(st.plan_store.get());
  return ctx;
}

std::unique_ptr<RuleServer::WorkerCtx> RuleServer::AcquireCtx(
    const State& st) const {
  {
    MutexLock lock(st.ctx_mu);
    if (!st.free_ctxs.empty()) {
      auto ctx = std::move(st.free_ctxs.back());
      st.free_ctxs.pop_back();
      return ctx;
    }
  }
  return BuildCtx(st);
}

void RuleServer::ReleaseCtx(const State& st,
                            std::unique_ptr<WorkerCtx> ctx) const {
  MutexLock lock(st.ctx_mu);
  st.free_ctxs.push_back(std::move(ctx));
}

std::shared_ptr<const RuleServer::State> RuleServer::AcquireState() const {
  MutexLock lock(state_mu_);
  return state_;
}

size_t RuleServer::max_cached_centers(const RuleSet& rules) const {
  size_t per_center = std::max<size_t>(rules.sigma.size(), 1);
  return std::max<size_t>(options_.cache_capacity / per_center, 1);
}

RuleServer::CacheShard& RuleServer::ShardFor(NodeId center) {
  const uint64_t h = (static_cast<uint64_t>(center) * 0x9E3779B97F4A7C15ull);
  return match_cache_[(h >> 32) % kCacheShards];
}

void RuleServer::EvaluateItem(const State& st, WorkerCtx& ctx,
                              WorkItem& item) const {
  const NodeId v = item.center;
  uint8_t qc = item.qclass_in;
  if ((qc & kQKnown) == 0) {
    bool is_q = ctx.matcher->ExistsAt(pq_, v);
    bool is_qbar = !is_q && st.graph->HasOutLabel(v, q_.edge_label);
    qc = kQKnown | (is_q ? kQIsQ : 0) | (is_qbar ? kQIsQbar : 0);
  }
  item.qclass_out = qc;
  const bool is_q = (qc & kQIsQ) != 0;
  const bool is_qbar = (qc & kQIsQbar) != 0;
  if (item.full) {
    std::vector<char> in_pr, in_q;
    ctx.evaluator->Evaluate(v, is_q, is_qbar, /*need_q_membership=*/true,
                            &in_pr, &in_q);
    for (size_t i = 0; i < st.rules->sigma.size(); ++i) {
      SetBit(&item.probed, i);
      if (in_q[i]) SetBit(&item.in_q, i);
      if (in_pr[i]) SetBit(&item.in_pr, i);
    }
  } else {
    for (uint32_t ri : item.rules) {
      const Gpar& r = st.rules->sigma[ri];
      // P_R contains the consequent edge, so only q-match centers can hold
      // it; a P_R match implies antecedent membership (its restriction to
      // Q's nodes is a Q-match), saving the second probe.
      bool pr = is_q && ctx.matcher->ExistsAt(r.pr(), v);
      bool qm = pr || ctx.matcher->ExistsAt(r.x_component(), v);
      SetBit(&item.probed, ri);
      if (qm) SetBit(&item.in_q, ri);
      if (pr) SetBit(&item.in_pr, ri);
    }
  }
}

Status RuleServer::EnsureRows(const State& st, std::span<const NodeId> centers,
                              const std::vector<uint32_t>& selected,
                              std::unordered_map<NodeId, Row>* rows,
                              ServeStats* stats) {
  const size_t words = rule_words(*st.rules);
  std::vector<WorkItem> items;

  for (NodeId c : centers) {
    if (c >= st.graph->num_nodes()) {
      return Status::InvalidArgument("center id " + std::to_string(c) +
                                     " out of range");
    }
    if (rows->count(c) > 0) continue;  // duplicate within this request
    Row& row = (*rows)[c];
    row.in_q.assign(words, 0);
    row.in_pr.assign(words, 0);

    std::vector<uint32_t> missing;
    uint8_t qclass = 0;
    {
      CacheShard& sh = ShardFor(c);
      MutexLock lock(sh.mu);
      auto cit = sh.map.find(c);
      // An entry stamped outside this state's window holds another rule
      // set's indices, or memberships of a graph newer than this reader's:
      // a miss.
      if (cit != sh.map.end() && Answers(cit->second, st)) {
        CenterEntry& e = cit->second;
        qclass = e.qclass;
        for (uint32_t ri : selected) {
          if (GetBit(e.known, ri)) {
            ++stats->cache_hits;
            if (GetBit(e.in_q, ri)) SetBit(&row.in_q, ri);
            if (GetBit(e.in_pr, ri)) SetBit(&row.in_pr, ri);
          } else {
            missing.push_back(ri);
          }
        }
        sh.lru.splice(sh.lru.begin(), sh.lru, e.lru_it);
      } else {
        missing = selected;
      }
    }
    row.qclass = qclass;
    if (missing.empty() && (qclass & kQKnown) != 0) continue;

    WorkItem item;
    item.center = c;
    item.qclass_in = qclass;
    item.full = missing.size() == st.rules->sigma.size();
    if (!item.full) item.rules = std::move(missing);
    item.in_q.assign(words, 0);
    item.in_pr.assign(words, 0);
    item.probed.assign(words, 0);
    items.push_back(std::move(item));
  }

  if (!items.empty()) {
    stats->centers_evaluated += items.size();
    const uint32_t m = static_cast<uint32_t>(
        std::min<size_t>(options_.num_workers, items.size()));
    std::vector<std::unique_ptr<WorkerCtx>> ctxs(m);
    for (auto& c : ctxs) c = AcquireCtx(st);
    ParallelFor(pool_, m, [this, &st, &items, &ctxs, m](uint32_t w) {
      const size_t begin = items.size() * w / m;
      const size_t end = items.size() * (w + 1) / m;
      for (size_t i = begin; i < end; ++i) {
        EvaluateItem(st, *ctxs[w], items[i]);
      }
    });
    for (auto& c : ctxs) ReleaseCtx(st, std::move(c));
  }

  const size_t shard_cap =
      std::max<size_t>(max_cached_centers(*st.rules) / kCacheShards, 1);
  for (WorkItem& item : items) {
    Row& row = (*rows)[item.center];
    row.qclass = item.qclass_out;
    for (size_t w = 0; w < words; ++w) {
      row.in_q[w] |= item.in_q[w];
      row.in_pr[w] |= item.in_pr[w];
      stats->cache_probes += std::popcount(item.probed[w]);
    }
    CacheShard& sh = ShardFor(item.center);
    MutexLock lock(sh.mu);
    // Write back only results computed on the CURRENT epoch. A swap stores
    // the new epoch BEFORE its invalidation walk, so a stale reader either
    // inserts before the walk (and gets invalidated by it) or sees the new
    // epoch here and skips — stale memberships can never outlive the walk.
    if (epoch_.load(std::memory_order_acquire) != st.epoch) continue;
    auto [cit, inserted] = sh.map.try_emplace(item.center);
    CenterEntry& e = cit->second;
    if (inserted) {
      sh.lru.push_front(item.center);
      e.lru_it = sh.lru.begin();
    }
    if (inserted || !Answers(e, st)) {
      e.known.assign(words, 0);
      e.in_q.assign(words, 0);
      e.in_pr.assign(words, 0);
    }
    e.epoch = st.epoch;
    e.qclass = item.qclass_out;
    for (size_t w = 0; w < words; ++w) {
      // Probed bits overwrite (an invalidated bit may hold a stale value);
      // the rest keep their cached values.
      e.in_q[w] = (e.in_q[w] & ~item.probed[w]) | item.in_q[w];
      e.in_pr[w] = (e.in_pr[w] & ~item.probed[w]) | item.in_pr[w];
      e.known[w] |= item.probed[w];
    }
    sh.lru.splice(sh.lru.begin(), sh.lru, e.lru_it);
    while (sh.map.size() > shard_cap) {
      NodeId victim = sh.lru.back();
      sh.lru.pop_back();
      sh.map.erase(victim);
    }
  }
  return Status::OK();
}

Result<SessionReply> RuleServer::Query(const SessionRequest& request) {
  if (is_shard()) {
    // Simulated shard failure on the query path — what the router's
    // degraded mode and per-request retries are tested against.
    GPAR_FAILPOINT("shard.query");
  }
  Timer timer;
  // Pin the state FIRST: the selection must be normalized against the same
  // rule set the request will match with, or a racing rule refresh could
  // hand back indices into the wrong set.
  const std::shared_ptr<const State> st = AcquireState();
  GPAR_ASSIGN_OR_RETURN(std::vector<uint32_t> selected,
                        ValidateRequest(request, st->rules->sigma.size()));
  const std::span<const NodeId> centers =
      request.all_centers ? std::span<const NodeId>(candidates_)
                          : std::span<const NodeId>(request.centers);

  SessionReply reply;
  reply.stats.requests = 1;
  std::unordered_map<NodeId, Row> rows;
  GPAR_RETURN_NOT_OK(EnsureRows(*st, centers, selected, &rows, &reply.stats));

  reply.matched.reserve(centers.size());
  for (NodeId c : centers) {
    const Row& row = rows.at(c);
    std::vector<uint32_t> m;
    for (uint32_t ri : selected) {
      bool hit = request.require_consequent
                     ? GetBit(row.in_pr, ri)
                     : (GetBit(row.in_q, ri) && st->other_ok[ri] != 0);
      if (hit) m.push_back(ri);
    }
    reply.matched.push_back(std::move(m));
  }

  if (request.all_centers) {
    // Candidate-major assembly: one row lookup per center, all rule bits
    // read inline (the warm path is lookup-bound, not match-bound).
    reply.rule_evals.assign(st->rules->sigma.size(), {});
    for (NodeId c : candidates_) {
      const Row& row = rows.at(c);
      if (row.qclass & kQIsQ) ++reply.supp_q;
      const bool is_qbar = (row.qclass & kQIsQbar) != 0;
      if (is_qbar) ++reply.supp_qbar;
      for (uint32_t ri : selected) {
        EipRuleEval& ev = reply.rule_evals[ri];
        if (GetBit(row.in_pr, ri)) ++ev.supp_r;
        if (is_qbar && GetBit(row.in_q, ri) && st->other_ok[ri] != 0) {
          ++ev.supp_qqbar;
        }
      }
    }
  }
  AssembleEntities(request, selected, centers, &reply);

  reply.stats.latency_seconds = timer.Seconds();
  lifetime_.Record(reply.stats);
  return reply;
}

Status RuleServer::PublishDelta(DeltaCommit* commit) {
  if (!commit->changes_graph()) {
    // A replayed floor marker changes nothing a reader can see.
    commit->published = true;
    return Status::OK();
  }
  const std::shared_ptr<const State> st = AcquireState();
  // Maintain-on-ApplyDelta: the pass runs before the swap, so queries
  // observe the new graph together with the rule set that is fresh for it.
  std::vector<RuleRecord> top_k;
  GPAR_ASSIGN_OR_RETURN(const bool maintained, MaintainPass(*commit, &top_k));
  std::shared_ptr<const RuleSet> new_rules;
  if (maintained && top_k != st->rules->records) {
    new_rules = BuildRuleSet(std::move(top_k));
    commit->stats.rules_refreshed = 1;
  }
  SwapStateAndInvalidate(*st, commit->new_graph, commit->frame.inserts,
                         commit->frame.deletes, &commit->stats,
                         std::move(new_rules));
  commit->published = true;
  return Status::OK();
}

Result<DeltaStats> RuleServer::ApplyShardDelta(
    std::shared_ptr<const Graph> new_graph, std::string_view delta_bytes) {
  if (!is_shard()) {
    return Status::InvalidArgument(
        "ApplyShardDelta is only for shard servers");
  }
  if (new_graph == nullptr) {
    return Status::InvalidArgument("shard delta graph must not be null");
  }
  GPAR_ASSIGN_OR_RETURN(GraphDelta delta,
                        GraphDelta::Deserialize(delta_bytes));
  // Simulated shard failure during ingestion — the router's retry and
  // resync paths are exercised by arming this site.
  GPAR_FAILPOINT("shard.apply_delta");
  MutexLock writer(writer_mu_);
  Timer timer;
  DeltaStats ds;
  // Shards share the router's dictionary, so the defs usually verify as
  // no-ops — but a shard brought up against an older snapshot (sharded
  // recovery) interns here, keeping the wire self-contained.
  GPAR_RETURN_NOT_OK(ApplyLabelDefs(delta, interner_.get()));
  ds.wire_bytes = delta_bytes.size();
  if (delta.sequence != 0 && delta.sequence <= shard_sequence_) {
    // Already applied: a router retry of an acknowledged-then-failed ship
    // must be a no-op, never a double-apply.
    ds.sequence = delta.sequence;
    ds.seconds = timer.Seconds();
    return ds;
  }
  const std::shared_ptr<const State> st = AcquireState();
  // The router ships only the mutations that actually changed the parent
  // graph (GraphPatch::applied / applied_deletes), already validated
  // against it.
  ds.edges_inserted = delta.inserts.size();
  ds.edges_deleted = delta.deletes.size();
  if (!delta.inserts.empty() || !delta.deletes.empty()) {
    SwapStateAndInvalidate(*st, std::move(new_graph), delta.inserts,
                           delta.deletes, &ds);
  }
  if (delta.sequence != 0) shard_sequence_ = delta.sequence;
  ds.sequence = delta.sequence;
  ds.seconds = timer.Seconds();
  return ds;
}

uint64_t RuleServer::shard_sequence() const {
  MutexLock writer(writer_mu_);
  return shard_sequence_;
}

std::vector<RuleRecord> RuleServer::rules() const {
  return AcquireState()->rules->records;
}

Status RuleServer::PublishRules(std::vector<RuleRecord> rules,
                                DeltaStats* ds) {
  const std::shared_ptr<const State> st = AcquireState();
  if (rules == st->rules->records) return Status::OK();
  SwapStateAndInvalidate(*st, st->graph, {}, {}, ds,
                         BuildRuleSet(std::move(rules)));
  ds->rules_refreshed = 1;
  return Status::OK();
}

void RuleServer::SwapStateAndInvalidate(
    const State& old, std::shared_ptr<const Graph> new_graph,
    std::span<const EdgeInsert> applied, std::span<const EdgeDelete> deleted,
    DeltaStats* ds, std::shared_ptr<const RuleSet> new_rules) {
  const bool rules_changed = new_rules != nullptr;
  auto next = std::make_shared<State>();
  next->epoch = old.epoch + 1;
  next->graph = std::move(new_graph);
  next->rules = rules_changed ? std::move(new_rules) : old.rules;
  next->rules_epoch = rules_changed ? next->epoch : old.rules_epoch;

  // The delta-affected region (shared with the rule maintainer's evidence
  // patching) to the radius cached memberships can reach: they go stale
  // within d(R) hops. Deletions make reach non-monotone, so the helper also
  // sweeps the pre-delete graph and unions at minimum distance.
  const auto touched = DeltaAffectedRegion(*old.graph, *next->graph, applied,
                                           deleted, next->rules->radius);

  // Components not containing x can match anywhere, so any mutation can
  // flip their satisfiability globally (in either direction, once deletes
  // are in play); the raw cached antecedent bits deliberately exclude this
  // factor, so recomputing it here never touches the cache.
  next->other_ok = (rules_changed || next->rules->has_other_components)
                       ? OtherComponentsOk(*next->graph, next->rules->sigma)
                       : old.other_ok;
  next->plan_store = std::make_unique<SearchPlanStore>(*next->graph);
  PreparePlans(next->plan_store.get(), *next->rules);

  // Epoch, THEN the cache, THEN the state. Storing the epoch first stops
  // every writeback of an older reader that has not passed its check yet;
  // one that has, wrote before the walk below took its shard lock, so the
  // walk sees it (see EnsureRows). Publishing the state last means no
  // reader of the new generation can hit an entry the walk has not
  // reached, and a reader of the old one never accepts a remapped entry —
  // its stamp is past that reader's epoch.
  epoch_.store(next->epoch, std::memory_order_release);
  if (rules_changed) RemapCache(old, *next, ds);
  InvalidateTouched(old, *next, touched, applied, deleted, ds);
  MutexLock lock(state_mu_);
  state_ = std::move(next);
}

void RuleServer::RemapCache(const State& old, const State& next,
                            DeltaStats* ds) {
  // Cached bits are raw P_R / antecedent memberships: a function of the
  // pattern and the graph only. A rule of the new set carries the bits of
  // the old rule with the same pattern (Gpar equality, indexed by
  // StructuralHash as the maintainer matches prior evidence); bits of
  // retired rules are dropped.
  constexpr uint32_t kRetired = static_cast<uint32_t>(-1);
  const std::vector<Gpar>& from = old.rules->sigma;
  const std::vector<Gpar>& to = next.rules->sigma;
  std::unordered_map<uint64_t, std::vector<uint32_t>> index;
  for (uint32_t i = 0; i < from.size(); ++i) {
    index[StructuralHash(from[i].pr())].push_back(i);
  }
  std::vector<uint32_t> source(to.size(), kRetired);
  std::vector<char> kept(from.size(), 0);
  for (uint32_t j = 0; j < to.size(); ++j) {
    auto it = index.find(StructuralHash(to[j].pr()));
    if (it == index.end()) continue;
    for (uint32_t i : it->second) {
      if (from[i] == to[j]) {
        source[j] = i;
        kept[i] = 1;
        ++ds->rules_carried;
        break;
      }
    }
  }

  const size_t words = rule_words(*next.rules);
  for (CacheShard& sh : match_cache_) {
    MutexLock lock(sh.mu);
    for (auto it = sh.map.begin(); it != sh.map.end();) {
      CenterEntry& e = it->second;
      bool keep = Answers(e, old);
      if (keep) {
        std::vector<uint64_t> known(words, 0), in_q(words, 0), in_pr(words, 0);
        for (size_t i = 0; i < from.size(); ++i) {
          if (GetBit(e.known, i) && !kept[i]) ++ds->memberships_invalidated;
        }
        for (size_t j = 0; j < to.size(); ++j) {
          const uint32_t i = source[j];
          if (i == kRetired || !GetBit(e.known, i)) continue;
          SetBit(&known, j);
          if (GetBit(e.in_q, i)) SetBit(&in_q, j);
          if (GetBit(e.in_pr, i)) SetBit(&in_pr, j);
        }
        e.known = std::move(known);
        e.in_q = std::move(in_q);
        e.in_pr = std::move(in_pr);
        e.epoch = next.epoch;
        keep = HoldsAnything(e.qclass, e.known);
      }
      if (keep) {
        ++it;
      } else {
        sh.lru.erase(e.lru_it);
        it = sh.map.erase(it);
      }
    }
  }
}

void RuleServer::InvalidateTouched(
    const State& old, const State& next,
    std::span<const std::pair<NodeId, uint32_t>> touched,
    std::span<const EdgeInsert> applied, std::span<const EdgeDelete> deleted,
    DeltaStats* ds) {
  if (touched.empty()) return;
  // q-class depends only on the center's own q-labeled out-edges.
  std::unordered_set<NodeId> q_sources;
  for (const EdgeInsert& e : applied) {
    if (e.label == q_.edge_label) q_sources.insert(e.src);
  }
  for (const EdgeDelete& e : deleted) {
    if (e.label == q_.edge_label) q_sources.insert(e.src);
  }

  // Per rule and pattern, the reach of the delta edges whose label triple
  // the pattern uses: deletes on the old graph, inserts on the new one.
  struct Reach {
    const std::vector<uint32_t>* lost;
    const std::vector<uint32_t>* gained;
    /// Whether the delta can have flipped a cached answer `member` of v.
    bool Flips(bool member, NodeId v, uint32_t radius) const {
      const std::vector<uint32_t>* d = member ? lost : gained;
      return d != nullptr && (*d)[v] <= radius;
    }
  };
  const std::vector<Gpar>& sigma = next.rules->sigma;
  DeltaReach lost(*old.graph, deleted, next.rules->radius);
  DeltaReach gained(*next.graph, applied, next.rules->radius);
  std::vector<Reach> pr_reach, q_reach;
  for (const Gpar& r : sigma) {
    pr_reach.push_back({lost.For(r.pr()), gained.For(r.pr())});
    q_reach.push_back({lost.For(r.x_component()), gained.For(r.x_component())});
  }

  for (const auto& [v, dist] : touched) {
    CacheShard& sh = ShardFor(v);
    MutexLock lock(sh.mu);
    auto cit = sh.map.find(v);
    if (cit == sh.map.end()) continue;
    CenterEntry& e = cit->second;
    if (!Answers(e, next)) continue;  // unreadable under `next` anyway
    for (size_t ri = 0; ri < sigma.size(); ++ri) {
      const uint32_t radius = sigma[ri].eval_radius();
      if (dist > radius || !GetBit(e.known, ri)) continue;
      if (pr_reach[ri].Flips(GetBit(e.in_pr, ri), v, radius) ||
          q_reach[ri].Flips(GetBit(e.in_q, ri), v, radius)) {
        ClearBit(&e.known, ri);
        ++ds->memberships_invalidated;
      }
    }
    if ((e.qclass & kQKnown) != 0 && q_sources.count(v) > 0) {
      e.qclass = 0;
      ++ds->qclass_invalidated;
    }
    if (!HoldsAnything(e.qclass, e.known)) {
      sh.lru.erase(e.lru_it);
      sh.map.erase(cit);
    }
  }
}

std::shared_ptr<const Graph> RuleServer::graph_snapshot() const {
  return AcquireState()->graph;
}

size_t RuleServer::cached_centers() const {
  size_t total = 0;
  for (const CacheShard& sh : match_cache_) {
    MutexLock lock(sh.mu);
    total += sh.map.size();
  }
  return total;
}

size_t RuleServer::plans_prepared() const {
  return AcquireState()->plan_store->patterns_planned();
}

}  // namespace gpar
