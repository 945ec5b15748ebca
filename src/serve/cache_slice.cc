#include "serve/cache_slice.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "common/bits.h"
#include "common/timer.h"
#include "pattern/pattern_ops.h"

namespace gpar {

namespace {

constexpr uint8_t kQKnown = 1;
constexpr uint8_t kQIsQ = 2;
constexpr uint8_t kQIsQbar = 4;

bool GetBit(std::span<const uint64_t> words, size_t i) {
  return (words[i >> 6] >> (i & 63)) & 1;
}
void SetBit(std::span<uint64_t> words, size_t i) {
  words[i >> 6] |= uint64_t{1} << (i & 63);
}
void ClearBit(std::span<uint64_t> words, size_t i) {
  words[i >> 6] &= ~(uint64_t{1} << (i & 63));
}

std::unique_ptr<WorkerCtx> AcquireCtx(const Generation& st) {
  {
    MutexLock lock(st.ctx_mu);
    if (!st.free_ctxs.empty()) {
      auto ctx = std::move(st.free_ctxs.back());
      st.free_ctxs.pop_back();
      return ctx;
    }
  }
  auto ctx = std::make_unique<WorkerCtx>();
  ctx->evaluator = MakeMatchEvaluator(*st.graph, st.rules->sigma,
                                      st.rules->all_ok, st.plan_store.get());
  ctx->matcher = std::make_unique<VF2Matcher>(*st.graph);
  ctx->matcher->set_plan_store(st.plan_store.get());
  return ctx;
}

void ReleaseCtx(const Generation& st, std::unique_ptr<WorkerCtx> ctx) {
  MutexLock lock(st.ctx_mu);
  st.free_ctxs.push_back(std::move(ctx));
}

}  // namespace

std::shared_ptr<const ServedRules> BuildServedRules(
    std::vector<RuleRecord> records) {
  auto rs = std::make_shared<ServedRules>();
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

std::shared_ptr<const Generation> DeriveGeneration(
    const Pattern& pq, const Generation* prev,
    std::shared_ptr<const Graph> graph,
    std::shared_ptr<const ServedRules> rules) {
  // Built apart from its control block (not make_shared): every query
  // copies the pointer, and a count beside the fields would put their
  // cache line under every reader's concurrent count updates.
  auto next = std::make_unique<Generation>();
  const bool same_rules = prev != nullptr && rules == prev->rules;
  next->epoch = prev != nullptr ? prev->epoch + 1 : 0;
  next->rules_epoch = same_rules ? prev->rules_epoch : next->epoch;
  next->graph = std::move(graph);
  next->rules = std::move(rules);
  // Components not containing x can match anywhere, so any mutation can
  // flip their satisfiability globally (in either direction, once deletes
  // are in play); the raw cached antecedent bits deliberately exclude this
  // factor, so recomputing it here never touches a cache.
  next->other_ok = same_rules && !next->rules->has_other_components
                       ? prev->other_ok
                       : OtherComponentsOk(*next->graph, next->rules->sigma);
  // Anchored at x, the only anchor serving ever uses; planned once per
  // generation and shared by every matching context of it.
  next->plan_store = std::make_unique<SearchPlanStore>(*next->graph);
  SearchPlanStore& store = *next->plan_store;
  auto prepare_at_x = [&store](const Pattern& p) {
    PNodeId x = p.x();
    store.Prepare(p, std::span<const PNodeId>(&x, 1));
  };
  prepare_at_x(pq);
  for (const Gpar& r : next->rules->sigma) {
    prepare_at_x(r.pr());
    prepare_at_x(r.x_component());
    for (const Pattern& comp : r.other_components()) store.Prepare(comp, {});
  }
  return next;
}

GenerationChange::GenerationChange(const Predicate& q, const Generation& old,
                                   const Generation& next,
                                   DeltaFootprint* footprint)
    : old_(old), next_(next), rules_changed_(next.rules != old.rules) {
  const std::vector<Gpar>& to = next.rules->sigma;
  if (rules_changed_) {
    // A rule of the new set carries the bits of the old rule with the same
    // pattern (Gpar equality, indexed by StructuralHash as the maintainer
    // matches prior evidence); bits of retired rules are dropped.
    const std::vector<Gpar>& from = old.rules->sigma;
    std::unordered_map<uint64_t, std::vector<uint32_t>> index;
    for (uint32_t i = 0; i < from.size(); ++i) {
      index[StructuralHash(from[i].pr())].push_back(i);
    }
    source_.assign(to.size(), kRetired);
    kept_.assign(from.size(), 0);
    for (uint32_t j = 0; j < to.size(); ++j) {
      auto it = index.find(StructuralHash(to[j].pr()));
      if (it == index.end()) continue;
      for (uint32_t i : it->second) {
        if (from[i] == to[j]) {
          source_[j] = i;
          kept_[i] = 1;
          ++rules_carried_;
          break;
        }
      }
    }
  }
  if (footprint == nullptr || footprint->region.empty()) return;
  touched_ = footprint->region;
  // q-class depends only on the center's own q-labeled out-edges.
  for (const EdgeInsert& e : footprint->inserts) {
    if (e.label == q.edge_label) q_sources_.insert(e.src);
  }
  for (const EdgeDelete& e : footprint->deletes) {
    if (e.label == q.edge_label) q_sources_.insert(e.src);
  }
  // Per rule and pattern, the reach of the delta edges whose label triple
  // the pattern uses: deletes on the old graph, inserts on the new one.
  // The maintainer's pass may have built them already.
  DeltaReach& lost = footprint->lost;
  DeltaReach& gained = footprint->gained;
  for (const Gpar& r : to) {
    pr_reach_.push_back({lost.For(r.pr()), gained.For(r.pr())});
    q_reach_.push_back(
        {lost.For(r.x_component()), gained.For(r.x_component())});
  }
}

CacheSlice::CacheSlice(const Predicate& q, std::vector<NodeId> candidates,
                       const RuleServerOptions& options)
    : q_(q),
      pq_(q.ToPattern()),
      candidates_(std::move(candidates)),
      pool_(std::max(1u, options.num_workers)) {
  for (uint32_t i = 0; i < kStripes; ++i) {
    MutexLock lock(stripes_[i].mu);
    stripes_[i].entries.resize((candidates_.size() + kStripes - 1 - i) /
                               kStripes);
  }
}

size_t CacheSlice::cached_centers() const {
  size_t total = 0;
  for (const Stripe& sh : stripes_) {
    MutexLock lock(sh.mu);
    for (const CenterEntry& e : sh.entries) {
      if ((e.qclass & kQKnown) != 0 ||
          std::any_of(e.known.begin(), e.known.end(),
                      [](uint64_t w) { return w != 0; })) {
        ++total;
      }
    }
  }
  return total;
}

void CacheSlice::EvaluateItem(const Generation& st, WorkerCtx& ctx,
                              WorkItem& item) const {
  const NodeId v = candidates_[item.ordinal];
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
      SetBit(item.probed, i);
      if (in_q[i]) SetBit(item.in_q, i);
      if (in_pr[i]) SetBit(item.in_pr, i);
    }
  } else {
    for (uint32_t ri : item.rules) {
      const Gpar& r = st.rules->sigma[ri];
      // P_R contains the consequent edge, so only q-match centers can hold
      // it; a P_R match implies antecedent membership (its restriction to
      // Q's nodes is a Q-match), saving the second probe.
      bool pr = is_q && ctx.matcher->ExistsAt(r.pr(), v);
      bool qm = pr || ctx.matcher->ExistsAt(r.x_component(), v);
      SetBit(item.probed, ri);
      if (qm) SetBit(item.in_q, ri);
      if (pr) SetBit(item.in_pr, ri);
    }
  }
}

void CacheSlice::EnsureRows(const Generation& st,
                            std::span<const uint32_t> ordinals,
                            const std::vector<uint32_t>& selected, Rows* rows,
                            ServeStats* stats) {
  const size_t words = rule_words(*st.rules);
  rows->words = words;
  rows->qclass.assign(ordinals.size(), 0);
  rows->in_q.assign(ordinals.size() * words, 0);
  rows->in_pr.assign(ordinals.size() * words, 0);
  std::vector<WorkItem> items;

  for (size_t j = 0; j < ordinals.size(); ++j) {
    const uint32_t o = ordinals[j];
    std::vector<uint32_t> missing;
    uint8_t qclass = 0;
    {
      Stripe& sh = StripeOf(o);
      MutexLock lock(sh.mu);
      const CenterEntry& e = sh.entries[o / kStripes];
      // An entry stamped outside this generation's window holds another
      // rule set's indices, or memberships of a graph newer than this
      // reader's: a miss.
      if (Answers(e, st)) {
        qclass = e.qclass;
        const std::span<uint64_t> in_q = rows->Q(j), in_pr = rows->Pr(j);
        for (uint32_t ri : selected) {
          if (GetBit(e.known, ri)) {
            ++stats->cache_hits;
            if (GetBit(e.in_q, ri)) SetBit(in_q, ri);
            if (GetBit(e.in_pr, ri)) SetBit(in_pr, ri);
          } else {
            missing.push_back(ri);
          }
        }
      } else {
        missing = selected;
      }
    }
    rows->qclass[j] = qclass;
    if (missing.empty() && (qclass & kQKnown) != 0) continue;

    WorkItem item;
    item.ordinal = o;
    item.row = j;
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
        std::min<size_t>(pool_.num_threads(), items.size()));
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

  for (WorkItem& item : items) {
    rows->qclass[item.row] = item.qclass_out;
    const std::span<uint64_t> in_q = rows->Q(item.row);
    const std::span<uint64_t> in_pr = rows->Pr(item.row);
    for (size_t w = 0; w < words; ++w) {
      in_q[w] |= item.in_q[w];
      in_pr[w] |= item.in_pr[w];
      stats->cache_probes += PopCount(item.probed[w]);
    }
    Stripe& sh = StripeOf(item.ordinal);
    MutexLock lock(sh.mu);
    // Write back only results computed on the CURRENT epoch. Adopt stores
    // the new epoch BEFORE its walk, so a stale reader either writes
    // before the walk (and gets invalidated by it) or sees the new epoch
    // here and skips — stale memberships can never outlive the walk.
    if (epoch_.load(std::memory_order_acquire) != st.epoch) continue;
    CenterEntry& e = sh.entries[item.ordinal / kStripes];
    if (!Answers(e, st)) {
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
  }
}

void CacheSlice::Answer(const Generation& st, const SessionRequest& request,
                        std::span<const uint32_t> ordinals,
                        const std::vector<uint32_t>& selected,
                        SessionReply* reply) {
  Timer timer;
  std::vector<uint32_t> every;
  if (request.all_centers) {
    every.resize(candidates_.size());
    std::iota(every.begin(), every.end(), 0u);
    ordinals = every;
  }
  reply->stats.requests = 1;
  Rows rows;
  EnsureRows(st, ordinals, selected, &rows, &reply->stats);

  reply->matched.reserve(ordinals.size());
  for (size_t j = 0; j < ordinals.size(); ++j) {
    const std::span<const uint64_t> in_q = rows.Q(j), in_pr = rows.Pr(j);
    std::vector<uint32_t> m;
    for (uint32_t ri : selected) {
      bool hit = request.require_consequent
                     ? GetBit(in_pr, ri)
                     : (GetBit(in_q, ri) && st.other_ok[ri] != 0);
      if (hit) m.push_back(ri);
    }
    reply->matched.push_back(std::move(m));
  }

  if (request.all_centers) {
    // Candidate-major assembly: all rule bits of a row read inline (the
    // warm path is lookup-bound, not match-bound).
    reply->rule_evals.assign(st.rules->sigma.size(), {});
    for (size_t j = 0; j < ordinals.size(); ++j) {
      const std::span<const uint64_t> in_q = rows.Q(j), in_pr = rows.Pr(j);
      if (rows.qclass[j] & kQIsQ) ++reply->supp_q;
      const bool is_qbar = (rows.qclass[j] & kQIsQbar) != 0;
      if (is_qbar) ++reply->supp_qbar;
      for (uint32_t ri : selected) {
        EipRuleEval& ev = reply->rule_evals[ri];
        if (GetBit(in_pr, ri)) ++ev.supp_r;
        if (is_qbar && GetBit(in_q, ri) && st.other_ok[ri] != 0) {
          ++ev.supp_qqbar;
        }
      }
    }
  }
  reply->stats.latency_seconds = timer.Seconds();
  lifetime_.Record(reply->stats);
}

void CacheSlice::Adopt(const GenerationChange& change, DeltaStats* ds) {
  // Epoch, THEN the cache; the deployment publishes the generation after
  // every slice adopted it. Storing the epoch first stops every writeback
  // of an older reader that has not passed its check yet; one that has,
  // wrote before the walk below took its shard lock, so the walk sees it
  // (see EnsureRows). Publishing last means no reader of the new
  // generation can hit an entry a walk has not reached, and a reader of
  // the old one never accepts a remapped entry — its stamp is past that
  // reader's epoch.
  epoch_.store(change.next_.epoch, std::memory_order_release);
  if (change.rules_changed_) RemapCache(change, ds);
  InvalidateTouched(change, ds);
}

void CacheSlice::RemapCache(const GenerationChange& change, DeltaStats* ds) {
  const Generation& old = change.old_;
  const Generation& next = change.next_;
  const size_t from = old.rules->sigma.size();
  const size_t to = next.rules->sigma.size();
  const size_t words = rule_words(*next.rules);
  for (Stripe& sh : stripes_) {
    MutexLock lock(sh.mu);
    for (CenterEntry& e : sh.entries) {
      if (!Answers(e, old)) {
        e = CenterEntry{};
        continue;
      }
      std::vector<uint64_t> known(words, 0), in_q(words, 0), in_pr(words, 0);
      for (size_t i = 0; i < from; ++i) {
        if (GetBit(e.known, i) && !change.kept_[i]) {
          ++ds->memberships_invalidated;
        }
      }
      for (size_t j = 0; j < to; ++j) {
        const uint32_t i = change.source_[j];
        if (i == GenerationChange::kRetired || !GetBit(e.known, i)) continue;
        SetBit(known, j);
        if (GetBit(e.in_q, i)) SetBit(in_q, j);
        if (GetBit(e.in_pr, i)) SetBit(in_pr, j);
      }
      e.known = std::move(known);
      e.in_q = std::move(in_q);
      e.in_pr = std::move(in_pr);
      e.epoch = next.epoch;
    }
  }
}

void CacheSlice::InvalidateTouched(const GenerationChange& change,
                                   DeltaStats* ds) {
  const Generation& next = change.next_;
  const std::vector<Gpar>& sigma = next.rules->sigma;
  // Both lists are sorted by node: each touched candidate is found by a
  // binary search past the previous one.
  auto cand = candidates_.begin();
  for (const auto& [v, dist] : change.touched_) {
    cand = std::lower_bound(cand, candidates_.end(), v);
    if (cand == candidates_.end()) break;
    if (*cand != v) continue;
    const auto o = static_cast<uint32_t>(cand - candidates_.begin());
    Stripe& sh = StripeOf(o);
    MutexLock lock(sh.mu);
    CenterEntry& e = sh.entries[o / kStripes];
    if (!Answers(e, next)) continue;  // unreadable under `next` anyway
    for (size_t ri = 0; ri < sigma.size(); ++ri) {
      const uint32_t radius = sigma[ri].eval_radius();
      if (dist > radius || !GetBit(e.known, ri)) continue;
      if (change.pr_reach_[ri].Flips(GetBit(e.in_pr, ri), v, radius) ||
          change.q_reach_[ri].Flips(GetBit(e.in_q, ri), v, radius)) {
        ClearBit(e.known, ri);
        ++ds->memberships_invalidated;
      }
    }
    if ((e.qclass & kQKnown) != 0 && change.q_sources_.count(v) > 0) {
      e.qclass = 0;
      ++ds->qclass_invalidated;
    }
  }
}

void LifetimeStats::Record(const ServeStats& stats) {
  // Relaxed: pure monotonic counters; publishing request results does not
  // ride on these stores, so no release is needed.
  const auto add = [](std::atomic<uint64_t>& c, uint64_t v) {
    c.fetch_add(v, std::memory_order_relaxed);
  };
  add(requests_, stats.requests);
  add(cache_hits_, stats.cache_hits);
  add(cache_probes_, stats.cache_probes);
  add(centers_evaluated_, stats.centers_evaluated);
  add(latency_nanos_, static_cast<uint64_t>(stats.latency_seconds * 1e9));
}

ServeStats LifetimeStats::Snapshot() const {
  // Relaxed: each counter is independently monotonic and the snapshot is
  // advisory — a read torn ACROSS counters is acceptable, no ordering with
  // any other memory is implied.
  const auto get = [](const std::atomic<uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  ServeStats st;
  st.requests = get(requests_);
  st.cache_hits = get(cache_hits_);
  st.cache_probes = get(cache_probes_);
  st.centers_evaluated = get(centers_evaluated_);
  st.latency_seconds = static_cast<double>(get(latency_nanos_)) * 1e-9;
  return st;
}

}  // namespace gpar
