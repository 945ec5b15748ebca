#include "mine/inc_div.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "rule/diversity.h"

namespace gpar {

IncDiv::IncDiv(uint32_t k, double lambda, double n_norm)
    : k_(k), lambda_(lambda), n_norm_(n_norm), max_pairs_((k + 1) / 2) {}

const MatchBitset& IncDiv::BitsOf(const std::shared_ptr<MinedRule>& r) {
  auto [it, fresh] = bits_.try_emplace(r);
  if (fresh) it->second = ranks_.Encode(r->matches);
  return it->second;
}

double IncDiv::PairFPrime(const std::shared_ptr<MinedRule>& a,
                          const std::shared_ptr<MinedRule>& b) {
  return FPrime(a->conf, b->conf, BitsetJaccardDistance(BitsOf(a), BitsOf(b)),
                lambda_, n_norm_, k_);
}

bool IncDiv::UsedInQueue(const MinedRule* r) const {
  return in_queue_.count(r) > 0;
}

bool IncDiv::InQueue(const MinedRule* rule) const { return UsedInQueue(rule); }

void IncDiv::AddRound(const std::vector<std::shared_ptr<MinedRule>>& delta,
                      const std::vector<std::shared_ptr<MinedRule>>& sigma) {
  // Phase 1 — fill: while the queue holds < ⌈k/2⌉ pairs, greedily insert
  // the disjoint pair maximizing F'; at least one member must be new. Each
  // unordered pair is scored once per fill step: a both-new pair {a, b} is
  // visited only from the earlier of a, b in ΔE, and the Σ-only fallback
  // iterates i < j.
  std::unordered_map<const MinedRule*, size_t> delta_idx;
  delta_idx.reserve(delta.size());
  for (size_t i = 0; i < delta.size(); ++i) delta_idx.emplace(delta[i].get(), i);

  while (queue_.size() < max_pairs_) {
    const MinedRule* best_a = nullptr;
    const MinedRule* best_b = nullptr;
    std::shared_ptr<MinedRule> best_a_sp, best_b_sp;
    double best_f = -1;
    auto consider = [&](const std::shared_ptr<MinedRule>& ra,
                        const std::shared_ptr<MinedRule>& rb) {
      if (ra.get() == rb.get()) return;
      if (ra->pruned || rb->pruned) return;
      if (UsedInQueue(ra.get()) || UsedInQueue(rb.get())) return;
      double f = PairFPrime(ra, rb);
      if (f > best_f) {
        best_f = f;
        best_a = ra.get();
        best_b = rb.get();
        best_a_sp = ra;
        best_b_sp = rb;
      }
    };
    for (size_t ai = 0; ai < delta.size(); ++ai) {
      for (const auto& rb : sigma) {
        auto it = delta_idx.find(rb.get());
        // Skip self-pairs and pairs already visited from an earlier ΔE
        // member; first-encounter order matches the old double scan, so
        // tie-breaking under strict > is unchanged.
        if (it != delta_idx.end() && it->second <= ai) continue;
        consider(delta[ai], rb);
      }
    }
    // Fall back to pool-only pairs so the queue can fill even when ΔE is
    // exhausted (e.g. a late round discovering nothing new).
    if (best_a == nullptr) {
      for (size_t i = 0; i < sigma.size(); ++i) {
        for (size_t j = i + 1; j < sigma.size(); ++j) {
          consider(sigma[i], sigma[j]);
        }
      }
    }
    if (best_a == nullptr) break;  // fewer rules than slots
    queue_.push_back({best_a_sp, best_b_sp, best_f});
    in_queue_.insert(best_a);
    in_queue_.insert(best_b);
  }

  // Phase 2 — replace: each new rule pairs with its best partner in Σ; the
  // minimum-F' pair is evicted when the new pair beats it.
  for (const auto& r : delta) {
    if (r->pruned || UsedInQueue(r.get())) continue;
    const std::shared_ptr<MinedRule>* best_partner = nullptr;
    double best_f = -1;
    for (const auto& s : sigma) {
      if (s.get() == r.get() || s->pruned || UsedInQueue(s.get())) continue;
      double f = PairFPrime(r, s);
      if (f > best_f) {
        best_f = f;
        best_partner = &s;
      }
    }
    if (best_partner == nullptr) continue;
    auto min_it =
        std::min_element(queue_.begin(), queue_.end(),
                         [](const QueuePair& a, const QueuePair& b) {
                           return a.fprime < b.fprime;
                         });
    if (min_it != queue_.end() && min_it->fprime < best_f) {
      in_queue_.erase(min_it->a.get());
      in_queue_.erase(min_it->b.get());
      *min_it = {r, *best_partner, best_f};
      in_queue_.insert(r.get());
      in_queue_.insert(best_partner->get());
    }
  }
}

std::vector<std::shared_ptr<MinedRule>> IncDiv::TopK() const {
  std::vector<QueuePair> sorted = queue_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const QueuePair& a, const QueuePair& b) {
                     return a.fprime > b.fprime;
                   });
  std::vector<std::shared_ptr<MinedRule>> out;
  for (const QueuePair& p : sorted) {
    if (out.size() < k_) out.push_back(p.a);
    if (out.size() < k_) out.push_back(p.b);
  }
  return out;
}

double IncDiv::MinPairFPrime() const {
  if (queue_.size() < max_pairs_) {
    return -std::numeric_limits<double>::infinity();
  }
  double m = std::numeric_limits<double>::infinity();
  for (const QueuePair& p : queue_) m = std::min(m, p.fprime);
  return m;
}

double IncDiv::Objective() const {
  auto topk = TopK();
  std::vector<double> confs;
  std::vector<const std::vector<NodeId>*> sets;
  for (const auto& r : topk) {
    confs.push_back(r->conf);
    sets.push_back(&r->matches);
  }
  return ObjectiveF(confs, sets, lambda_, n_norm_, k_);
}

std::vector<std::shared_ptr<MinedRule>> FullDiversify(
    const std::vector<std::shared_ptr<MinedRule>>& pool, uint32_t k,
    double lambda, double n_norm) {
  std::vector<std::shared_ptr<MinedRule>> remaining;
  for (const auto& r : pool) {
    if (!r->pruned) remaining.push_back(r);
  }
  MatchRanks ranks;
  std::vector<MatchBitset> bits;
  bits.reserve(remaining.size());
  for (const auto& r : remaining) bits.push_back(ranks.Encode(r->matches));
  std::vector<std::shared_ptr<MinedRule>> out;
  // Greedy max-sum dispersion [19]: repeatedly take the pair with maximum
  // F' among unused rules.
  while (out.size() + 1 < k && remaining.size() >= 2) {
    size_t bi = 0, bj = 1;
    double best = -1;
    for (size_t i = 0; i < remaining.size(); ++i) {
      for (size_t j = i + 1; j < remaining.size(); ++j) {
        double f = FPrime(remaining[i]->conf, remaining[j]->conf,
                          BitsetJaccardDistance(bits[i], bits[j]), lambda,
                          n_norm, k);
        if (f > best) {
          best = f;
          bi = i;
          bj = j;
        }
      }
    }
    out.push_back(remaining[bi]);
    out.push_back(remaining[bj]);
    // Erase higher index first.
    remaining.erase(remaining.begin() + bj);
    remaining.erase(remaining.begin() + bi);
    bits.erase(bits.begin() + bj);
    bits.erase(bits.begin() + bi);
  }
  if (out.size() < k && !remaining.empty()) {
    // Odd k: add the rule with the best marginal confidence.
    auto best = std::max_element(remaining.begin(), remaining.end(),
                                 [](const auto& a, const auto& b) {
                                   return a->conf < b->conf;
                                 });
    out.push_back(*best);
  }
  if (out.size() > k) out.resize(k);
  return out;
}

}  // namespace gpar
