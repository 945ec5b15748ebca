#ifndef GPAR_TESTS_INC_DIV_ORACLE_H_
#define GPAR_TESTS_INC_DIV_ORACLE_H_

// The straightforward incDiv round: every fill step rescans every pair,
// and every pair score looks up both rules' bitsets and their queue
// membership by hash. The library's `IncDiv` resolves Σ into flat arrays
// once per round and keeps each row's best partner across fill steps;
// tests hold its queue — pair identities, order and F' bits — to this
// oracle after every round.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mine/inc_div.h"
#include "mine/mined_rule.h"
#include "rule/diversity.h"

namespace gpar::test {

class OracleIncDiv {
 public:
  OracleIncDiv(uint32_t k, double lambda, double n_norm)
      : k_(k), lambda_(lambda), n_norm_(n_norm), max_pairs_((k + 1) / 2) {}

  const std::vector<IncDiv::QueuePair>& pairs() const { return queue_; }

  void AddRound(const std::vector<std::shared_ptr<MinedRule>>& delta,
                const std::vector<std::shared_ptr<MinedRule>>& sigma) {
    // Phase 1 — fill: while the queue holds < ⌈k/2⌉ pairs, insert the
    // disjoint pair maximizing F' (first maximum in scan order); at least
    // one member must be new. A both-new pair {a, b} is visited only from
    // the earlier of a, b in ΔE; the Σ-only fallback iterates i < j.
    std::unordered_map<const MinedRule*, size_t> delta_idx;
    for (size_t i = 0; i < delta.size(); ++i) {
      delta_idx.emplace(delta[i].get(), i);
    }
    while (queue_.size() < max_pairs_) {
      const MinedRule* best_a = nullptr;
      std::shared_ptr<MinedRule> best_a_sp, best_b_sp;
      double best_f = -1;
      auto consider = [&](const std::shared_ptr<MinedRule>& ra,
                          const std::shared_ptr<MinedRule>& rb) {
        if (ra.get() == rb.get()) return;
        if (ra->pruned || rb->pruned) return;
        if (InQueue(ra.get()) || InQueue(rb.get())) return;
        const double f = PairFPrime(ra, rb);
        if (f > best_f) {
          best_f = f;
          best_a = ra.get();
          best_a_sp = ra;
          best_b_sp = rb;
        }
      };
      for (size_t ai = 0; ai < delta.size(); ++ai) {
        for (const auto& rb : sigma) {
          auto it = delta_idx.find(rb.get());
          if (it != delta_idx.end() && it->second <= ai) continue;
          consider(delta[ai], rb);
        }
      }
      if (best_a == nullptr) {
        for (size_t i = 0; i < sigma.size(); ++i) {
          for (size_t j = i + 1; j < sigma.size(); ++j) {
            consider(sigma[i], sigma[j]);
          }
        }
      }
      if (best_a == nullptr) break;
      queue_.push_back({best_a_sp, best_b_sp, best_f});
      in_queue_.insert(best_a_sp.get());
      in_queue_.insert(best_b_sp.get());
    }

    // Phase 2 — replace: each new rule pairs with its best partner in Σ;
    // the minimum-F' pair is evicted when the new pair beats it.
    for (const auto& r : delta) {
      if (r->pruned || InQueue(r.get())) continue;
      const std::shared_ptr<MinedRule>* best_partner = nullptr;
      double best_f = -1;
      for (const auto& s : sigma) {
        if (s.get() == r.get() || s->pruned || InQueue(s.get())) continue;
        const double f = PairFPrime(r, s);
        if (f > best_f) {
          best_f = f;
          best_partner = &s;
        }
      }
      if (best_partner == nullptr) continue;
      auto min_it = std::min_element(
          queue_.begin(), queue_.end(),
          [](const IncDiv::QueuePair& a, const IncDiv::QueuePair& b) {
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

  bool InQueue(const MinedRule* r) const { return in_queue_.count(r) > 0; }

 private:
  const MatchBitset& BitsOf(const std::shared_ptr<MinedRule>& r) {
    auto [it, fresh] = bits_.try_emplace(r);
    if (fresh) it->second = ranks_.Encode(r->matches);
    return it->second;
  }

  double PairFPrime(const std::shared_ptr<MinedRule>& a,
                    const std::shared_ptr<MinedRule>& b) {
    return FPrime(a->conf, b->conf,
                  BitsetJaccardDistance(BitsOf(a), BitsOf(b)), lambda_,
                  n_norm_, k_);
  }

  uint32_t k_;
  double lambda_;
  double n_norm_;
  uint32_t max_pairs_;
  std::vector<IncDiv::QueuePair> queue_;
  std::unordered_set<const MinedRule*> in_queue_;
  MatchRanks ranks_;
  std::unordered_map<std::shared_ptr<MinedRule>, MatchBitset> bits_;
};

}  // namespace gpar::test

#endif  // GPAR_TESTS_INC_DIV_ORACLE_H_
