#ifndef GPAR_MINE_INC_DIV_H_
#define GPAR_MINE_INC_DIV_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mine/mined_rule.h"
#include "rule/diversity.h"

namespace gpar {

/// Incremental diversification (procedure incDiv, Section 4.2).
///
/// Maintains a max priority queue of ⌈k/2⌉ pairwise-disjoint GPAR pairs
/// maximizing the pairwise objective F'. Each round the newly accepted
/// rules ΔE are offered; a new pair replaces the minimum-F' pair when it
/// improves on it. This is the greedy strategy of [19] with approximation
/// ratio 2 for max-sum diversification, made incremental so the top-k list
/// is never recomputed from scratch.
///
/// Rules are owned by the caller (DMine's Σ, stable `shared_ptr`s). A rule's
/// match set must not change once offered: IncDiv encodes it as a
/// `MatchBitset` on first sight and scores every later pair from the cached
/// bitsets, so one diff costs at most ⌈supp_q/64⌉ word ANDs and bit counts.
///
/// Each round resolves Σ once into a flat per-position array (bitset,
/// confidence, ΔE index, and whether the rule is pruned or queued), so the
/// O(|ΔE|·|Σ|) pair scans do no hash lookup. The fill phase keeps each
/// row's best partner across its ⌈k/2⌉ steps and rescans a row only when
/// that partner was just queued; extra memory stays O(|ΔE| + |Σ|).
class IncDiv {
 public:
  /// One queue entry: a disjoint rule pair and its F'.
  struct QueuePair {
    std::shared_ptr<MinedRule> a;
    std::shared_ptr<MinedRule> b;
    double fprime;
  };

  IncDiv(uint32_t k, double lambda, double n_norm);

  /// Offers one round of newly accepted rules. `sigma` is the full pool Σ,
  /// each rule once, including every rule of `delta`; pruned rules are
  /// skipped as pair partners.
  void AddRound(const std::vector<std::shared_ptr<MinedRule>>& delta,
                const std::vector<std::shared_ptr<MinedRule>>& sigma);

  /// Current top-k rules (flattened pairs, best F' first, truncated to k).
  std::vector<std::shared_ptr<MinedRule>> TopK() const;

  /// The queue's pairs in slot order (a replacement takes the evicted
  /// pair's slot).
  const std::vector<QueuePair>& pairs() const { return queue_; }

  /// F'm: the minimum F' among queue pairs; -infinity while the queue is
  /// not yet full (no pruning is safe before that, per Lemma 3's premise).
  double MinPairFPrime() const;

  /// True iff `rule` currently sits in the queue (such rules must never be
  /// pruned from Σ: they are part of L_k).
  bool InQueue(const MinedRule* rule) const;

  /// F(L_k) of the current top-k (for reporting).
  double Objective() const;

  uint32_t k() const { return k_; }
  double lambda() const { return lambda_; }
  double n_norm() const { return n_norm_; }

 private:
  const MatchBitset& BitsOf(const std::shared_ptr<MinedRule>& r);

  uint32_t k_;
  double lambda_;
  double n_norm_;
  uint32_t max_pairs_;
  std::vector<QueuePair> queue_;
  /// Members of `queue_`, kept in sync on every insert/replace. AddRound
  /// reads it once per Σ rule, when it resolves the round's flat array (the
  /// pair scans then test a per-position flag); `InQueue` serves the
  /// reduction rules.
  std::unordered_set<const MinedRule*> in_queue_;
  MatchRanks ranks_;
  /// Each offered rule's match bitset. Keying by `shared_ptr` keeps the
  /// rule alive, so its address cannot be reused by another rule.
  std::unordered_map<std::shared_ptr<MinedRule>, MatchBitset> bits_;
};

/// Non-incremental greedy diversification over a full pool ("discover and
/// diversify", also what DMineno recomputes every round): repeatedly picks
/// the disjoint pair maximizing F'. Same 2-approximation, higher cost.
std::vector<std::shared_ptr<MinedRule>> FullDiversify(
    const std::vector<std::shared_ptr<MinedRule>>& pool, uint32_t k,
    double lambda, double n_norm);

}  // namespace gpar

#endif  // GPAR_MINE_INC_DIV_H_
