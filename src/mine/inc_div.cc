#include "mine/inc_div.h"

#include <algorithm>
#include <limits>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "rule/diversity.h"

namespace gpar {

IncDiv::IncDiv(uint32_t k, double lambda, double n_norm)
    : k_(k), lambda_(lambda), n_norm_(n_norm), max_pairs_((k + 1) / 2) {}

namespace {

constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

/// One Σ position of a round, resolved once so the pair scans read flat
/// memory.
struct Slot {
  const MatchBitset* bits;
  double conf;
  uint32_t delta;  ///< the rule's ΔE index, or kNone
  bool blocked;    ///< pruned, or in the queue
};

/// A fill row not yet scored this round.
constexpr uint32_t kUnscored = kNone - 1;

/// A row's best partner: a Σ position and its F', or kNone.
struct RowBest {
  uint32_t col = kNone;
  double f = -1;
};

/// Scores row `row` against the unblocked positions from `first` on that
/// `skip` keeps, and returns the first maximum under strict > (above -1):
/// the pair a row-major scan of this row would pick. A caller that acts
/// only on a partner scoring above `threshold` passes it, and then a best
/// at or below it may come back in place of the true one.
///
/// For λ >= 0, a position is skipped without its bitset diff when even
/// diff = 1 could not lift F' above both `threshold` and the best so far.
/// That is exact: the diversity coefficient 2λ/(k-1) is then non-negative,
/// so F' is non-decreasing in diff (floating-point rounding is monotone),
/// and diff never exceeds 1.
template <typename Skip>
RowBest BestPartner(const std::vector<Slot>& slots, uint32_t row,
                    uint32_t first, double threshold, double lambda,
                    double n_norm, uint32_t k, Skip skip) {
  const bool bounded = lambda >= 0;
  RowBest best;
  const Slot& a = slots[row];
  for (uint32_t j = first; j < slots.size(); ++j) {
    const Slot& b = slots[j];
    if (b.blocked || skip(j)) continue;
    if (bounded && FPrime(a.conf, b.conf, 1.0, lambda, n_norm, k) <=
                       std::max(threshold, best.f)) {
      continue;
    }
    const double f = FPrime(a.conf, b.conf,
                            BitsetJaccardDistance(*a.bits, *b.bits), lambda,
                            n_norm, k);
    if (f > best.f) best = {j, f};
  }
  return best;
}

}  // namespace

const MatchBitset& IncDiv::BitsOf(const std::shared_ptr<MinedRule>& r) {
  auto [it, fresh] = bits_.try_emplace(r);
  if (fresh) it->second = ranks_.Encode(r->matches);
  return it->second;
}

bool IncDiv::InQueue(const MinedRule* rule) const {
  return in_queue_.count(rule) > 0;
}

void IncDiv::AddRound(const std::vector<std::shared_ptr<MinedRule>>& delta,
                      const std::vector<std::shared_ptr<MinedRule>>& sigma) {
  // Resolve Σ: per position its bitset, conf, ΔE index and blocked
  // flag; per ΔE rule its position; per queue pair its members' positions,
  // so an eviction can unblock them.
  std::unordered_map<const MinedRule*, uint32_t> delta_idx;
  delta_idx.reserve(delta.size());
  for (size_t i = 0; i < delta.size(); ++i) {
    delta_idx.emplace(delta[i].get(), static_cast<uint32_t>(i));
  }
  std::vector<Slot> slots;
  slots.reserve(sigma.size());
  std::vector<uint32_t> row_slot(delta.size(), kNone);
  std::vector<std::pair<uint32_t, uint32_t>> pair_slots(queue_.size(),
                                                        {kNone, kNone});
  for (size_t j = 0; j < sigma.size(); ++j) {
    const MinedRule* r = sigma[j].get();
    const auto pos = static_cast<uint32_t>(j);
    auto it = delta_idx.find(r);
    const uint32_t d = it == delta_idx.end() ? kNone : it->second;
    if (d != kNone) row_slot[d] = pos;
    const bool queued = in_queue_.count(r) > 0;
    if (queued) {
      for (size_t p = 0; p < queue_.size(); ++p) {
        if (queue_[p].a.get() == r) pair_slots[p].first = pos;
        if (queue_[p].b.get() == r) pair_slots[p].second = pos;
      }
    }
    slots.push_back({&BitsOf(sigma[j]), r->conf, d, r->pruned || queued});
  }
  constexpr double kNoThreshold = -std::numeric_limits<double>::infinity();
  auto enqueue = [&](size_t p, uint32_t a, uint32_t b, double f) {
    if (p == queue_.size()) {
      queue_.push_back({sigma[a], sigma[b], f});
      pair_slots.emplace_back(a, b);
    } else {
      queue_[p] = {sigma[a], sigma[b], f};
      pair_slots[p] = {a, b};
    }
    in_queue_.insert(sigma[a].get());
    in_queue_.insert(sigma[b].get());
    slots[a].blocked = slots[b].blocked = true;
  };

  // Phase 1 — fill: while the queue holds < ⌈k/2⌉ pairs, greedily insert
  // the disjoint pair maximizing F' (the first maximum in row-major order);
  // at least one member must be new. A both-new pair {a, b} is a column
  // only of the earlier of a, b in ΔE; the Σ-only fallback rows take the
  // later positions as columns. Queueing a pair only blocks positions, so
  // a row's best partner stays its best (every earlier column scored
  // strictly less) until that partner itself is queued: only those rows
  // are rescored.
  std::vector<RowBest> delta_best;  // per ΔE row
  std::vector<RowBest> sigma_best;  // per Σ row of the fallback
  auto best_of = [&](std::vector<RowBest>& best, size_t n, auto row_of,
                     auto score) {
    if (best.empty()) best.assign(n, {kUnscored, -1});
    RowBest top;
    uint32_t top_row = kNone;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t row = row_of(i);
      if (row == kNone || slots[row].blocked) continue;
      RowBest& rb = best[i];
      if (rb.col == kUnscored || (rb.col != kNone && slots[rb.col].blocked)) {
        rb = score(i, row);
      }
      if (rb.col != kNone && rb.f > top.f) {
        top = rb;
        top_row = row;
      }
    }
    return std::make_pair(top_row, top);
  };
  while (queue_.size() < max_pairs_) {
    auto [row, best] = best_of(
        delta_best, delta.size(), [&](size_t ai) { return row_slot[ai]; },
        [&](size_t ai, uint32_t r) {
          return BestPartner(slots, r, 0, kNoThreshold, lambda_, n_norm_, k_,
                             [&](uint32_t j) { return slots[j].delta <= ai; });
        });
    // Fall back to pool-only pairs so the queue can fill even when ΔE is
    // exhausted (e.g. a late round discovering nothing new).
    if (row == kNone) {
      std::tie(row, best) = best_of(
          sigma_best, slots.size(),
          [](size_t i) { return static_cast<uint32_t>(i); },
          [&](size_t, uint32_t r) {
            return BestPartner(slots, r, r + 1, kNoThreshold, lambda_, n_norm_,
                               k_, [](uint32_t) { return false; });
          });
    }
    if (row == kNone) break;  // fewer rules than slots
    enqueue(queue_.size(), row, best.col, best.f);
  }

  // Phase 2 — replace: each new rule pairs with its best partner in Σ; the
  // minimum-F' pair is evicted when the new pair beats it, so no partner
  // at or below that pair's F' matters.
  for (uint32_t row : row_slot) {
    if (row == kNone || slots[row].blocked) continue;
    auto min_it =
        std::min_element(queue_.begin(), queue_.end(),
                         [](const QueuePair& a, const QueuePair& b) {
                           return a.fprime < b.fprime;
                         });
    const double min_f = min_it != queue_.end()
                             ? min_it->fprime
                             : std::numeric_limits<double>::infinity();
    const RowBest best =
        BestPartner(slots, row, 0, min_f, lambda_, n_norm_, k_,
                    [row](uint32_t j) { return j == row; });
    if (best.col == kNone) continue;
    if (min_it != queue_.end() && min_it->fprime < best.f) {
      const size_t p = static_cast<size_t>(min_it - queue_.begin());
      in_queue_.erase(min_it->a.get());
      in_queue_.erase(min_it->b.get());
      for (uint32_t s : {pair_slots[p].first, pair_slots[p].second}) {
        if (s != kNone) slots[s].blocked = sigma[s]->pruned;
      }
      enqueue(p, row, best.col, best.f);
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
