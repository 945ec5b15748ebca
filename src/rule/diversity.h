#ifndef GPAR_RULE_DIVERSITY_H_
#define GPAR_RULE_DIVERSITY_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "graph/graph.h"

namespace gpar {

/// A match set P_R(x, G) as a bitset over the ranks a `MatchRanks` gave its
/// members. Compare only bitsets encoded by the same `MatchRanks`.
struct MatchBitset {
  std::vector<uint64_t> words;  ///< bit r set iff the rank-r node is a member
  uint64_t count = 0;           ///< members (popcount of `words`)
};

/// Dense ranks for the nodes of a match-set universe, assigned on first
/// sight. In DMine every P_R match is a q-pool center (P_R contains the q
/// edge), so ranks never exceed supp(q, G) and a bitset is at most
/// ⌈supp_q/64⌉ words. Ranks live in a node-sorted list that each encode
/// merges its members into, so the cost follows the universe seen so far,
/// never the graph's largest node id, and no member is hashed.
class MatchRanks {
 public:
  /// Encodes `matches` (distinct nodes, any order), ranking unseen nodes
  /// in ascending id order.
  MatchBitset Encode(std::span<const NodeId> matches);

 private:
  /// Every ranked node with its rank, sorted by node id.
  std::vector<std::pair<NodeId, uint32_t>> ranked_;
};

/// diff(R1, R2): Jaccard distance of the rules' match sets P_R(x, G)
/// (Section 4.1), 1 - |a ∩ b| / |a ∪ b| from popcounts. Two empty sets
/// have distance 0 (identical social groups). Inline: incDiv's pair scan
/// runs it once per scored pair.
inline double BitsetJaccardDistance(const MatchBitset& a,
                                    const MatchBitset& b) {
  if (a.count == 0 && b.count == 0) return 0;
  // Words past the shorter bitset hold no common member.
  const size_t n = std::min(a.words.size(), b.words.size());
  const uint64_t* aw = a.words.data();
  const uint64_t* bw = b.words.data();
  uint64_t inter = 0;
  for (size_t i = 0; i < n; ++i) inter += PopCount(aw[i] & bw[i]);
  const uint64_t uni = a.count + b.count - inter;
  return 1.0 - static_cast<double>(inter) / static_cast<double>(uni);
}

/// The same distance for two node lists: encodes both, then runs
/// `BitsetJaccardDistance`.
double JaccardDistance(const std::vector<NodeId>& a,
                       const std::vector<NodeId>& b);

/// The diversification objective F(L_k) of Section 4.1 (max-sum
/// diversification, after [19]):
///   (1-λ) Σ_i conf(R_i)/N  +  (2λ/(k-1)) Σ_{i<j} diff(R_i, R_j)
/// `N` normalizes confidence: N = supp(q, G) * supp(~q, G).
double ObjectiveF(const std::vector<double>& confs,
                  const std::vector<const std::vector<NodeId>*>& match_sets,
                  double lambda, double n_norm, uint32_t k);

/// The pairwise objective used by incDiv (Section 4.2):
///   F'(R, R') = (1-λ)/(N(k-1)) (conf(R)+conf(R')) + (2λ/(k-1)) diff(R, R').
/// Inline, like `BitsetJaccardDistance`, so a pair scan hoists its
/// loop-invariant factors.
inline double FPrime(double conf1, double conf2, double diff, double lambda,
                     double n_norm, uint32_t k) {
  if (k <= 1) return 0;
  // Same degeneracy guards as ObjectiveF's confidence term: with N = 0 the
  // diversity term still ranks pairs.
  double conf_term = 0;
  const double conf_sum = conf1 + conf2;
  if (n_norm > 0 && lambda < 1.0 && std::isfinite(conf_sum)) {
    conf_term = (1.0 - lambda) / (n_norm * (k - 1)) * conf_sum;
  }
  return conf_term + 2.0 * lambda / (k - 1) * diff;
}

}  // namespace gpar

#endif  // GPAR_RULE_DIVERSITY_H_
