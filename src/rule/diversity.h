#ifndef GPAR_RULE_DIVERSITY_H_
#define GPAR_RULE_DIVERSITY_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

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
/// ⌈supp_q/64⌉ words.
class MatchRanks {
 public:
  /// Encodes `matches` (distinct nodes, any order), ranking unseen nodes.
  MatchBitset Encode(std::span<const NodeId> matches);

 private:
  std::unordered_map<NodeId, uint32_t> rank_;
};

/// diff(R1, R2): Jaccard distance of the rules' match sets P_R(x, G)
/// (Section 4.1), 1 - |a ∩ b| / |a ∪ b| from popcounts. Two empty sets
/// have distance 0 (identical social groups).
double BitsetJaccardDistance(const MatchBitset& a, const MatchBitset& b);

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
double FPrime(double conf1, double conf2, double diff, double lambda,
              double n_norm, uint32_t k);

}  // namespace gpar

#endif  // GPAR_RULE_DIVERSITY_H_
