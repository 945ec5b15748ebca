#include "rule/diversity.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace gpar {

MatchBitset MatchRanks::Encode(std::span<const NodeId> matches) {
  MatchBitset out;
  for (NodeId v : matches) {
    const uint32_t r =
        rank_.try_emplace(v, static_cast<uint32_t>(rank_.size())).first->second;
    if (r / 64 >= out.words.size()) out.words.resize(r / 64 + 1);
    out.words[r / 64] |= uint64_t{1} << (r % 64);
  }
  for (uint64_t w : out.words) out.count += std::popcount(w);
  return out;
}

double BitsetJaccardDistance(const MatchBitset& a, const MatchBitset& b) {
  if (a.count == 0 && b.count == 0) return 0;
  // Words past the shorter bitset hold no common member.
  const size_t n = std::min(a.words.size(), b.words.size());
  uint64_t inter = 0;
  for (size_t i = 0; i < n; ++i) {
    inter += std::popcount(a.words[i] & b.words[i]);
  }
  const uint64_t uni = a.count + b.count - inter;
  return 1.0 - static_cast<double>(inter) / static_cast<double>(uni);
}

double JaccardDistance(const std::vector<NodeId>& a,
                       const std::vector<NodeId>& b) {
  MatchRanks ranks;
  return BitsetJaccardDistance(ranks.Encode(a), ranks.Encode(b));
}

double ObjectiveF(const std::vector<double>& confs,
                  const std::vector<const std::vector<NodeId>*>& match_sets,
                  double lambda, double n_norm, uint32_t k) {
  double conf_sum = 0;
  for (double c : confs) conf_sum += c;
  MatchRanks ranks;
  std::vector<MatchBitset> bits;
  bits.reserve(match_sets.size());
  for (const std::vector<NodeId>* s : match_sets) {
    bits.push_back(ranks.Encode(*s));
  }
  double diff_sum = 0;
  for (size_t i = 0; i < bits.size(); ++i) {
    for (size_t j = i + 1; j < bits.size(); ++j) {
      diff_sum += BitsetJaccardDistance(bits[i], bits[j]);
    }
  }
  // A degenerate normalizer (supp_q or supp_~q = 0 makes N = 0) or
  // non-finite confidence sum (trivial logic rules have conf = +inf) zeroes
  // the confidence term instead of emitting NaN/inf — in particular
  // (1-λ)·inf is NaN at λ = 1. Ranking then falls back to diversity alone.
  double conf_term = 0;
  if (n_norm > 0 && lambda < 1.0 && std::isfinite(conf_sum)) {
    conf_term = (1.0 - lambda) * conf_sum / n_norm;
  }
  double div_term = k > 1 ? 2.0 * lambda / (k - 1) * diff_sum : 0;
  return conf_term + div_term;
}

double FPrime(double conf1, double conf2, double diff, double lambda,
              double n_norm, uint32_t k) {
  if (k <= 1) return 0;
  // Same degeneracy guards as ObjectiveF's confidence term: with N = 0 the
  // diversity term still ranks pairs (the old code returned a flat 0 here,
  // collapsing the queue order entirely).
  double conf_term = 0;
  const double conf_sum = conf1 + conf2;
  if (n_norm > 0 && lambda < 1.0 && std::isfinite(conf_sum)) {
    conf_term = (1.0 - lambda) / (n_norm * (k - 1)) * conf_sum;
  }
  return conf_term + 2.0 * lambda / (k - 1) * diff;
}

}  // namespace gpar
