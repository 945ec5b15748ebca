#include "rule/diversity.h"

#include <algorithm>
#include <cmath>

namespace gpar {

MatchBitset MatchRanks::Encode(std::span<const NodeId> matches) {
  std::vector<NodeId> sorted;
  if (!std::is_sorted(matches.begin(), matches.end())) {
    sorted.assign(matches.begin(), matches.end());
    std::sort(sorted.begin(), sorted.end());
    matches = sorted;
  }
  // No rank reaches the ranked count plus the members.
  MatchBitset out;
  out.words.resize((ranked_.size() + matches.size() + 63) / 64);
  uint32_t top = 0;  // one past the highest rank set
  std::vector<std::pair<NodeId, uint32_t>> fresh;
  // Both lists ascend, so each lookup resumes where the previous one
  // ended: a few linear steps (dense sets), then a galloping search.
  const auto end = ranked_.cend();
  auto it = ranked_.cbegin();
  for (NodeId v : matches) {
    for (int s = 0; s < 8 && it != end && it->first < v; ++s) ++it;
    if (it != end && it->first < v) {
      size_t step = 4;
      while (static_cast<size_t>(end - it) > step && it[step].first < v) {
        it += step;
        step *= 2;
      }
      const auto hi = static_cast<size_t>(end - it) > step ? it + step : end;
      it = std::lower_bound(it + 1, hi, v,
                            [](const std::pair<NodeId, uint32_t>& e,
                               NodeId n) { return e.first < n; });
    }
    uint32_t r;
    if (it != end && it->first == v) {
      r = it->second;
    } else {
      r = static_cast<uint32_t>(ranked_.size() + fresh.size());
      fresh.emplace_back(v, r);
    }
    out.words[r / 64] |= uint64_t{1} << (r % 64);
    top = std::max(top, r + 1);
  }
  out.words.resize((top + 63) / 64);
  if (!fresh.empty()) {
    const size_t old = ranked_.size();
    ranked_.insert(ranked_.end(), fresh.begin(), fresh.end());
    std::inplace_merge(ranked_.begin(), ranked_.begin() + old, ranked_.end());
  }
  for (uint64_t w : out.words) out.count += PopCount(w);
  return out;
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

}  // namespace gpar
