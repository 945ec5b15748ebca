#include "serve/serve_session.h"

#include <algorithm>
#include <numeric>

#include "common/failpoint.h"
#include "graph/graph_snapshot.h"
#include "rule/metrics.h"

namespace gpar {

Result<std::vector<uint32_t>> ValidateRequest(const SessionRequest& request,
                                              size_t num_rules) {
  if (request.all_centers && request.eta <= 0) {
    return Status::InvalidArgument("eta must be positive");
  }
  if (request.deadline_seconds < 0) {
    return Status::InvalidArgument("deadline_seconds must be non-negative");
  }
  std::vector<uint32_t> selected = request.rules;
  if (selected.empty()) {
    selected.resize(num_rules);
    std::iota(selected.begin(), selected.end(), 0);
    return selected;
  }
  std::sort(selected.begin(), selected.end());
  selected.erase(std::unique(selected.begin(), selected.end()),
                 selected.end());
  if (selected.back() >= num_rules) {
    return Status::InvalidArgument("rule index " +
                                   std::to_string(selected.back()) +
                                   " out of range");
  }
  return selected;
}

void AssembleEntities(const SessionRequest& request,
                      const std::vector<uint32_t>& selected,
                      std::span<const NodeId> centers, SessionReply* reply) {
  if (!request.all_centers) {
    for (size_t i = 0; i < centers.size(); ++i) {
      if (!reply->matched[i].empty()) reply->entities.push_back(centers[i]);
    }
    std::sort(reply->entities.begin(), reply->entities.end());
    reply->entities.erase(
        std::unique(reply->entities.begin(), reply->entities.end()),
        reply->entities.end());
    return;
  }
  std::vector<char> qualified(reply->rule_evals.size(), 0);
  for (uint32_t ri : selected) {
    EipRuleEval& ev = reply->rule_evals[ri];
    ev.conf = BayesFactorConf(ev.supp_r, reply->supp_qbar, ev.supp_qqbar,
                              reply->supp_q);
    if (ev.conf >= request.eta) qualified[ri] = 1;
  }
  for (size_t i = 0; i < centers.size(); ++i) {
    // The candidates are sorted, so the entities come out sorted.
    for (uint32_t ri : reply->matched[i]) {
      if (ri < qualified.size() && qualified[ri] != 0) {
        reply->entities.push_back(centers[i]);
        break;
      }
    }
  }
}

Result<GraphPatch> IntakeDelta(const Graph& g, const GraphDelta& delta,
                               Interner* labels, DeltaStats* ds) {
  GPAR_RETURN_NOT_OK(ApplyLabelDefs(delta, labels));
  GPAR_ASSIGN_OR_RETURN(GraphPatch patch, PatchGraph(g, delta));
  ds->edges_inserted = patch.edges_inserted;
  ds->duplicates_ignored = patch.duplicates;
  ds->edges_deleted = patch.edges_deleted;
  ds->deletes_missing = patch.missing;
  return patch;
}

Result<SnapshotPair> ReadSnapshotPair(const std::string& graph_snapshot_path,
                                      const std::string& rules_snapshot_path) {
  GPAR_FAILPOINT("snapshot.load");
  SnapshotPair pair;
  GPAR_ASSIGN_OR_RETURN(pair.graph, ReadGraphSnapshotFile(graph_snapshot_path));
  GPAR_ASSIGN_OR_RETURN(
      pair.rules, ReadRuleSetSnapshotFile(rules_snapshot_path,
                                          pair.graph.mutable_labels()));
  return pair;
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
  add(shards_failed_, stats.shards_failed);
  add(retries_, stats.retries);
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
  st.shards_failed = get(shards_failed_);
  st.retries = get(retries_);
  st.latency_seconds = static_cast<double>(get(latency_nanos_)) * 1e-9;
  return st;
}

}  // namespace gpar
