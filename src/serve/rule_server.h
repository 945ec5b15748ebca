#ifndef GPAR_SERVE_RULE_SERVER_H_
#define GPAR_SERVE_RULE_SERVER_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "rule/rule_snapshot.h"
#include "serve/serve_session.h"

namespace gpar {

/// The online half of GPAR mining (Section 5 framing): rules are mined
/// offline into snapshots; a long-lived `RuleServer` session loads one
/// (graph, rule set) snapshot pair, precomputes per-rule state once per
/// generation — search plans in a shared `SearchPlanStore`, global
/// satisfiability of antecedent components not containing x — and then
/// answers `Query` requests on a persistent `ThreadPool`, far cheaper than
/// one batch `IdentifyEntities` run per request.
///
/// It is a `ServeSession` whose `Create` gives every candidate to ONE
/// cache slice: memberships are memoized in the slice's dense (rule,
/// center) match cache, one entry per candidate, and edge deltas
/// (`ApplyDelta`) publish a new immutable generation (RCU style) after
/// invalidating only the cached memberships the delta can have changed
/// (see `CacheSlice`) — everything else stays warm. Point lookups of
/// centers without x's label cost nothing: they reach no slice. An
/// `all_centers` query answers exactly like a fresh batch
/// `IdentifyEntities` on the equivalent graph (the ServeEquivalence and
/// ShardedServeEquivalence tests).
///
/// Thread-safety: `Query` may run from any number of threads concurrently;
/// `ApplyDelta` never blocks in-flight queries (they finish on the
/// generation they started with). Writers serialize among themselves.
class RuleServer : public SnapshotSession<RuleServer, RuleServerOptions> {
 public:
  /// Builds a session from in-memory state (tests, single-process use).
  static Result<std::unique_ptr<RuleServer>> Create(
      Graph g, std::vector<RuleRecord> rules,
      const RuleServerOptions& options = {});

  RuleServer(const RuleServer&) = delete;
  RuleServer& operator=(const RuleServer&) = delete;

  // ---- Introspection ----

  const Predicate& predicate() const noexcept { return q_; }
  size_t plans_prepared() const;

 private:
  RuleServer() = default;
};

}  // namespace gpar

#endif  // GPAR_SERVE_RULE_SERVER_H_
