#ifndef GPAR_SERVE_SHARDED_RULE_SERVER_H_
#define GPAR_SERVE_SHARDED_RULE_SERVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "rule/rule_snapshot.h"
#include "serve/serve_session.h"

namespace gpar {

/// Options for `ShardedRuleServer`.
struct ShardedRuleServerOptions {
  /// Number of shards. 1 is a valid (router + one shard) deployment, handy
  /// for A/B against a plain `RuleServer`. The router scatters requests on
  /// one thread per shard.
  uint32_t num_shards = 2;
  /// Per-shard serving options (worker threads).
  RuleServerOptions shard_options;
};

/// A sharded serving deployment: ONE served generation plus `num_shards`
/// owned-center cache slices, all in this process. It is a `ServeSession`
/// whose `Create` splits the candidate centers once at load by
/// `PartitionGraph`'s center ownership (its radius, the loaded rule set's,
/// only weights the balance); each shard answers for its owned centers
/// only, matching them on the shared parent CSR — so any rule radius,
/// including a deeper maintained one, is served. The session's one gather
/// scatters a request by center ownership, gathers the matches, and — for
/// `all_centers` requests — assembles the global supports and confidences
/// from the per-shard partial sums, which is exact because center
/// ownership is disjoint (the paper's summable local supports, Section
/// 5.1).
///
/// A query pins the deployment's generation once and every shard call
/// answers from it, so a reply is exactly the answer at one generation.
/// The write path (`ApplyDelta`, journal, replay, checkpoint, maintenance,
/// publish) is `ServeSession`'s: a delta is patched and published once,
/// and every shard's slice adopts it in process before it becomes visible.
///
/// Thread-safety: as `ServeSession`.
class ShardedRuleServer
    : public SnapshotSession<ShardedRuleServer, ShardedRuleServerOptions> {
 public:
  /// Partitions the candidates of `g` (see the class comment) and builds
  /// one slice per shard.
  static Result<std::unique_ptr<ShardedRuleServer>> Create(
      Graph g, std::vector<RuleRecord> rules,
      const ShardedRuleServerOptions& options = {});

  ShardedRuleServer(const ShardedRuleServer&) = delete;
  ShardedRuleServer& operator=(const ShardedRuleServer&) = delete;

  // ---- Introspection ----

  uint32_t num_shards() const noexcept {
    return static_cast<uint32_t>(slices_.size());
  }
  const CacheSlice& shard(uint32_t i) const noexcept { return *slices_[i]; }
  /// Shard owning `center`, or `num_shards()` when it is not a candidate.
  using ServeSession::OwnerOf;

 private:
  ShardedRuleServer() = default;
};

}  // namespace gpar

#endif  // GPAR_SERVE_SHARDED_RULE_SERVER_H_
