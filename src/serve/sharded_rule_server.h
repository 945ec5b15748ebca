#ifndef GPAR_SERVE_SHARDED_RULE_SERVER_H_
#define GPAR_SERVE_SHARDED_RULE_SERVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "parallel/thread_pool.h"
#include "rule/rule_snapshot.h"
#include "serve/serve_session.h"

namespace gpar {

/// Options for `ShardedRuleServer`.
struct ShardedRuleServerOptions {
  /// Number of shards. 1 is a valid (router + one shard) deployment, handy
  /// for A/B against a plain `RuleServer`. The router scatters requests on
  /// one thread per shard.
  uint32_t num_shards = 2;
  /// Per-shard serving options (worker threads, cache size, ...).
  RuleServerOptions shard_options;
};

/// A sharded serving deployment: ONE served generation plus `num_shards`
/// owned-center cache slices, all in this process. The candidate centers
/// are split once at load by `PartitionGraph`'s center ownership (its
/// radius, the loaded rule set's, only weights the balance); each shard
/// answers for its owned centers only, matching them on the shared parent
/// CSR — so any rule radius, including a deeper maintained one, is served.
/// This thin router scatters a request by center ownership, gathers the
/// matches, and — for `all_centers` requests — assembles the global
/// supports and confidences from the per-shard partial sums, which is
/// exact because center ownership is disjoint (the paper's summable local
/// supports, Section 5.1).
///
/// A query pins the deployment's generation once and every shard call
/// answers from it, so a reply is exactly the answer at one generation.
/// `ServeSession::Query` has validated the request before the scatter, so
/// a shard call cannot fail. The write path (`ApplyDelta`, journal,
/// replay, checkpoint, maintenance, publish) is `ServeSession`'s: a delta
/// is patched and published once, and every shard's slice adopts it in
/// process before it becomes visible.
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
  uint32_t OwnerOf(NodeId center) const;

 private:
  ShardedRuleServer() = default;

  /// Point lookups scatter by center ownership; `all_centers` asks every
  /// shard and sums the partial supports.
  void Gather(const Generation& st, const SessionRequest& request,
              const std::vector<uint32_t>& selected,
              SessionReply* reply) override;

  /// One shard's part of a scattered request.
  struct ShardCall {
    uint32_t shard = 0;
    SessionRequest request;
    SessionReply reply;
  };
  /// Answers `calls` at generation `st` — on the caller when there is just
  /// one, else on the router pool — and sums their shard stats into
  /// `reply->stats`; callers merge the calls' replies.
  void Scatter(const Generation& st, const std::vector<uint32_t>& selected,
               std::vector<ShardCall>& calls, SessionReply* reply) const;
  void GatherPoint(const Generation& st, const SessionRequest& request,
                   const std::vector<uint32_t>& selected,
                   SessionReply* reply) const;
  void GatherAll(const Generation& st, const SessionRequest& request,
                 const std::vector<uint32_t>& selected,
                 SessionReply* reply) const;

  std::vector<uint32_t> owner_;  ///< parallel to candidates_
  /// Scatter pool — deliberately separate from the slices' matching pools:
  /// a router task blocks on a slice's answer, and blocking waits must
  /// never share a pool with the tasks they wait for.
  std::unique_ptr<ThreadPool> router_pool_;
};

}  // namespace gpar

#endif  // GPAR_SERVE_SHARDED_RULE_SERVER_H_
