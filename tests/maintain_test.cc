#include "maintain/rule_maintainer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "graph/generator.h"
#include "graph/graph_delta.h"
#include "graph/stats.h"
#include "mine/dmine.h"
#include "rule/rule_snapshot.h"
#include "serve/delta_journal.h"
#include "serve/rule_server.h"
#include "serve/sharded_rule_server.h"

namespace gpar {
namespace {

MaintainOptions SmallMaintain() {
  MaintainOptions opt;
  opt.mine.num_workers = 2;
  opt.mine.k = 3;
  opt.mine.d = 2;
  opt.mine.sigma = 2;
  opt.mine.lambda = 0.5;
  opt.mine.max_pattern_edges = 3;
  opt.mine.seed_edge_limit = 8;
  opt.mine.max_candidates_per_round = 200;
  return opt;
}

Predicate PickQ(const Graph& g) {
  auto freq = FrequentEdgePatterns(g);
  EXPECT_FALSE(freq.empty());
  return {freq[0].src_label, freq[0].edge_label, freq[0].dst_label};
}

std::vector<RuleRecord> DmineRecords(const Graph& g, const Predicate& q,
                                     const DmineOptions& opt) {
  auto result = Dmine(g, q, opt);
  EXPECT_TRUE(result.ok()) << result.status();
  std::vector<RuleRecord> records;
  if (result.ok()) {
    for (const auto& r : result->topk) {
      records.push_back({r->rule, r->supp, r->conf});
    }
  }
  return records;
}

/// The maintained invariant, asserted byte-for-byte: every record the
/// maintainer serves — pattern, supp, conf — equals what a from-scratch
/// Dmine on the same graph returns, in the same order.
void ExpectMatchesDmine(const RuleMaintainer& m, const std::string& what) {
  std::vector<RuleRecord> want =
      DmineRecords(*m.graph(), m.predicate(), m.options().mine);
  std::vector<RuleRecord> got = m.TopKRecords();
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].supp, want[i].supp) << what << " rule " << i;
    EXPECT_EQ(got[i].conf, want[i].conf) << what << " rule " << i;
    EXPECT_EQ(got[i].rule.pr().num_edges(), want[i].rule.pr().num_edges())
        << what << " rule " << i;
  }
  EXPECT_EQ(got, want) << what;
}

/// One churn batch: delete `k` existing edges (biased toward the q label —
/// that is what moves supports across sigma) and insert `k` edges between
/// random endpoints reusing the graph's own labels.
GraphDelta MakeChurn(const Graph& g, LabelId q_label, uint64_t seed,
                     size_t k) {
  std::mt19937_64 rng(seed);
  GraphDelta d;
  size_t q_deleted = 0;
  for (size_t i = 0; i < k; ++i) {
    NodeId v = static_cast<NodeId>(rng() % g.num_nodes());
    while (g.out_edges(v).empty()) v = (v + 1) % g.num_nodes();
    const auto edges = g.out_edges(v);
    // Prefer a q-labeled edge at this source when one exists: deleting the
    // consequent edge is what retires matches (downward crossings).
    const AdjEntry* pick = nullptr;
    if (q_deleted < k / 2) {
      for (const AdjEntry& e : edges) {
        if (e.label == q_label) {
          pick = &e;
          ++q_deleted;
          break;
        }
      }
    }
    if (pick == nullptr) pick = &edges[rng() % edges.size()];
    d.deletes.push_back({v, pick->label, pick->other});
  }
  std::vector<LabelId> labels;
  for (NodeId v = 0; v < g.num_nodes() && labels.size() < 6; ++v) {
    for (const AdjEntry& e : g.out_edges(v)) {
      if (std::find(labels.begin(), labels.end(), e.label) == labels.end()) {
        labels.push_back(e.label);
      }
    }
  }
  for (size_t i = 0; i < k; ++i) {
    NodeId src = static_cast<NodeId>(rng() % g.num_nodes());
    NodeId dst = static_cast<NodeId>(rng() % g.num_nodes());
    d.inserts.push_back(
        {src, i % 2 == 0 ? q_label : labels[rng() % labels.size()], dst});
  }
  return d;
}

TEST(MaintainTest, SeedMatchesDmine) {
  auto g = std::make_shared<const Graph>(MakeSynthetic(300, 900, 10, 11));
  Predicate q = PickQ(*g);
  auto m = RuleMaintainer::Seed(g, q, SmallMaintain());
  ASSERT_TRUE(m.ok()) << m.status();
  ExpectMatchesDmine(**m, "seed pass");
  EXPECT_GT((*m)->TopKRecords().size(), 0u);
  EXPECT_GT((*m)->objective(), 0.0);
  EXPECT_EQ((*m)->last_sequence(), 0u);
}

TEST(MaintainTest, RejectsLambdaOutsideTheUnitInterval) {
  auto g = std::make_shared<const Graph>(MakeSynthetic(200, 600, 10, 3));
  Predicate q = PickQ(*g);
  for (double lambda : {1.5, -0.1, std::numeric_limits<double>::quiet_NaN()}) {
    MaintainOptions opt = SmallMaintain();
    opt.mine.lambda = lambda;
    auto m = RuleMaintainer::Seed(g, q, opt);
    ASSERT_FALSE(m.ok()) << "lambda " << lambda;
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
  }
  for (double lambda : {0.0, 1.0}) {
    MaintainOptions opt = SmallMaintain();
    opt.mine.lambda = lambda;
    auto m = RuleMaintainer::Seed(g, q, opt);
    ASSERT_TRUE(m.ok()) << m.status();
    ExpectMatchesDmine(**m, "lambda " + std::to_string(lambda));
  }
}

TEST(MaintainTest, RejectsPruneAwareUsupp) {
  auto g = std::make_shared<const Graph>(MakeSynthetic(200, 600, 10, 3));
  Predicate q = PickQ(*g);
  MaintainOptions opt = SmallMaintain();
  opt.mine.enable_prune_aware_usupp = true;
  auto m = RuleMaintainer::Seed(g, q, opt);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
}

// The headline battery: six seeded workloads, each driven through an
// interleaved insert+delete stream with a mid-stream checkpoint and an
// end-of-stream checkpoint, where the maintained supports/confidences must
// be byte-identical to a from-scratch Dmine on the current graph. Sigma
// crossings must occur in BOTH directions somewhere across the battery —
// otherwise the stream never exercised re-expansion/retirement and the
// equivalence proved nothing about them.
TEST(MaintainEquivalenceTest, InterleavedStreamsMatchDmineAtCheckpoints) {
  const size_t kBatches = 4;
  const size_t kChurn = 30;
  uint64_t crossed_up = 0, crossed_down = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    auto g = std::make_shared<const Graph>(
        MakeSynthetic(300, 900, 10, seed * 17));
    Predicate q = PickQ(*g);
    auto m = RuleMaintainer::Seed(g, q, SmallMaintain());
    ASSERT_TRUE(m.ok()) << m.status();
    for (size_t b = 0; b < kBatches; ++b) {
      GraphDelta d = MakeChurn(*(*m)->graph(), q.edge_label,
                               seed * 1000 + b, kChurn);
      d.sequence = b + 1;
      auto ps = (*m)->ApplyDelta(d);
      ASSERT_TRUE(ps.ok()) << ps.status();
      crossed_up += ps->sigma_crossed_up;
      crossed_down += ps->sigma_crossed_down;
      if (b == kBatches / 2 - 1 || b == kBatches - 1) {
        ExpectMatchesDmine(
            **m, "seed " + std::to_string(seed) + " checkpoint after batch " +
                     std::to_string(b));
      }
    }
    EXPECT_EQ((*m)->last_sequence(), kBatches);
  }
  EXPECT_GT(crossed_up, 0u) << "no rule ever re-entered sigma";
  EXPECT_GT(crossed_down, 0u) << "no rule ever fell out of sigma";
}

// The subsystem's own ablation: enable_incremental_maintenance off means
// every pass re-probes every pool center (a sequential re-mine). Both
// settings must produce identical rule sets on an identical stream.
TEST(MaintainEquivalenceTest, IncrementalAblationIsResultIdentical) {
  auto g = std::make_shared<const Graph>(MakeSynthetic(300, 900, 10, 77));
  Predicate q = PickQ(*g);
  MaintainOptions on = SmallMaintain();
  on.enable_incremental_maintenance = true;
  MaintainOptions off = SmallMaintain();
  off.enable_incremental_maintenance = false;
  auto a = RuleMaintainer::Seed(g, q, on);
  auto b = RuleMaintainer::Seed(g, q, off);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  for (size_t batch = 0; batch < 3; ++batch) {
    GraphDelta d = MakeChurn(*(*a)->graph(), q.edge_label, 500 + batch, 25);
    d.sequence = batch + 1;
    auto pa = (*a)->ApplyDelta(d);
    auto pb = (*b)->ApplyDelta(d);
    ASSERT_TRUE(pa.ok()) << pa.status();
    ASSERT_TRUE(pb.ok()) << pb.status();
    EXPECT_EQ((*a)->TopKRecords(), (*b)->TopKRecords()) << "batch " << batch;
    EXPECT_EQ((*a)->objective(), (*b)->objective()) << "batch " << batch;
    // The ablation is the whole point of the incremental path: the on
    // maintainer must carry memberships the off maintainer re-probes.
    EXPECT_GT(pa->centers_carried, 0u);
    EXPECT_EQ(pb->centers_carried, 0u);
  }
}

// Mid-stream checkpoint through the at-rest format: export the evidence as
// a v2 snapshot, restore with FromEvidence, and drive both maintainers to
// the end of the stream — the restored one must stay byte-identical.
TEST(MaintainEquivalenceTest, SnapshotV2CheckpointRestoresMidStream) {
  const std::string path = "/tmp/gpar_maintain_ckpt.rules";
  auto g = std::make_shared<const Graph>(MakeSynthetic(300, 900, 10, 21));
  Predicate q = PickQ(*g);
  auto m = RuleMaintainer::Seed(g, q, SmallMaintain());
  ASSERT_TRUE(m.ok()) << m.status();
  for (size_t b = 0; b < 2; ++b) {
    GraphDelta d = MakeChurn(*(*m)->graph(), q.edge_label, 900 + b, 20);
    d.sequence = b + 1;
    ASSERT_TRUE((*m)->ApplyDelta(d).ok());
  }

  ASSERT_TRUE(WriteRuleSetSnapshotV2File((*m)->TopKRecords(),
                                         (*m)->ExportEvidence(),
                                         (*m)->graph()->labels(), path)
                  .ok());
  Interner labels = (*m)->graph()->labels();
  auto snap = ReadRuleSetSnapshotAnyFile(path, &labels);
  ASSERT_TRUE(snap.ok()) << snap.status();
  ASSERT_TRUE(snap->has_evidence);
  EXPECT_EQ(snap->rules, (*m)->TopKRecords());

  auto restored =
      RuleMaintainer::FromEvidence((*m)->graph(), snap->evidence,
                                   SmallMaintain());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored)->TopKRecords(), (*m)->TopKRecords());
  EXPECT_EQ((*restored)->objective(), (*m)->objective());

  for (size_t b = 2; b < 4; ++b) {
    GraphDelta d = MakeChurn(*(*m)->graph(), q.edge_label, 900 + b, 20);
    d.sequence = b + 1;
    ASSERT_TRUE((*m)->ApplyDelta(d).ok());
    ASSERT_TRUE((*restored)->ApplyDelta(d).ok());
    EXPECT_EQ((*restored)->TopKRecords(), (*m)->TopKRecords());
  }
  ExpectMatchesDmine(**restored, "restored maintainer at end of stream");
  std::remove(path.c_str());
}

TEST(MaintainEquivalenceTest, FromEvidenceRejectsForeignSetup) {
  auto g = std::make_shared<const Graph>(MakeSynthetic(200, 600, 10, 5));
  Predicate q = PickQ(*g);
  auto m = RuleMaintainer::Seed(g, q, SmallMaintain());
  ASSERT_TRUE(m.ok()) << m.status();
  MaintainOptions other = SmallMaintain();
  other.mine.sigma = SmallMaintain().mine.sigma + 1;
  auto restored = RuleMaintainer::FromEvidence(g, (*m)->ExportEvidence(),
                                               other);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Journal replay: the maintainer's snapshot + journal convergence.
// ---------------------------------------------------------------------------

TEST(MaintainJournalTest, ReplayJournalConvergesWithDirectDeltas) {
  const std::string wal = "/tmp/gpar_maintain_replay.wal";
  std::remove(wal.c_str());
  auto g = std::make_shared<const Graph>(MakeSynthetic(300, 900, 10, 31));
  Predicate q = PickQ(*g);

  auto direct = RuleMaintainer::Seed(g, q, SmallMaintain());
  auto replayed = RuleMaintainer::Seed(g, q, SmallMaintain());
  ASSERT_TRUE(direct.ok()) << direct.status();
  ASSERT_TRUE(replayed.ok()) << replayed.status();

  auto journal = DeltaJournal::Open(wal);
  ASSERT_TRUE(journal.ok()) << journal.status();
  for (size_t b = 0; b < 3; ++b) {
    GraphDelta d = MakeChurn(*(*direct)->graph(), q.edge_label, 40 + b, 20);
    d.sequence = b + 1;
    ASSERT_TRUE((*journal)->Append(d).ok());
    ASSERT_TRUE((*direct)->ApplyDelta(d).ok());
  }

  auto stats = (*replayed)->ReplayJournal(wal);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->passes, 3u);
  EXPECT_EQ((*replayed)->last_sequence(), 3u);
  EXPECT_EQ((*replayed)->TopKRecords(), (*direct)->TopKRecords());

  // Replay is idempotent: every frame is already behind last_sequence().
  auto again = (*replayed)->ReplayJournal(wal);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->passes, 0u);
  EXPECT_EQ((*replayed)->TopKRecords(), (*direct)->TopKRecords());
  std::remove(wal.c_str());
}

// ---------------------------------------------------------------------------
// DeltaJournalCursor: the read-only frame iterator ReplayJournal rides.
// ---------------------------------------------------------------------------

GraphDelta TinyDelta(uint64_t sequence, NodeId src, NodeId dst) {
  GraphDelta d;
  d.sequence = sequence;
  d.inserts.push_back({src, 0, dst});
  return d;
}

TEST(DeltaJournalCursorTest, IteratesFramesInOrder) {
  const std::string wal = "/tmp/gpar_cursor_order.wal";
  std::remove(wal.c_str());
  {
    auto j = DeltaJournal::Open(wal);
    ASSERT_TRUE(j.ok()) << j.status();
    for (uint64_t s = 1; s <= 3; ++s) {
      ASSERT_TRUE((*j)->Append(TinyDelta(s, 1, 2)).ok());
    }
  }
  auto cur = DeltaJournalCursor::Open(wal);
  ASSERT_TRUE(cur.ok()) << cur.status();
  EXPECT_EQ(cur->frames(), 3u);
  EXPECT_EQ(cur->last_sequence(), 3u);
  GraphDelta d;
  for (uint64_t s = 1; s <= 3; ++s) {
    EXPECT_EQ(cur->remaining(), 3u - (s - 1));
    ASSERT_TRUE(cur->Next(&d));
    EXPECT_EQ(d.sequence, s);
  }
  EXPECT_FALSE(cur->Next(&d));
  EXPECT_EQ(cur->remaining(), 0u);
  std::remove(wal.c_str());
}

TEST(DeltaJournalCursorTest, MissingFileIsAnEmptyJournal) {
  auto cur = DeltaJournalCursor::Open("/tmp/gpar_cursor_nope.wal");
  ASSERT_TRUE(cur.ok()) << cur.status();
  EXPECT_EQ(cur->frames(), 0u);
  GraphDelta d;
  EXPECT_FALSE(cur->Next(&d));
}

TEST(DeltaJournalCursorTest, TornTailIsCutBehindTheValidPrefix) {
  const std::string wal = "/tmp/gpar_cursor_torn.wal";
  std::remove(wal.c_str());
  {
    auto j = DeltaJournal::Open(wal);
    ASSERT_TRUE(j.ok()) << j.status();
    ASSERT_TRUE((*j)->Append(TinyDelta(1, 1, 2)).ok());
    ASSERT_TRUE((*j)->Append(TinyDelta(2, 3, 4)).ok());
  }
  {
    // A torn third frame: half a real frame's bytes appended raw.
    std::string frame = TinyDelta(3, 5, 6).Serialize();
    std::ofstream os(wal, std::ios::binary | std::ios::app);
    os.write(frame.data(), static_cast<std::streamsize>(frame.size() / 2));
  }
  JournalReplayStats scan;
  auto cur = DeltaJournalCursor::Open(wal, &scan);
  ASSERT_TRUE(cur.ok()) << cur.status();
  EXPECT_EQ(cur->frames(), 2u);
  EXPECT_TRUE(scan.tail_truncated);
  EXPECT_GT(scan.dropped_bytes, 0u);
  GraphDelta d;
  ASSERT_TRUE(cur->Next(&d));
  EXPECT_EQ(d.sequence, 1u);
  ASSERT_TRUE(cur->Next(&d));
  EXPECT_EQ(d.sequence, 2u);
  EXPECT_FALSE(cur->Next(&d));
  std::remove(wal.c_str());
}

TEST(DeltaJournalCursorTest, SeekPastSequenceHonorsTheCheckpointFloor) {
  const std::string wal = "/tmp/gpar_cursor_seek.wal";
  std::remove(wal.c_str());
  {
    auto j = DeltaJournal::Open(wal);
    ASSERT_TRUE(j.ok()) << j.status();
    for (uint64_t s = 1; s <= 4; ++s) {
      ASSERT_TRUE((*j)->Append(TinyDelta(s, 1, 2)).ok());
    }
  }
  auto cur = DeltaJournalCursor::Open(wal);
  ASSERT_TRUE(cur.ok()) << cur.status();
  cur->SeekPastSequence(2);
  GraphDelta d;
  ASSERT_TRUE(cur->Next(&d));
  EXPECT_EQ(d.sequence, 3u);
  // Only forward seeks: a floor behind the cursor does not rewind it.
  cur->SeekPastSequence(1);
  ASSERT_TRUE(cur->Next(&d));
  EXPECT_EQ(d.sequence, 4u);
  EXPECT_FALSE(cur->Next(&d));

  // A compacted journal holds just the floor marker; seeking past the
  // floor steps over it and a fresh consumer sees no frames to replay.
  {
    auto j = DeltaJournal::Open(wal);
    ASSERT_TRUE(j.ok()) << j.status();
    ASSERT_TRUE((*j)->Compact().ok());
  }
  auto after = DeltaJournalCursor::Open(wal);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->last_sequence(), 4u);
  after->SeekPastSequence(4);
  EXPECT_FALSE(after->Next(&d));
  std::remove(wal.c_str());
}

TEST(DeltaJournalCursorTest, ReplayRangeFiltersAndStopsOnError) {
  const std::string wal = "/tmp/gpar_cursor_range.wal";
  std::remove(wal.c_str());
  {
    auto j = DeltaJournal::Open(wal);
    ASSERT_TRUE(j.ok()) << j.status();
    for (uint64_t s = 1; s <= 4; ++s) {
      ASSERT_TRUE((*j)->Append(TinyDelta(s, 1, 2)).ok());
    }
  }
  std::vector<uint64_t> seen;
  ASSERT_TRUE(ReplayRange(wal, 2,
                          [&](const GraphDelta& d) {
                            seen.push_back(d.sequence);
                            return Status::OK();
                          })
                  .ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{3, 4}));

  seen.clear();
  Status st = ReplayRange(wal, 0, [&](const GraphDelta& d) {
    seen.push_back(d.sequence);
    return d.sequence == 2 ? Status::Internal("stop") : Status::OK();
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{1, 2}));
  std::remove(wal.c_str());
}

// ---------------------------------------------------------------------------
// Serve integration: maintain-on-ApplyDelta on both server tiers.
// ---------------------------------------------------------------------------

TEST(MaintainServeTest, RuleServerMaintainsOnApplyDelta) {
  Graph g = MakeSynthetic(300, 900, 10, 51);
  Predicate q = PickQ(g);
  MaintainOptions mopt = SmallMaintain();
  std::vector<RuleRecord> records = DmineRecords(g, q, mopt.mine);
  ASSERT_FALSE(records.empty());

  RuleServerOptions sopt;
  sopt.num_workers = 2;
  auto server = RuleServer::Create(g, records, sopt);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_TRUE((*server)->EnableMaintenance(mopt).ok());
  EXPECT_TRUE((*server)->maintenance_enabled());
  // Seeding on the same graph under the same options reproduces the same
  // top-k — enabling maintenance must not change the served rules.
  EXPECT_EQ((*server)->rules(), records);

  auto st = (*server)->EnableMaintenance(mopt);
  ASSERT_FALSE(st.ok());  // double-enable is an error

  Graph reference = g;
  for (size_t b = 0; b < 3; ++b) {
    GraphDelta d = MakeChurn(reference, q.edge_label, 70 + b, 25);
    d.sequence = b + 1;
    auto ref = PatchGraph(reference, d);
    ASSERT_TRUE(ref.ok());
    reference = std::move(ref)->graph;
    auto ds = (*server)->ApplyDelta(d);
    ASSERT_TRUE(ds.ok()) << ds.status();
    std::vector<RuleRecord> want = DmineRecords(reference, q, mopt.mine);
    EXPECT_EQ((*server)->rules(), want) << "batch " << b;
  }
  // The maintained server must still answer queries on the final rule set.
  auto answer = (*server)->IdentifyAll(1.0);
  ASSERT_TRUE(answer.ok()) << answer.status();
}

TEST(MaintainServeTest, UpdateRulesRejectsAForeignPredicate) {
  Graph g = MakeSynthetic(300, 900, 10, 51);
  Predicate q = PickQ(g);
  std::vector<RuleRecord> records = DmineRecords(g, q, SmallMaintain().mine);
  ASSERT_FALSE(records.empty());
  RuleServerOptions sopt;
  sopt.num_workers = 2;
  auto server = RuleServer::Create(g, records, sopt);
  ASSERT_TRUE(server.ok()) << server.status();

  // A rule set over a different predicate: re-mine against another q.
  auto freq = FrequentEdgePatterns(g);
  ASSERT_GE(freq.size(), 2u);
  Predicate other{freq[1].src_label, freq[1].edge_label, freq[1].dst_label};
  ASSERT_FALSE(other == q);
  std::vector<RuleRecord> foreign =
      DmineRecords(g, other, SmallMaintain().mine);
  ASSERT_FALSE(foreign.empty());
  Status st = (*server)->UpdateRules(foreign);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("predicate"), std::string::npos) << st;

  // The empty set is the one exception (pool death under deletes): the
  // server keeps serving with zero rules rather than failing the refresh.
  EXPECT_TRUE((*server)->UpdateRules({}).ok());
  EXPECT_TRUE((*server)->rules().empty());
  auto answer = (*server)->IdentifyAll(1.0);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(answer->rule_evals.empty());
}

TEST(MaintainServeTest, ShardedServerMaintainsOnApplyDelta) {
  Graph g = MakeSynthetic(300, 900, 10, 51);
  Predicate q = PickQ(g);
  MaintainOptions mopt = SmallMaintain();
  std::vector<RuleRecord> records = DmineRecords(g, q, mopt.mine);
  ASSERT_FALSE(records.empty());

  ShardedRuleServerOptions shopt;
  shopt.num_shards = 2;
  shopt.shard_options.num_workers = 2;
  auto sharded = ShardedRuleServer::Create(g, records, shopt);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  ShardedRuleServer& sh = **sharded;

  // The partition was cut for the mined radius, so enabling at that radius
  // succeeds; asking for a deeper maintained radius must be refused — the
  // fragment views do not cover it.
  MaintainOptions deep = mopt;
  deep.mine.d = mopt.mine.d + 3;
  Status st = sh.EnableMaintenance(deep);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("partition radius"), std::string::npos) << st;

  ASSERT_TRUE(sh.EnableMaintenance(mopt).ok());
  EXPECT_TRUE(sh.maintenance_enabled());
  EXPECT_EQ(sh.rules(), records);

  Graph reference = g;
  for (size_t b = 0; b < 2; ++b) {
    GraphDelta d = MakeChurn(reference, q.edge_label, 80 + b, 20);
    d.sequence = b + 1;
    auto ref = PatchGraph(reference, d);
    ASSERT_TRUE(ref.ok());
    reference = std::move(ref)->graph;
    auto ds = sh.ApplyDelta(d);
    ASSERT_TRUE(ds.ok()) << ds.status();
    std::vector<RuleRecord> want = DmineRecords(reference, q, mopt.mine);
    EXPECT_EQ(sh.rules(), want) << "batch " << b;

    // The refreshed set must actually be served: a sharded all-centers
    // answer sizes its evals off the refreshed records.
    SessionRequest all;
    all.all_centers = true;
    all.eta = 1.0;
    auto reply = sh.Query(all);
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->rule_evals.size(), want.size());
  }
}

// Concurrent maintain + query: deltas (and their rule refreshes) race
// all-centers queries on both server tiers. Run under TSan by the widened
// CI regex; the assertion here is freedom from data races and torn rule
// sets, not specific answers.
TEST(MaintainServeTest, ConcurrentMaintainAndQuery) {
  Graph g = MakeSynthetic(300, 900, 10, 51);
  Predicate q = PickQ(g);
  MaintainOptions mopt = SmallMaintain();
  std::vector<RuleRecord> records = DmineRecords(g, q, mopt.mine);
  ASSERT_FALSE(records.empty());
  RuleServerOptions sopt;
  sopt.num_workers = 2;
  auto server = RuleServer::Create(g, records, sopt);
  ASSERT_TRUE(server.ok()) << server.status();
  ASSERT_TRUE((*server)->EnableMaintenance(mopt).ok());
  RuleServer& s = **server;

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    Graph current = g;
    for (size_t b = 0; b < 3; ++b) {
      GraphDelta d = MakeChurn(current, q.edge_label, 90 + b, 15);
      d.sequence = b + 1;
      auto ref = PatchGraph(current, d);
      if (!ref.ok()) {
        ++failures;
        break;
      }
      current = std::move(ref)->graph;
      if (!s.ApplyDelta(d).ok()) ++failures;
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      SessionRequest all;
      all.all_centers = true;
      all.eta = 1.0;
      while (!stop.load(std::memory_order_acquire)) {
        auto r = s.Query(all);
        if (!r.ok()) {
          ++failures;
          break;
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(std::memory_order_relaxed), 0);
  EXPECT_EQ(s.rules(), DmineRecords(s.graph(), q, mopt.mine));
}

}  // namespace
}  // namespace gpar
