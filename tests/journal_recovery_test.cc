#include "graph/delta_journal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "graph/generator.h"
#include "graph/graph_delta.h"
#include "graph/graph_snapshot.h"
#include "graph/stats.h"
#include "identify/eip.h"
#include "pattern/pattern_generator.h"
#include "rule/rule_snapshot.h"
#include "serve/rule_server.h"
#include "serve/sharded_rule_server.h"

namespace gpar {
namespace {

struct Workload {
  Graph graph;
  std::vector<Gpar> sigma;
  std::vector<RuleRecord> records;
};

/// Same seeded workloads as the ServeEquivalence batteries.
Workload MakeWorkload(uint64_t seed) {
  Workload w;
  w.graph = (seed % 3 == 0) ? MakePokecLike(1, seed)
                            : MakeSynthetic(600, 1800, 20, seed);
  auto freq = FrequentEdgePatterns(w.graph);
  EXPECT_FALSE(freq.empty());
  Predicate q{freq[0].src_label, freq[0].edge_label, freq[0].dst_label};
  GparGenOptions gopt;
  gopt.num_nodes = 4;
  gopt.num_edges = 4;
  gopt.max_radius = 2;
  gopt.seed = seed * 31 + 1;
  w.sigma = GenerateGparWorkload(w.graph, q, 5, gopt);
  EXPECT_GE(w.sigma.size(), 2u);
  for (const Gpar& r : w.sigma) w.records.push_back({r, 0, 0.0});
  return w;
}

SessionRequest AllRequest(double eta) {
  SessionRequest req;
  req.all_centers = true;
  req.eta = eta;
  return req;
}

void ExpectSameAnswer(const SessionReply& got, const SessionReply& want,
                      const std::string& what) {
  EXPECT_EQ(got.entities, want.entities) << what;
  EXPECT_EQ(got.supp_q, want.supp_q) << what;
  EXPECT_EQ(got.supp_qbar, want.supp_qbar) << what;
  ASSERT_EQ(got.rule_evals.size(), want.rule_evals.size()) << what;
  for (size_t i = 0; i < want.rule_evals.size(); ++i) {
    EXPECT_EQ(got.rule_evals[i].supp_r, want.rule_evals[i].supp_r)
        << what << " rule " << i;
    EXPECT_EQ(got.rule_evals[i].supp_qqbar, want.rule_evals[i].supp_qqbar)
        << what << " rule " << i;
    EXPECT_DOUBLE_EQ(got.rule_evals[i].conf, want.rule_evals[i].conf)
        << what << " rule " << i;
  }
}

/// Snapshot bytes as a complete graph fingerprint (the snapshot writer is
/// deterministic, so byte equality means CSR equality).
std::string GraphBytes(const Graph& g) {
  std::ostringstream os(std::ios::binary);
  EXPECT_TRUE(WriteGraphSnapshot(g, os).ok());
  return os.str();
}

NodeId PickSourceNode(const Graph& g, std::mt19937_64& rng) {
  NodeId v = static_cast<NodeId>(rng() % g.num_nodes());
  while (g.out_edges(v).empty()) v = (v + 1) % g.num_nodes();
  return v;
}

/// A mutation batch mixing inserts and deletes, as in the
/// DeltaStreamEquivalence battery.
GraphDelta MakeMutationDelta(const Graph& g, uint64_t seed, size_t k) {
  std::mt19937_64 rng(seed);
  GraphDelta d;
  std::vector<LabelId> edge_labels;
  for (NodeId v = 0; v < g.num_nodes() && edge_labels.size() < 8; ++v) {
    for (const AdjEntry& e : g.out_edges(v)) {
      if (std::find(edge_labels.begin(), edge_labels.end(), e.label) ==
          edge_labels.end()) {
        edge_labels.push_back(e.label);
      }
    }
  }
  for (size_t i = 0; i < k; ++i) {
    NodeId src = static_cast<NodeId>(rng() % g.num_nodes());
    NodeId dst = static_cast<NodeId>(rng() % g.num_nodes());
    d.inserts.push_back({src, edge_labels[rng() % edge_labels.size()], dst});
  }
  for (size_t i = 0; i < k; ++i) {
    NodeId v = PickSourceNode(g, rng);
    const auto edges = g.out_edges(v);
    const AdjEntry& e = edges[rng() % edges.size()];
    d.deletes.push_back({v, e.label, e.other});
  }
  return d;
}

std::string SlurpFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, std::string_view bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good());
}

GraphDelta SmallDelta(uint64_t sequence) {
  GraphDelta d;
  d.sequence = sequence;
  d.inserts.push_back({1, 0, 2});
  d.inserts.push_back({2, 1, 3});
  d.deletes.push_back({4, 0, 5});
  return d;
}

/// Journal tests must leave the process-wide failpoint registry clean.
class DeltaJournalTest : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }

  std::string Path(const std::string& name) {
    std::string p =
        ::testing::TempDir() + "/" + name + "_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".wal";
    std::remove(p.c_str());  // journals append — reruns must start fresh
    return p;
  }
};

TEST_F(DeltaJournalTest, AppendReadRoundTrip) {
  const std::string path = Path("journal");
  WriteFile(path, "");  // start from an empty file
  auto journal = DeltaJournal::Open(path);
  ASSERT_TRUE(journal.ok()) << journal.status();
  DeltaJournal& j = **journal;

  // Zero sequences are stamped monotonically.
  std::vector<GraphDelta> frames{SmallDelta(0), SmallDelta(0), SmallDelta(0)};
  for (const GraphDelta& d : frames) ASSERT_TRUE(j.Append(d).ok());
  EXPECT_EQ(j.last_sequence(), 3u);
  EXPECT_EQ(j.frames_appended(), 3u);
  EXPECT_GT(j.size_bytes(), 0u);

  JournalReplayStats stats;
  auto read = DeltaJournal::ReadAll(path, &stats);
  ASSERT_TRUE(read.ok()) << read.status();
  ASSERT_EQ(read->size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    GraphDelta want = frames[i];
    want.sequence = i + 1;
    EXPECT_EQ((*read)[i], want) << "frame " << i;
  }
  EXPECT_EQ(stats.frames, 3u);
  EXPECT_EQ(stats.last_sequence, 3u);
  EXPECT_EQ(stats.valid_bytes, j.size_bytes());
  EXPECT_FALSE(stats.tail_truncated);

  // A missing file is an empty journal, not an error.
  auto empty = DeltaJournal::ReadAll(Path("missing"));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST_F(DeltaJournalTest, ExplicitSequencesMustBeMonotone) {
  const std::string path = Path("journal");
  auto journal = DeltaJournal::Open(path);
  ASSERT_TRUE(journal.ok());
  DeltaJournal& j = **journal;
  ASSERT_TRUE(j.Append(SmallDelta(5)).ok());
  EXPECT_FALSE(j.Append(SmallDelta(5)).ok());  // equal
  EXPECT_FALSE(j.Append(SmallDelta(4)).ok());  // backwards
  ASSERT_TRUE(j.Append(SmallDelta(7)).ok());   // gaps are fine
  EXPECT_EQ(j.last_sequence(), 7u);
  // A rejected append wrote nothing.
  auto read = DeltaJournal::ReadAll(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->size(), 2u);
}

TEST_F(DeltaJournalTest, NonMonotoneFrameIsCorruptionNotTornTail) {
  // Two checksum-valid frames with the sequence running backwards: that is
  // foreign/reordered data, not a crash artifact — the scan must refuse to
  // truncate away valid history.
  std::string bytes = SmallDelta(2).Serialize() + SmallDelta(1).Serialize();
  std::vector<GraphDelta> frames;
  JournalReplayStats stats;
  Status st = DeltaJournal::ScanBuffer(bytes, &frames, &stats);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st;
  EXPECT_NE(st.message().find("non-monotone"), std::string::npos) << st;

  // And Open refuses the file for the same reason.
  const std::string path = Path("journal");
  WriteFile(path, bytes);
  EXPECT_FALSE(DeltaJournal::Open(path).ok());
}

TEST_F(DeltaJournalTest, CompactKeepsSequenceFloorAcrossReopen) {
  const std::string path = Path("journal");
  {
    auto journal = DeltaJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    DeltaJournal& j = **journal;
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(j.Append(SmallDelta(0)).ok());
    ASSERT_TRUE(j.Compact().ok());
    EXPECT_EQ(j.last_sequence(), 3u);
    EXPECT_EQ(j.frames_appended(), 1u);  // just the floor marker

    // The marker is an empty frame carrying the floor sequence.
    auto read = DeltaJournal::ReadAll(path);
    ASSERT_TRUE(read.ok());
    ASSERT_EQ(read->size(), 1u);
    EXPECT_EQ((*read)[0].sequence, 3u);
    EXPECT_TRUE((*read)[0].inserts.empty());
    EXPECT_TRUE((*read)[0].deletes.empty());

    // Appends keep counting past the floor.
    ASSERT_TRUE(j.Append(SmallDelta(0)).ok());
    EXPECT_EQ(j.last_sequence(), 4u);
  }
  // ... even across a close/reopen of the compacted journal.
  auto reopened = DeltaJournal::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->last_sequence(), 4u);
  ASSERT_TRUE((*reopened)->Append(SmallDelta(0)).ok());
  EXPECT_EQ((*reopened)->last_sequence(), 5u);
}

TEST_F(DeltaJournalTest, OpenTruncatesTornTailInPlace) {
  const std::string path = Path("journal");
  const std::string good =
      SmallDelta(1).Serialize() + SmallDelta(2).Serialize();
  // A torn third frame: only half its bytes reached the disk.
  const std::string torn = SmallDelta(3).Serialize();
  WriteFile(path, good + torn.substr(0, torn.size() / 2));

  JournalReplayStats scan;
  auto journal = DeltaJournal::Open(path, {}, &scan);
  ASSERT_TRUE(journal.ok()) << journal.status();
  EXPECT_TRUE(scan.tail_truncated);
  EXPECT_EQ(scan.frames, 2u);
  EXPECT_EQ(scan.valid_bytes, good.size());
  EXPECT_EQ(scan.dropped_bytes, torn.size() - torn.size() / 2);
  EXPECT_EQ((*journal)->last_sequence(), 2u);

  // The file itself was cut back to the valid prefix, and appending after
  // recovery extends that prefix cleanly.
  EXPECT_EQ(SlurpFile(path), good);
  ASSERT_TRUE((*journal)->Append(SmallDelta(0)).ok());
  auto read = DeltaJournal::ReadAll(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->size(), 3u);
  EXPECT_EQ((*read)[2].sequence, 3u);
}

TEST_F(DeltaJournalTest, InjectedTornWriteFailsStopUntilReopen) {
  const std::string path = Path("journal");
  auto journal = DeltaJournal::Open(path);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*journal)->Append(SmallDelta(0)).ok());
  const uint64_t good_bytes = (*journal)->size_bytes();

  FailpointSpec spec;
  spec.torn_bytes = 7;
  FailpointRegistry::Instance().Arm("journal.append_torn", spec);
  Status torn = (*journal)->Append(SmallDelta(0));
  EXPECT_EQ(torn.code(), StatusCode::kIoError) << torn;
  FailpointRegistry::Instance().DisarmAll();

  // Fail-stop: every later append reports the failed state ...
  Status after = (*journal)->Append(SmallDelta(0));
  EXPECT_EQ(after.code(), StatusCode::kIoError) << after;
  EXPECT_NE(after.message().find("torn write"), std::string::npos) << after;

  // ... and reopening the path recovers the valid prefix (frame 1 only).
  journal->reset();
  JournalReplayStats scan;
  auto reopened = DeltaJournal::Open(path, {}, &scan);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(scan.tail_truncated);
  EXPECT_EQ(scan.frames, 1u);
  EXPECT_EQ(scan.valid_bytes, good_bytes);
  ASSERT_TRUE((*reopened)->Append(SmallDelta(0)).ok());
  EXPECT_EQ((*reopened)->last_sequence(), 2u);
}

TEST_F(DeltaJournalTest, FsyncOnAppendOptionHolds) {
  DeltaJournalOptions opt;
  opt.fsync_on_append = true;
  auto journal = DeltaJournal::Open(Path("journal"), opt);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE((*journal)->Append(SmallDelta(0)).ok());
  EXPECT_EQ((*journal)->last_sequence(), 1u);
}

/// Crash-recovery battery fixture: snapshots + journal in TempDir, unique
/// per test and seed.
class JournalRecovery : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }

  std::string Path(const std::string& name, uint64_t seed,
                   const char* ext = "") {
    std::string p =
        ::testing::TempDir() + "/" + name + "_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
        std::to_string(seed) + ext;
    std::remove(p.c_str());  // journals append — reruns must start fresh
    return p;
  }
};

/// Truncate-at-every-byte: a journal written by a live server is sliced at
/// EVERY byte offset; each slice must scan to exactly the frames whose
/// last byte fits, flag everything else as a torn tail, and replay
/// (snapshot + PatchGraph chain) to the reference graph for that frame
/// count. Full server recovery is then checked at every frame boundary.
TEST_F(JournalRecovery, TruncateAtEveryByteOffsetReplaysValidPrefix) {
  constexpr int kBatches = 3;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Workload w = MakeWorkload(seed);
    const std::string gpath = Path("graph", seed, ".snap");
    const std::string rpath = Path("rules", seed, ".snap");
    const std::string jpath = Path("journal", seed, ".wal");
    ASSERT_TRUE(WriteGraphSnapshotFile(w.graph, gpath).ok());
    ASSERT_TRUE(
        WriteRuleSetSnapshotFile(w.records, w.graph.labels(), rpath).ok());

    // A live server journals a short mutation stream.
    RuleServerOptions opt;
    opt.num_workers = 2;
    auto live = RuleServer::Create(w.graph, w.records, opt);
    ASSERT_TRUE(live.ok()) << live.status();
    ASSERT_TRUE((*live)->AttachJournal(jpath).ok());
    EXPECT_TRUE((*live)->journal_attached());
    for (int b = 0; b < kBatches; ++b) {
      GraphDelta d = MakeMutationDelta(*(*live)->graph_snapshot(), seed * 613 + b, 5);
      auto ds = (*live)->ApplyDelta(d);
      ASSERT_TRUE(ds.ok()) << ds.status();
      EXPECT_EQ(ds->sequence, static_cast<uint64_t>(b) + 1);
      EXPECT_GT(ds->journal_bytes, 0u);
    }
    EXPECT_EQ((*live)->journal_sequence(), static_cast<uint64_t>(kBatches));

    // Reference: the journaled frames and the graph after each of them.
    const std::string bytes = SlurpFile(jpath);
    auto ref = DeltaJournal::ReadAll(jpath);
    ASSERT_TRUE(ref.ok()) << ref.status();
    ASSERT_EQ(ref->size(), static_cast<size_t>(kBatches));
    std::vector<size_t> boundaries{0};
    std::vector<std::string> graph_at{GraphBytes(w.graph)};
    {
      Graph cur = w.graph;
      size_t pos = 0;
      for (const GraphDelta& frame : *ref) {
        auto fs = GraphDelta::FrameSize(
            std::string_view(bytes).substr(pos));
        ASSERT_TRUE(fs.ok());
        pos += *fs;
        boundaries.push_back(pos);
        auto p = PatchGraph(cur, frame);
        ASSERT_TRUE(p.ok());
        cur = std::move(p->graph);
        graph_at.push_back(GraphBytes(cur));
      }
      ASSERT_EQ(pos, bytes.size());
    }
    EXPECT_EQ(GraphBytes(*(*live)->graph_snapshot()), graph_at.back());

    // Every byte offset: scan + replay the slice.
    size_t frames_before = 0;
    for (size_t cut = 0; cut <= bytes.size(); ++cut) {
      while (frames_before + 1 < boundaries.size() &&
             boundaries[frames_before + 1] <= cut) {
        ++frames_before;
      }
      std::vector<GraphDelta> frames;
      JournalReplayStats stats;
      Status st = DeltaJournal::ScanBuffer(
          std::string_view(bytes).substr(0, cut), &frames, &stats);
      ASSERT_TRUE(st.ok()) << "cut " << cut << ": " << st;
      ASSERT_EQ(frames.size(), frames_before) << "cut " << cut;
      EXPECT_EQ(stats.valid_bytes, boundaries[frames_before])
          << "cut " << cut;
      EXPECT_EQ(stats.tail_truncated, cut != boundaries[frames_before])
          << "cut " << cut;
      EXPECT_EQ(stats.dropped_bytes, cut - boundaries[frames_before])
          << "cut " << cut;
      for (size_t i = 0; i < frames.size(); ++i) {
        ASSERT_EQ(frames[i], (*ref)[i]) << "cut " << cut << " frame " << i;
      }
    }

    // Every frame boundary: full RuleServer::Recover on the sliced file is
    // byte-equivalent to the reference trajectory; and at one mid-frame
    // cut, recovery truncates the torn tail and lands on the prior
    // boundary.
    for (size_t f = 0; f < boundaries.size(); ++f) {
      WriteFile(jpath, std::string_view(bytes).substr(0, boundaries[f]));
      JournalReplayStats replay;
      auto recovered =
          RuleServer::Recover(gpath, rpath, jpath, opt, {}, &replay);
      ASSERT_TRUE(recovered.ok()) << "boundary " << f << ": "
                                  << recovered.status();
      EXPECT_EQ(replay.frames, f);
      EXPECT_FALSE(replay.tail_truncated);
      EXPECT_EQ(GraphBytes(*(*recovered)->graph_snapshot()), graph_at[f])
          << "boundary " << f;
      EXPECT_EQ((*recovered)->journal_sequence(), static_cast<uint64_t>(f));
    }
    const size_t mid = (boundaries[1] + boundaries[2]) / 2;
    WriteFile(jpath, std::string_view(bytes).substr(0, mid));
    JournalReplayStats replay;
    auto recovered =
        RuleServer::Recover(gpath, rpath, jpath, opt, {}, &replay);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_TRUE(replay.tail_truncated);
    EXPECT_EQ(replay.frames, 1u);
    EXPECT_EQ(GraphBytes(*(*recovered)->graph_snapshot()), graph_at[1]);

    // The recovered server answers exactly like the live one (restore the
    // full journal first).
    WriteFile(jpath, bytes);
    auto full = RuleServer::Recover(gpath, rpath, jpath, opt);
    ASSERT_TRUE(full.ok()) << full.status();
    auto a = (*full)->Query(AllRequest(0.5));
    auto b = (*live)->Query(AllRequest(0.5));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectSameAnswer(*a, *b, "recovered vs live");
  }
}

/// Kill-at-every-failpoint: crash the ApplyDelta pipeline at each injection
/// site in turn; the recovered server must be byte-equivalent to snapshot +
/// replay — the delta is either wholly in (crash after append) or wholly
/// out (crash before/during append), never half-applied.
TEST_F(JournalRecovery, KillAtEveryAppendAndPublishSite) {
  struct Crash {
    const char* site;
    int64_t torn_bytes;  ///< < 0: plain error injection
    bool delta_survives;  ///< frame reached the journal before the crash
  };
  const Crash kCrashes[] = {
      {"journal.append", -1, false},
      {"journal.append_torn", 11, false},
      {"serve.publish", -1, true},
  };
  for (uint64_t seed = 0; seed < 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Workload w = MakeWorkload(seed);
    const std::string gpath = Path("graph", seed, ".snap");
    const std::string rpath = Path("rules", seed, ".snap");
    ASSERT_TRUE(WriteGraphSnapshotFile(w.graph, gpath).ok());
    ASSERT_TRUE(
        WriteRuleSetSnapshotFile(w.records, w.graph.labels(), rpath).ok());
    const GraphDelta d1 = MakeMutationDelta(w.graph, seed * 31 + 1, 4);
    auto p1 = PatchGraph(w.graph, d1);
    ASSERT_TRUE(p1.ok());
    const GraphDelta d2 = MakeMutationDelta(p1->graph, seed * 31 + 2, 4);
    auto p2 = PatchGraph(p1->graph, d2);
    ASSERT_TRUE(p2.ok());

    RuleServerOptions opt;
    opt.num_workers = 2;
    for (const Crash& crash : kCrashes) {
      SCOPED_TRACE(crash.site);
      const std::string jpath =
          Path(std::string("journal_") + crash.site, seed) + ".wal";
      WriteFile(jpath, "");
      auto live = RuleServer::Recover(gpath, rpath, jpath, opt);
      ASSERT_TRUE(live.ok()) << live.status();
      ASSERT_TRUE((*live)->ApplyDelta(d1).ok());
      const std::string before = GraphBytes(*(*live)->graph_snapshot());

      FailpointSpec spec;
      spec.code = StatusCode::kIoError;
      spec.torn_bytes = crash.torn_bytes;
      FailpointRegistry::Instance().Arm(crash.site, spec);
      auto failed = (*live)->ApplyDelta(d2);
      ASSERT_FALSE(failed.ok()) << crash.site;
      FailpointRegistry::Instance().DisarmAll();
      // The crash never leaks into the served state: published answers
      // still come from the pre-crash graph.
      EXPECT_EQ(GraphBytes(*(*live)->graph_snapshot()), before);

      // "Crash" = drop the process state; recover from snapshot + journal.
      live->reset();
      auto recovered = RuleServer::Recover(gpath, rpath, jpath, opt);
      ASSERT_TRUE(recovered.ok()) << recovered.status();
      const Graph& want = crash.delta_survives ? p2->graph : p1->graph;
      EXPECT_EQ(GraphBytes(*(*recovered)->graph_snapshot()), GraphBytes(want));

      auto got = (*recovered)->Query(AllRequest(0.5));
      ASSERT_TRUE(got.ok());
      auto fresh = RuleServer::Create(want, w.records, opt);
      ASSERT_TRUE(fresh.ok());
      auto want_ans = (*fresh)->Query(AllRequest(0.5));
      ASSERT_TRUE(want_ans.ok());
      ExpectSameAnswer(*got, *want_ans, std::string("recovered after ") +
                                            crash.site);
    }
  }
}

TEST_F(JournalRecovery, LoadAndReplayFailpointsFailRecoveryCleanly) {
  Workload w = MakeWorkload(1);
  const std::string gpath = Path("graph", 1, ".snap");
  const std::string rpath = Path("rules", 1, ".snap");
  const std::string jpath = Path("journal", 1, ".wal");
  ASSERT_TRUE(WriteGraphSnapshotFile(w.graph, gpath).ok());
  ASSERT_TRUE(
      WriteRuleSetSnapshotFile(w.records, w.graph.labels(), rpath).ok());
  {
    auto live = RuleServer::Create(w.graph, w.records);
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE((*live)->AttachJournal(jpath).ok());
    ASSERT_TRUE(
        (*live)->ApplyDelta(MakeMutationDelta(w.graph, 77, 3)).ok());
  }
  // A failing snapshot read aborts recovery with the injected error ...
  FailpointSpec spec;
  spec.code = StatusCode::kIoError;
  FailpointRegistry::Instance().Arm("snapshot.load", spec);
  EXPECT_FALSE(RuleServer::Recover(gpath, rpath, jpath).ok());
  // ... as does a failing journal replay scan.
  FailpointRegistry::Instance().Arm("journal.replay", spec);
  EXPECT_FALSE(RuleServer::Recover(gpath, rpath, jpath).ok());
  FailpointRegistry::Instance().DisarmAll();
  auto ok = RuleServer::Recover(gpath, rpath, jpath);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ((*ok)->journal_sequence(), 1u);
}

/// The checkpoint battery, run against one deployment type: checkpoint
/// and double-attach are rejected, compaction leaves one floor marker at
/// sequence 2, the next frame is 3, and recovery from checkpoint +
/// compacted journal reproduces the live session.
template <typename Server, typename Options>
void CheckpointBattery(const Workload& w, const Options& options,
                       const std::string& rpath, const std::string& jpath,
                       const std::string& ckpt) {
  auto live = Server::Create(w.graph, w.records, options);
  ASSERT_TRUE(live.ok());
  Server& s = **live;
  // Checkpoint requires an attached journal.
  EXPECT_FALSE(s.Checkpoint(ckpt).ok());
  ASSERT_TRUE(s.AttachJournal(jpath).ok());
  // Double-attach is rejected.
  EXPECT_FALSE(s.AttachJournal(jpath).ok());

  GraphDelta d1 = MakeMutationDelta(*s.graph_snapshot(), 21, 4);
  ASSERT_TRUE(s.ApplyDelta(d1).ok());
  GraphDelta d2 = MakeMutationDelta(*s.graph_snapshot(), 22, 4);
  ASSERT_TRUE(s.ApplyDelta(d2).ok());

  ASSERT_TRUE(s.Checkpoint(ckpt).ok());
  // Compacted: one floor marker carrying sequence 2.
  auto frames = DeltaJournal::ReadAll(jpath);
  ASSERT_TRUE(frames.ok());
  ASSERT_EQ(frames->size(), 1u);
  EXPECT_EQ((*frames)[0].sequence, 2u);
  EXPECT_TRUE((*frames)[0].inserts.empty());

  // Recovery from checkpoint + compacted journal reproduces the live graph.
  auto rec1 = Server::Recover(ckpt, rpath, jpath, options);
  ASSERT_TRUE(rec1.ok()) << rec1.status();
  EXPECT_EQ(GraphBytes(*(*rec1)->graph_snapshot()), GraphBytes(*s.graph_snapshot()));
  EXPECT_EQ((*rec1)->journal_sequence(), 2u);

  // Post-checkpoint deltas continue the sequence past the floor.
  GraphDelta d3 = MakeMutationDelta(*s.graph_snapshot(), 23, 4);
  auto ds3 = s.ApplyDelta(d3);
  ASSERT_TRUE(ds3.ok());
  EXPECT_EQ(ds3->sequence, 3u);
  auto rec2 = Server::Recover(ckpt, rpath, jpath, options);
  ASSERT_TRUE(rec2.ok()) << rec2.status();
  EXPECT_EQ(GraphBytes(*(*rec2)->graph_snapshot()), GraphBytes(*s.graph_snapshot()));

  auto a = (*rec2)->Query(AllRequest(0.5));
  auto b = s.Query(AllRequest(0.5));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameAnswer(*a, *b, "post-checkpoint recovery");
}

/// Checkpoint: snapshot + compact, after which recovery starts from the
/// fresh snapshot, replays only post-checkpoint frames, and keeps the
/// sequence counter monotone across the compaction — for a single server
/// and for a 2-shard router alike.
TEST_F(JournalRecovery, CheckpointCompactsJournalAndRecovers) {
  Workload w = MakeWorkload(2);
  const std::string gpath = Path("graph", 2, ".snap");
  const std::string rpath = Path("rules", 2, ".snap");
  ASSERT_TRUE(WriteGraphSnapshotFile(w.graph, gpath).ok());
  ASSERT_TRUE(
      WriteRuleSetSnapshotFile(w.records, w.graph.labels(), rpath).ok());

  {
    SCOPED_TRACE("RuleServer");
    CheckpointBattery<RuleServer>(w, RuleServerOptions{}, rpath,
                                  Path("journal", 2, ".wal"),
                                  Path("ckpt", 2, ".snap"));
  }
  {
    SCOPED_TRACE("ShardedRuleServer");
    ShardedRuleServerOptions sopt;
    sopt.num_shards = 2;
    sopt.shard_options.num_workers = 2;
    CheckpointBattery<ShardedRuleServer>(w, sopt, rpath,
                                         Path("sharded_journal", 2, ".wal"),
                                         Path("sharded_ckpt", 2, ".snap"));
  }
}

/// Replay pins each frame to its journaled sequence, so a journal whose
/// frames do not follow the session's own sequence is refused instead of
/// being applied on top of history it was not written against.
TEST_F(JournalRecovery, AttachRefusesFramesBehindTheSession) {
  Workload w = MakeWorkload(1);
  const std::string jpath = Path("journal", 1, ".wal");
  {
    auto writer = RuleServer::Create(w.graph, w.records);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AttachJournal(jpath).ok());
    ASSERT_TRUE((*writer)->ApplyDelta(MakeMutationDelta(w.graph, 5, 3)).ok());
  }
  auto live = RuleServer::Create(w.graph, w.records);
  ASSERT_TRUE(live.ok());
  RuleServer& s = **live;
  // Sequences are stamped with or without a journal.
  auto ds = s.ApplyDelta(MakeMutationDelta(w.graph, 6, 3));
  ASSERT_TRUE(ds.ok()) << ds.status();
  EXPECT_EQ(ds->sequence, 1u);
  const std::string before = GraphBytes(*s.graph_snapshot());
  EXPECT_EQ(s.AttachJournal(jpath).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(s.journal_attached());
  EXPECT_EQ(GraphBytes(*s.graph_snapshot()), before);
}

/// Labels minted live (`ResolveLabel`, e.g. the gpar_tool `delta`
/// command naming a label the graph has never seen) must survive
/// recovery: journal frames carry their own label definitions (v3 wire),
/// so replay against the pre-mint snapshot re-interns them. Without the
/// defs this failed with "edge insert label not interned".
TEST_F(JournalRecovery, ReplaysLabelsMintedAfterTheSnapshot) {
  Workload w = MakeWorkload(1);
  const std::string gpath = Path("graph", 1, ".snap");
  const std::string rpath = Path("rules", 1, ".snap");
  const std::string jpath = Path("journal", 1, ".wal");
  ASSERT_TRUE(WriteGraphSnapshotFile(w.graph, gpath).ok());
  ASSERT_TRUE(
      WriteRuleSetSnapshotFile(w.records, w.graph.labels(), rpath).ok());

  auto live = RuleServer::Load(gpath, rpath);
  ASSERT_TRUE(live.ok()) << live.status();
  RuleServer& s = **live;
  ASSERT_TRUE(s.AttachJournal(jpath).ok());

  // Mint a label the on-disk snapshot has never heard of, mutate with it,
  // then reference it again in a second frame (and delete through it).
  GraphDelta d1;
  const LabelId minted = ResolveLabel(s.graph_snapshot()->labels(),
                                      "minted_after_snapshot", &d1);
  d1.inserts = {{1, minted, 2}, {3, minted, 4}};
  auto ds1 = s.ApplyDelta(d1);
  ASSERT_TRUE(ds1.ok()) << ds1.status();
  EXPECT_EQ(ds1->edges_inserted, 2u);
  GraphDelta d2;
  d2.inserts = {{5, minted, 6}};
  d2.deletes = {{1, minted, 2}};
  ASSERT_TRUE(s.ApplyDelta(d2).ok());

  auto rec = RuleServer::Recover(gpath, rpath, jpath);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(GraphBytes(*(*rec)->graph_snapshot()), GraphBytes(*s.graph_snapshot()));
  EXPECT_EQ((*rec)->graph_snapshot()->labels().Lookup("minted_after_snapshot"),
            minted);
  auto a = (*rec)->Query(AllRequest(0.5));
  auto b = s.Query(AllRequest(0.5));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameAnswer(*a, *b, "minted-label recovery");
}

/// A rejected batch interns nothing. Were its minted label left in the
/// live dictionary with no journaled definition, the next frame minting a
/// label would define an id one past the orphan, and recovery would
/// refuse the journal ("label def skips ids"). A batch whose second def is
/// bad must not leave its first one interned either.
TEST_F(JournalRecovery, RejectedBatchLeavesNoOrphanLabel) {
  Workload w = MakeWorkload(1);
  const std::string gpath = Path("graph", 1, ".snap");
  const std::string rpath = Path("rules", 1, ".snap");
  const std::string jpath = Path("journal", 1, ".wal");
  ASSERT_TRUE(WriteGraphSnapshotFile(w.graph, gpath).ok());
  ASSERT_TRUE(
      WriteRuleSetSnapshotFile(w.records, w.graph.labels(), rpath).ok());

  auto live = RuleServer::Load(gpath, rpath);
  ASSERT_TRUE(live.ok()) << live.status();
  RuleServer& s = **live;
  ASSERT_TRUE(s.AttachJournal(jpath).ok());
  const Interner& labels = s.graph_snapshot()->labels();
  const size_t labels_before = labels.size();

  // An endpoint out of range rejects the batch that mints "brand_new".
  GraphDelta bad_endpoint;
  const LabelId orphan = ResolveLabel(labels, "brand_new", &bad_endpoint);
  bad_endpoint.inserts = {{999999999, orphan, 1}};
  EXPECT_EQ(s.ApplyDelta(bad_endpoint).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(labels.size(), labels_before);
  EXPECT_EQ(labels.Lookup("brand_new"), kNoLabel);

  // A def that skips ids rejects the batch after a well-formed def.
  GraphDelta bad_def;
  const LabelId first = ResolveLabel(labels, "first_def", &bad_def);
  bad_def.label_defs.push_back(
      {static_cast<LabelId>(labels_before + 5), "skipping_def"});
  bad_def.inserts = {{5, first, 12}};
  EXPECT_EQ(s.ApplyDelta(bad_def).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(labels.size(), labels_before);
  EXPECT_EQ(labels.Lookup("first_def"), kNoLabel);

  GraphDelta good;
  const LabelId minted = ResolveLabel(labels, "second_new", &good);
  EXPECT_EQ(minted, labels_before);
  good.inserts = {{5, minted, 12}};
  auto ds = s.ApplyDelta(good);
  ASSERT_TRUE(ds.ok()) << ds.status();
  EXPECT_EQ(ds->sequence, 1u);

  auto rec = RuleServer::Recover(gpath, rpath, jpath);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(GraphBytes(*(*rec)->graph_snapshot()),
            GraphBytes(*s.graph_snapshot()));
  EXPECT_EQ((*rec)->graph_snapshot()->labels().Lookup("second_new"), minted);
  auto a = (*rec)->Query(AllRequest(0.5));
  auto b = s.Query(AllRequest(0.5));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameAnswer(*a, *b, "recovery after a rejected batch");
}

/// A checkpoint replaces the snapshot durably: a torn write to the loaded
/// snapshot's own path fails without touching that file or the journal, so
/// recovery still reproduces the live session. Disarmed, the same
/// checkpoint succeeds and compacts the journal.
TEST_F(JournalRecovery, TornCheckpointKeepsSnapshotAndJournal) {
  Workload w = MakeWorkload(2);
  const std::string gpath = Path("graph", 2, ".snap");
  const std::string rpath = Path("rules", 2, ".snap");
  const std::string jpath = Path("journal", 2, ".wal");
  ASSERT_TRUE(WriteGraphSnapshotFile(w.graph, gpath).ok());
  ASSERT_TRUE(
      WriteRuleSetSnapshotFile(w.records, w.graph.labels(), rpath).ok());

  auto live = RuleServer::Load(gpath, rpath);
  ASSERT_TRUE(live.ok()) << live.status();
  RuleServer& s = **live;
  ASSERT_TRUE(s.AttachJournal(jpath).ok());
  ASSERT_TRUE(s.ApplyDelta(MakeMutationDelta(*s.graph_snapshot(), 31, 4)).ok());
  ASSERT_TRUE(s.ApplyDelta(MakeMutationDelta(*s.graph_snapshot(), 32, 4)).ok());
  const std::string snapshot_before = SlurpFile(gpath);
  const std::string journal_before = SlurpFile(jpath);

  FailpointSpec spec;
  spec.code = StatusCode::kIoError;
  spec.torn_bytes = 64;
  FailpointRegistry::Instance().Arm("checkpoint.write_torn", spec);
  EXPECT_EQ(s.Checkpoint(gpath).code(), StatusCode::kIoError);
  FailpointRegistry::Instance().DisarmAll();
  EXPECT_EQ(SlurpFile(gpath), snapshot_before);
  EXPECT_EQ(SlurpFile(jpath), journal_before);
  auto frames = DeltaJournal::ReadAll(jpath);
  ASSERT_TRUE(frames.ok());
  EXPECT_EQ(frames->size(), 2u);

  auto rec = RuleServer::Recover(gpath, rpath, jpath);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(GraphBytes(*(*rec)->graph_snapshot()),
            GraphBytes(*s.graph_snapshot()));
  auto a = (*rec)->Query(AllRequest(0.5));
  auto b = s.Query(AllRequest(0.5));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameAnswer(*a, *b, "recovery after a torn checkpoint");

  ASSERT_TRUE(s.Checkpoint(gpath).ok());
  EXPECT_EQ(SlurpFile(gpath), GraphBytes(*s.graph_snapshot()));
  frames = DeltaJournal::ReadAll(jpath);
  ASSERT_TRUE(frames.ok());
  ASSERT_EQ(frames->size(), 1u);
  EXPECT_EQ((*frames)[0].sequence, 2u);
  EXPECT_TRUE((*frames)[0].inserts.empty());
}

}  // namespace
}  // namespace gpar
