#include "maintain/maintain_command.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "graph/generator.h"
#include "graph/graph_snapshot.h"
#include "graph/stats.h"
#include "mine/dmine.h"
#include "pattern/pattern_ops.h"
#include "rule/rule_snapshot.h"
#include "serve/delta_journal.h"

namespace gpar {
namespace {

MaintainRequest SmallRequest() {
  MaintainRequest req;
  req.options.mine.num_workers = 2;
  req.options.mine.k = 3;
  req.options.mine.d = 2;
  req.options.mine.sigma = 2;
  req.options.mine.max_pattern_edges = 3;
  req.options.mine.seed_edge_limit = 8;
  req.options.mine.max_candidates_per_round = 200;
  return req;
}

/// A self-contained maintain fixture on disk: graph snapshot, v1 rule
/// snapshot (records only — forces the seeding path), and the predicate's
/// label names.
struct Fixture {
  Graph graph;
  Predicate q;
  std::string gpath, rpath;
  std::string x, edge, y;
};

Fixture MakeFixture(const std::string& tag) {
  Fixture f;
  f.graph = MakeSynthetic(250, 750, 10, 13);
  auto freq = FrequentEdgePatterns(f.graph);
  EXPECT_FALSE(freq.empty());
  f.q = {freq[0].src_label, freq[0].edge_label, freq[0].dst_label};
  f.x = f.graph.labels().Name(f.q.x_label);
  f.edge = f.graph.labels().Name(f.q.edge_label);
  f.y = f.graph.labels().Name(f.q.y_label);
  f.gpath = "/tmp/gpar_mcmd_" + tag + ".snap";
  f.rpath = "/tmp/gpar_mcmd_" + tag + ".rules";
  EXPECT_TRUE(WriteGraphSnapshotFile(f.graph, f.gpath).ok());
  EXPECT_TRUE(
      WriteRuleSetSnapshotFile({}, f.graph.labels(), f.rpath).ok());
  return f;
}

void ExpectInvalid(const Result<MaintainReport>& r, std::string_view needle) {
  ASSERT_FALSE(r.ok()) << "ran unexpectedly";
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << r.status();
  EXPECT_NE(r.status().message().find(needle), std::string::npos)
      << "message '" << r.status().message() << "' lacks '" << needle << "'";
}

TEST(MaintainExitCodeTest, PolicyMapsStatusAndStrictness) {
  EXPECT_EQ(MaintainExitCode(Status::OK(), false), 0);
  EXPECT_EQ(MaintainExitCode(Status::OK(), true), 0);
  // Usage errors are exit 2 regardless of strictness.
  EXPECT_EQ(MaintainExitCode(Status::InvalidArgument("x"), false), 2);
  EXPECT_EQ(MaintainExitCode(Status::InvalidArgument("x"), true), 2);
  // Runtime failures: 1 normally, 3 when strict mode refused the run.
  EXPECT_EQ(MaintainExitCode(Status::IoError("x"), false), 1);
  EXPECT_EQ(MaintainExitCode(Status::IoError("x"), true), 3);
  EXPECT_EQ(MaintainExitCode(Status::Corruption("x"), false), 1);
  EXPECT_EQ(MaintainExitCode(Status::Corruption("x"), true), 3);
}

TEST(MaintainOptionsFromSetupTest, UnpacksTheMiningParameters) {
  MiningSetup setup;
  setup.k = 7;
  setup.d = 3;
  setup.sigma = 11;
  setup.lambda = 0.25;
  setup.max_pattern_edges = 5;
  setup.seed_edge_limit = 12;
  setup.max_candidates_per_round = 99;
  // Bits 0-3 and 7 in DmineOptions declaration order; set an asymmetric
  // pattern. Bit 6 is retired and must be ignored.
  setup.bool_flags = (1u << 0) | (1u << 3) | (1u << 6);

  MaintainOptions base;
  base.enable_incremental_maintenance = false;
  base.mine.num_workers = 9;
  auto o = MaintainOptionsFromSetup(setup, base);
  ASSERT_TRUE(o.ok()) << o.status();
  EXPECT_EQ(o->mine.k, 7u);
  EXPECT_EQ(o->mine.d, 3u);
  EXPECT_EQ(o->mine.sigma, 11u);
  EXPECT_DOUBLE_EQ(o->mine.lambda, 0.25);
  EXPECT_EQ(o->mine.max_pattern_edges, 5u);
  EXPECT_EQ(o->mine.seed_edge_limit, 12u);
  EXPECT_EQ(o->mine.max_candidates_per_round, 99u);
  EXPECT_TRUE(o->mine.enable_incremental_div);
  EXPECT_FALSE(o->mine.enable_reduction_rules);
  EXPECT_FALSE(o->mine.enable_bisim_prefilter);
  EXPECT_TRUE(o->mine.enable_parent_prune);
  EXPECT_FALSE(o->mine.enable_prune_aware_usupp);
  // Non-setup knobs come from `base`, untouched.
  EXPECT_FALSE(o->enable_incremental_maintenance);
  EXPECT_EQ(o->mine.num_workers, 9u);
}

TEST(MaintainOptionsFromSetupTest, RejectsUnknownFlagBits) {
  MiningSetup setup;
  setup.bool_flags = 1u << 8;  // a bit this build does not know
  auto o = MaintainOptionsFromSetup(setup, {});
  ASSERT_FALSE(o.ok());
  EXPECT_EQ(o.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(o.status().message().find("unknown ablation flag"),
            std::string::npos)
      << o.status();
}

TEST(MaintainOptionsFromSetupTest, RejectsLambdaOutsideTheUnitInterval) {
  // Snapshot evidence carries lambda as raw bytes: a value no miner could
  // have been run with is refused, not adopted.
  for (double lambda : {1.5, -0.1, std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity()}) {
    MiningSetup setup;
    setup.lambda = lambda;
    auto o = MaintainOptionsFromSetup(setup, {});
    ASSERT_FALSE(o.ok()) << "lambda " << lambda;
    EXPECT_EQ(o.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(o.status().message().find("lambda"), std::string::npos)
        << o.status();
  }
  for (double lambda : {0.0, 1.0}) {
    MiningSetup setup;
    setup.lambda = lambda;
    EXPECT_TRUE(MaintainOptionsFromSetup(setup, {}).ok()) << lambda;
  }
}

TEST(MaintainCommandTest, MalformedRequestsNameTheMissingPiece) {
  MaintainRequest req = SmallRequest();
  ExpectInvalid(RunMaintain(req), "--graph-snapshot is required");

  req.graph_snapshot = "/tmp/whatever.snap";
  ExpectInvalid(RunMaintain(req), "--rules-snapshot is required");

  // A graph snapshot that does not exist is a load error, not a usage one.
  req.rules_snapshot = "/tmp/whatever.rules";
  auto r = RunMaintain(req);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().code(), StatusCode::kInvalidArgument) << r.status();

  Fixture f = MakeFixture("malformed");
  req.graph_snapshot = f.gpath;
  req.rules_snapshot = f.rpath;
  // v1 snapshot, no predicate labels: cannot seed.
  ExpectInvalid(RunMaintain(req), "no evidence section");

  req.x_label = f.x;
  req.edge_label = f.edge;
  req.y_label = "no_such_label";
  ExpectInvalid(RunMaintain(req),
                "'no_such_label' does not occur in the graph snapshot");
  std::remove(f.gpath.c_str());
  std::remove(f.rpath.c_str());
}

TEST(MaintainCommandTest, SeedsFromV1ThenRestoresFromItsV2Output) {
  Fixture f = MakeFixture("roundtrip");
  const std::string out = "/tmp/gpar_mcmd_roundtrip.out";
  MaintainRequest req = SmallRequest();
  req.graph_snapshot = f.gpath;
  req.rules_snapshot = f.rpath;
  req.out = out;
  req.x_label = f.x;
  req.edge_label = f.edge;
  req.y_label = f.y;

  auto first = RunMaintain(req);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(first->seeded);
  EXPECT_EQ(first->rules_in, 0u);
  EXPECT_GT(first->rules_out, 0u);
  EXPECT_EQ(first->out_path, out);
  EXPECT_GT(first->objective, 0.0);

  // The output is a v2 snapshot whose records equal a from-scratch Dmine.
  Interner labels = f.graph.labels();
  auto snap = ReadRuleSetSnapshotAnyFile(out, &labels);
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_TRUE(snap->has_evidence);
  auto mined = Dmine(f.graph, f.q, req.options.mine);
  ASSERT_TRUE(mined.ok()) << mined.status();
  ASSERT_EQ(snap->rules.size(), mined->topk.size());
  for (size_t i = 0; i < snap->rules.size(); ++i) {
    EXPECT_EQ(snap->rules[i].supp, mined->topk[i]->supp) << "rule " << i;
    EXPECT_EQ(snap->rules[i].conf, mined->topk[i]->conf) << "rule " << i;
  }

  // Second run: restore from the v2 output — the persisted setup wins, so
  // no predicate labels are needed; zero journal frames to apply.
  MaintainRequest again = SmallRequest();
  again.graph_snapshot = f.gpath;
  again.rules_snapshot = out;
  auto second = RunMaintain(again);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_FALSE(second->seeded);
  EXPECT_EQ(second->rules_in, first->rules_out);
  EXPECT_EQ(second->rules_out, first->rules_out);
  EXPECT_EQ(second->objective, first->objective);
  std::remove(f.gpath.c_str());
  std::remove(f.rpath.c_str());
  std::remove(out.c_str());
}

// Bits 4-6 of the evidence setup packed switches that no longer exist. A
// v2 section written with any of them flipped still restores through
// FromEvidence, maintains across a journal frame to exactly what Dmine
// mines on the patched graph, and is written back with the bits at their
// canonical values.
TEST(MaintainCommandTest, RetiredFlagBitsAreIgnoredOnRestore) {
  Fixture f = MakeFixture("retired");
  const std::string seeded = "/tmp/gpar_mcmd_retired.seeded";
  const std::string flipped = "/tmp/gpar_mcmd_retired.flipped";
  const std::string out = "/tmp/gpar_mcmd_retired.out";
  const std::string wal = "/tmp/gpar_mcmd_retired.wal";
  std::remove(wal.c_str());
  MaintainRequest req = SmallRequest();
  req.graph_snapshot = f.gpath;
  req.rules_snapshot = f.rpath;
  req.out = seeded;
  req.x_label = f.x;
  req.edge_label = f.edge;
  req.y_label = f.y;
  ASSERT_TRUE(RunMaintain(req).ok());
  Interner labels = f.graph.labels();
  auto base = ReadRuleSetSnapshotAnyFile(seeded, &labels);
  ASSERT_TRUE(base.ok()) << base.status();
  ASSERT_TRUE(base->has_evidence);
  // Default options keep writing the retired bits at their old defaults
  // (on, off, on), so default snapshots are unchanged on disk.
  EXPECT_EQ(base->evidence.setup.bool_flags & 0x70u, (1u << 4) | (1u << 6));

  GraphDelta d;
  d.sequence = 1;
  for (NodeId v = 0; v < 10; ++v) {
    d.inserts.push_back({static_cast<NodeId>(v * 7 + 1), f.q.edge_label,
                         static_cast<NodeId>(v * 11 + 2)});
  }
  {
    auto j = DeltaJournal::Open(wal);
    ASSERT_TRUE(j.ok()) << j.status();
    ASSERT_TRUE((*j)->Append(d).ok());
  }
  auto patched = PatchGraph(f.graph, d);
  ASSERT_TRUE(patched.ok()) << patched.status();
  auto mined = Dmine(patched->graph, f.q, req.options.mine);
  ASSERT_TRUE(mined.ok()) << mined.status();

  for (uint32_t bit : {4u, 5u, 6u}) {
    RuleSetEvidence evidence = base->evidence;
    evidence.setup.bool_flags ^= 1u << bit;
    ASSERT_TRUE(WriteRuleSetSnapshotV2File(base->rules, evidence,
                                           f.graph.labels(), flipped)
                    .ok());
    MaintainRequest restore = SmallRequest();
    restore.graph_snapshot = f.gpath;
    restore.rules_snapshot = flipped;
    restore.journal = wal;
    restore.out = out;
    auto r = RunMaintain(restore);
    ASSERT_TRUE(r.ok()) << "bit " << bit << ": " << r.status();
    EXPECT_FALSE(r->seeded);
    EXPECT_EQ(r->last_sequence, 1u);

    Interner out_labels = patched->graph.labels();
    auto snap = ReadRuleSetSnapshotAnyFile(out, &out_labels);
    ASSERT_TRUE(snap.ok()) << snap.status();
    EXPECT_EQ(snap->evidence.setup, base->evidence.setup) << "bit " << bit;
    ASSERT_EQ(snap->rules.size(), mined->topk.size()) << "bit " << bit;
    for (size_t i = 0; i < snap->rules.size(); ++i) {
      EXPECT_EQ(snap->rules[i].supp, mined->topk[i]->supp) << "rule " << i;
      EXPECT_EQ(snap->rules[i].conf, mined->topk[i]->conf) << "rule " << i;
      EXPECT_EQ(StructuralHash(snap->rules[i].rule.pr()),
                StructuralHash(mined->topk[i]->rule.pr()))
          << "rule " << i;
    }
  }
  for (const std::string& p : {f.gpath, f.rpath, seeded, flipped, out, wal}) {
    std::remove(p.c_str());
  }
}

TEST(MaintainCommandTest, ReplaysTheJournalAndReportsTheScan) {
  Fixture f = MakeFixture("journal");
  const std::string wal = "/tmp/gpar_mcmd_journal.wal";
  const std::string out = "/tmp/gpar_mcmd_journal.out";
  std::remove(wal.c_str());
  {
    auto j = DeltaJournal::Open(wal);
    ASSERT_TRUE(j.ok()) << j.status();
    for (uint64_t s = 1; s <= 2; ++s) {
      GraphDelta d;
      d.sequence = s;
      for (NodeId v = 0; v < 10; ++v) {
        d.inserts.push_back(
            {static_cast<NodeId>(v * 7 + s), f.q.edge_label,
             static_cast<NodeId>(v * 11 + 2 * s)});
      }
      ASSERT_TRUE((*j)->Append(d).ok());
    }
  }

  MaintainRequest req = SmallRequest();
  req.graph_snapshot = f.gpath;
  req.rules_snapshot = f.rpath;
  req.journal = wal;
  req.out = out;
  req.x_label = f.x;
  req.edge_label = f.edge;
  req.y_label = f.y;
  auto r = RunMaintain(req);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->journal_scan.frames, 2u);
  EXPECT_EQ(r->last_sequence, 2u);
  EXPECT_TRUE(r->warnings.empty());
  // Seed pass + 2 replayed frames.
  EXPECT_EQ(r->stats.passes, 3u);

  // The maintained output equals Dmine on the journal-patched graph.
  Graph patched = f.graph;
  ASSERT_TRUE(ReplayRange(wal, 0, [&](const GraphDelta& d) -> Status {
                auto p = PatchGraph(patched, d);
                GPAR_RETURN_NOT_OK(p.status());
                patched = std::move(p)->graph;
                return Status::OK();
              }).ok());
  Interner labels = patched.labels();
  auto snap = ReadRuleSetSnapshotAnyFile(out, &labels);
  ASSERT_TRUE(snap.ok()) << snap.status();
  auto mined = Dmine(patched, f.q, req.options.mine);
  ASSERT_TRUE(mined.ok()) << mined.status();
  ASSERT_EQ(snap->rules.size(), mined->topk.size());
  for (size_t i = 0; i < snap->rules.size(); ++i) {
    EXPECT_EQ(snap->rules[i].supp, mined->topk[i]->supp) << "rule " << i;
    EXPECT_EQ(snap->rules[i].conf, mined->topk[i]->conf) << "rule " << i;
  }
  std::remove(f.gpath.c_str());
  std::remove(f.rpath.c_str());
  std::remove(wal.c_str());
  std::remove(out.c_str());
}

TEST(MaintainCommandTest, TornTailIsStrictErrorOrWarning) {
  Fixture f = MakeFixture("torn");
  const std::string wal = "/tmp/gpar_mcmd_torn.wal";
  const std::string out = "/tmp/gpar_mcmd_torn.out";
  std::remove(wal.c_str());
  {
    auto j = DeltaJournal::Open(wal);
    ASSERT_TRUE(j.ok()) << j.status();
    GraphDelta d;
    d.sequence = 1;
    d.inserts.push_back({1, f.q.edge_label, 2});
    ASSERT_TRUE((*j)->Append(d).ok());
    // Tear a second frame: append half its bytes raw.
    GraphDelta torn;
    torn.sequence = 2;
    torn.inserts.push_back({3, f.q.edge_label, 4});
    std::string frame = torn.Serialize();
    std::ofstream os(wal, std::ios::binary | std::ios::app);
    os.write(frame.data(), static_cast<std::streamsize>(frame.size() / 2));
  }

  MaintainRequest req = SmallRequest();
  req.graph_snapshot = f.gpath;
  req.rules_snapshot = f.rpath;
  req.journal = wal;
  req.out = out;
  req.x_label = f.x;
  req.edge_label = f.edge;
  req.y_label = f.y;

  req.strict = true;
  auto strict = RunMaintain(req);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kCorruption);
  EXPECT_NE(strict.status().message().find("torn tail"), std::string::npos)
      << strict.status();
  EXPECT_NE(strict.status().message().find("strict mode"), std::string::npos)
      << strict.status();
  EXPECT_EQ(MaintainExitCode(strict.status(), req.strict), 3);

  req.strict = false;
  auto lax = RunMaintain(req);
  ASSERT_TRUE(lax.ok()) << lax.status();
  ASSERT_EQ(lax->warnings.size(), 1u);
  EXPECT_NE(lax->warnings[0].find("torn tail"), std::string::npos);
  EXPECT_TRUE(lax->journal_scan.tail_truncated);
  EXPECT_EQ(lax->last_sequence, 1u);  // the intact prefix applied
  std::remove(f.gpath.c_str());
  std::remove(f.rpath.c_str());
  std::remove(wal.c_str());
  std::remove(out.c_str());
}

}  // namespace
}  // namespace gpar
