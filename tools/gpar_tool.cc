// gpar_tool — command-line front end for the library.
//
//   gpar_tool generate --type pokec|gplus|synthetic --scale N --out g.txt
//                      [--seed 42]
//   gpar_tool info     --graph g.txt
//   gpar_tool mine     --graph g.txt --x user --edge like_music --y music_1
//                      [--k 10 --d 2 --sigma 5 --lambda 0.5 --workers 4]
//                      [--max-edges 4]
//                      [--rules-out rules.txt] [--snapshot-out rules.snap]
//                      (--snapshot-out writes a v2 rule snapshot: the top-k
//                      plus the run's match evidence, which `maintain`
//                      restores from without mining again)
//   gpar_tool identify --graph g.txt --rules rules.txt --eta 1.0
//                      [--algo match|matchc|disvf2|seq] [--workers 4]
//   gpar_tool snapshot --graph g.txt --out g.snap
//                      [--rules rules.txt --rules-out rules.snap]
//   gpar_tool serve    --graph-snapshot g.snap --rules-snapshot rules.snap
//                      [--workers 4 --shards 1 --strict 0]
//                      [--journal deltas.wal] [--maintain 0]
//                      [--k 10 --d 2 --sigma 5 --lambda 0.5 --max-edges 4]
//                      (query loop on stdin; type `help` at the prompt;
//                      --shards k > 1 serves from a k-shard deployment,
//                      --shards 0 is a usage error; the match cache holds
//                      one entry per candidate, so it takes no size;
//                      --strict 1 exits with code 3 on the first malformed
//                      or failed query instead of continuing; --journal
//                      attaches a write-ahead delta journal — existing
//                      frames replay at startup, every later delta is
//                      appended before it is published, and the
//                      `checkpoint [path]` / `recover` loop commands
//                      snapshot+compact / rebuild from snapshot+journal;
//                      --maintain 1 enables incremental rule maintenance:
//                      the session mines once at startup under the mining
//                      flags --k .. --max-edges and keeps the top-k fresh
//                      across deltas)
//   gpar_tool maintain --graph-snapshot g.snap --rules-snapshot rules.snap
//                      [--journal deltas.wal] [--out rules2.snap]
//                      [--strict 0] [--x user --edge like_music --y music_1]
//                      [--k 10 --d 2 --sigma 5 --lambda 0.5 --max-edges 4]
//                      [--workers 4]
//                      (offline rule refresh: restores a maintainer from a
//                      v2 rule snapshot's evidence — or seeds one from a v1
//                      snapshot, which needs --x/--edge/--y and the mining
//                      flags — replays the journal, and writes the
//                      refreshed v2 snapshot to --out, default in place;
//                      --strict 1 refuses a torn-tail journal with exit 3)
//
// Every command accepts only the flags listed for it; any other flag (a
// misspelling like --sigam) is a usage error.
//
// Exit codes: 0 ok, 1 load/runtime error, 2 usage error, 3 malformed query
// or failed checkpoint/recover in --strict mode (for `maintain`: refused
// lossy history or a non-usage failure under --strict 1).
//
// Graphs use the `v/e` text format of graph_io.h; rule files use the
// Gpar::SerializeSet format (pattern codec blocks separated by `---`);
// snapshots use the binary formats of graph_snapshot.h / rule_snapshot.h.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>

#include "common/flags.h"
#include "graph/generator.h"
#include "maintain/maintain_command.h"
#include "graph/graph_io.h"
#include "graph/graph_snapshot.h"
#include "graph/stats.h"
#include "identify/eip.h"
#include "mine/dmine.h"
#include "rule/gpar.h"
#include "rule/rule_snapshot.h"
#include "serve/rule_server.h"
#include "serve/serve_command.h"
#include "serve/serve_session.h"
#include "serve/sharded_rule_server.h"

namespace {

using namespace gpar;

std::string FlagOr(const std::map<std::string, std::string>& flags,
                   const std::string& key, const std::string& def) {
  auto it = flags.find(key);
  return it == flags.end() ? def : it->second;
}

std::string RequireFlag(const std::map<std::string, std::string>& flags,
                        const std::string& key) {
  auto it = flags.find(key);
  if (it == flags.end()) {
    std::fprintf(stderr, "missing required --%s\n", key.c_str());
    std::exit(2);
  }
  return it->second;
}

/// Exits with a usage error (2) on a flag the command does not know.
void RequireKnownFlags(const FlagMap& flags,
                       std::initializer_list<std::string_view> known) {
  const Status s = CheckKnownFlags(flags, known);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.message().c_str());
    std::exit(2);
  }
}

/// Checked numeric flag lookups: a malformed value is a usage error (exit
/// 2), not an uncaught std::stoul exception.
template <typename T>
T NumFlagOr(const std::map<std::string, std::string>& flags,
            const std::string& key, T def) {
  auto it = flags.find(key);
  if (it == flags.end()) return def;
  const std::string& s = it->second;
  T v{};
  auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) {
    std::fprintf(stderr, "flag --%s expects a number, got '%s'\n",
                 key.c_str(), s.c_str());
    std::exit(2);
  }
  return v;
}

Graph LoadGraph(const std::string& path) {
  auto r = ReadGraphFile(path);
  if (!r.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

LabelId RequireLabel(const Graph& g, const std::string& name) {
  LabelId id = g.labels().Lookup(name);
  if (id == kNoLabel) {
    std::fprintf(stderr, "label '%s' does not occur in the graph\n",
                 name.c_str());
    std::exit(1);
  }
  return id;
}

int CmdGenerate(const std::map<std::string, std::string>& flags) {
  RequireKnownFlags(flags, {"type", "scale", "seed", "out"});
  std::string type = FlagOr(flags, "type", "synthetic");
  uint32_t scale = NumFlagOr<uint32_t>(flags, "scale", 1);
  uint64_t seed = NumFlagOr<uint64_t>(flags, "seed", 42);
  Graph g;
  if (type == "pokec") {
    g = MakePokecLike(scale, seed);
  } else if (type == "gplus") {
    g = MakeGPlusLike(scale, seed);
  } else if (type == "synthetic") {
    g = MakeSynthetic(10000 * scale, 20000 * scale, 100, seed);
  } else {
    std::fprintf(stderr, "unknown --type %s\n", type.c_str());
    return 2;
  }
  std::string out = RequireFlag(flags, "out");
  Status s = WriteGraphFile(g, out);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %u nodes, %zu edges\n", out.c_str(), g.num_nodes(),
              g.num_edges());
  return 0;
}

int CmdInfo(const std::map<std::string, std::string>& flags) {
  RequireKnownFlags(flags, {"graph"});
  Graph g = LoadGraph(RequireFlag(flags, "graph"));
  DegreeStats deg = ComputeDegreeStats(g);
  std::printf("nodes: %u\nedges: %zu\n|G| = |V|+|E|: %zu\n", g.num_nodes(),
              g.num_edges(), g.size());
  std::printf("avg degree: %.2f  max out: %zu  max in: %zu\n",
              deg.avg_degree, deg.max_out_degree, deg.max_in_degree);
  std::printf("top edge patterns (src --edge--> dst : count):\n");
  for (const EdgePatternStat& s : FrequentEdgePatterns(g, 10)) {
    std::printf("  %s --%s--> %s : %llu\n",
                g.labels().Name(s.src_label).c_str(),
                g.labels().Name(s.edge_label).c_str(),
                g.labels().Name(s.dst_label).c_str(),
                static_cast<unsigned long long>(s.count));
  }
  return 0;
}

int CmdMine(const std::map<std::string, std::string>& flags) {
  RequireKnownFlags(flags, {"graph", "x", "edge", "y", "k", "d", "sigma",
                            "lambda", "workers", "max-edges", "rules-out",
                            "snapshot-out"});
  Graph g = LoadGraph(RequireFlag(flags, "graph"));
  Predicate q{RequireLabel(g, RequireFlag(flags, "x")),
              RequireLabel(g, RequireFlag(flags, "edge")),
              RequireLabel(g, RequireFlag(flags, "y"))};
  DmineOptions opt;
  opt.k = NumFlagOr<uint32_t>(flags, "k", 10);
  opt.d = NumFlagOr<uint32_t>(flags, "d", 2);
  opt.sigma = NumFlagOr<uint64_t>(flags, "sigma", 5);
  opt.lambda = NumFlagOr<double>(flags, "lambda", 0.5);
  opt.num_workers = NumFlagOr<uint32_t>(flags, "workers", 4);
  opt.max_pattern_edges = NumFlagOr<uint32_t>(flags, "max-edges", 4);

  // The run's match evidence rides along in the snapshot (v2), so
  // `maintain` can restore from it instead of mining again.
  RuleSetEvidence evidence;
  auto result = Dmine(g, q, opt, &evidence);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("accepted %zu rules; top-%u objective F = %.4f "
              "(%.2fs simulated parallel)\n",
              result->stats.accepted, opt.k, result->objective,
              result->times.SimulatedParallelSeconds());
  std::vector<Gpar> rules;
  std::vector<RuleRecord> records;
  for (const auto& r : result->topk) {
    std::printf("--- supp=%llu conf=%.3f ---\n%s",
                static_cast<unsigned long long>(r->supp), r->conf,
                r->rule.ToString(g.labels()).c_str());
    rules.push_back(r->rule);
    records.push_back({r->rule, r->supp, r->conf});
  }
  auto it = flags.find("rules-out");
  if (it != flags.end()) {
    std::ofstream os(it->second);
    if (!os) {
      std::fprintf(stderr, "cannot open %s\n", it->second.c_str());
      return 1;
    }
    os << Gpar::SerializeSet(rules, g.labels());
    std::printf("wrote %zu rules to %s\n", rules.size(), it->second.c_str());
  }
  it = flags.find("snapshot-out");
  if (it != flags.end()) {
    evidence.setup = MakeMiningSetup(opt, q, g.labels());
    Status s =
        WriteRuleSetSnapshotV2File(records, evidence, g.labels(), it->second);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu rules (with supp/conf metadata and match "
                "evidence) to %s\n",
                records.size(), it->second.c_str());
  }
  return 0;
}

int CmdIdentify(const std::map<std::string, std::string>& flags) {
  RequireKnownFlags(flags, {"graph", "rules", "eta", "algo", "workers"});
  Graph g = LoadGraph(RequireFlag(flags, "graph"));
  std::ifstream is(RequireFlag(flags, "rules"));
  if (!is) {
    std::fprintf(stderr, "cannot open rules file\n");
    return 1;
  }
  std::stringstream buffer;
  buffer << is.rdbuf();
  auto rules = Gpar::ParseSet(buffer.str(), g.mutable_labels());
  if (!rules.ok()) {
    std::fprintf(stderr, "bad rules file: %s\n",
                 rules.status().ToString().c_str());
    return 1;
  }

  EipOptions opt;
  opt.eta = NumFlagOr<double>(flags, "eta", 1.0);
  opt.num_workers = NumFlagOr<uint32_t>(flags, "workers", 4);
  std::string algo = FlagOr(flags, "algo", "match");
  if (algo == "match") {
    opt.algorithm = EipAlgorithm::kMatch;
  } else if (algo == "matchc") {
    opt.algorithm = EipAlgorithm::kMatchc;
  } else if (algo == "disvf2") {
    opt.algorithm = EipAlgorithm::kDisVf2;
  } else if (algo == "seq") {
    opt.algorithm = EipAlgorithm::kSequential;
  } else {
    std::fprintf(stderr, "unknown --algo %s\n", algo.c_str());
    return 2;
  }

  auto result = IdentifyEntities(g, *rules, opt);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("rules: %zu; eta: %.2f\n", rules->size(), opt.eta);
  for (size_t i = 0; i < result->rule_evals.size(); ++i) {
    std::printf("  rule %zu: supp=%llu conf=%.3f%s\n", i,
                static_cast<unsigned long long>(result->rule_evals[i].supp_r),
                result->rule_evals[i].conf,
                result->rule_evals[i].conf >= opt.eta ? "  [selected]" : "");
  }
  std::printf("Σ(x, G, η): %zu potential customers\n",
              result->entities.size());
  size_t shown = 0;
  for (NodeId v : result->entities) {
    if (++shown > 20) {
      std::printf("  ... (%zu more)\n", result->entities.size() - 20);
      break;
    }
    std::printf("  node %u\n", v);
  }
  return 0;
}

int CmdSnapshot(const std::map<std::string, std::string>& flags) {
  RequireKnownFlags(flags, {"graph", "out", "rules", "rules-out"});
  Graph g = LoadGraph(RequireFlag(flags, "graph"));
  std::string out = RequireFlag(flags, "out");
  Status s = WriteGraphSnapshotFile(g, out);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote graph snapshot %s: %u nodes, %zu edges\n", out.c_str(),
              g.num_nodes(), g.num_edges());

  auto it = flags.find("rules");
  if (it != flags.end()) {
    std::ifstream is(it->second);
    if (!is) {
      std::fprintf(stderr, "cannot open %s\n", it->second.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << is.rdbuf();
    auto rules = Gpar::ParseSet(buffer.str(), g.mutable_labels());
    if (!rules.ok()) {
      std::fprintf(stderr, "bad rules file: %s\n",
                   rules.status().ToString().c_str());
      return 1;
    }
    std::vector<RuleRecord> records;
    for (const Gpar& r : *rules) records.push_back({r, 0, 0.0});
    std::string rules_out = RequireFlag(flags, "rules-out");
    s = WriteRuleSetSnapshotFile(records, g.labels(), rules_out);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote rule snapshot %s: %zu rules\n", rules_out.c_str(),
                records.size());
  }
  return 0;
}

/// The mining parameters shared by `serve --maintain 1` (seeding the
/// session's maintainer) and `maintain` on a v1 snapshot — for a v2
/// snapshot the persisted evidence setup overrides all of these but the
/// seed's worker count.
MaintainOptions MaintainOptionsFromFlags(
    const std::map<std::string, std::string>& flags) {
  MaintainOptions o;
  o.mine.k = NumFlagOr<uint32_t>(flags, "k", 10);
  o.mine.d = NumFlagOr<uint32_t>(flags, "d", 2);
  o.mine.sigma = NumFlagOr<uint64_t>(flags, "sigma", 5);
  o.mine.lambda = NumFlagOr<double>(flags, "lambda", 0.5);
  o.mine.max_pattern_edges = NumFlagOr<uint32_t>(flags, "max-edges", 4);
  o.mine.num_workers = NumFlagOr<uint32_t>(flags, "workers", 4);
  return o;
}

int CmdMaintain(const std::map<std::string, std::string>& flags) {
  RequireKnownFlags(flags, {"graph-snapshot", "rules-snapshot", "journal",
                            "out", "strict", "x", "edge", "y", "k", "d",
                            "sigma", "lambda", "max-edges", "workers"});
  MaintainRequest req;
  req.graph_snapshot = RequireFlag(flags, "graph-snapshot");
  req.rules_snapshot = RequireFlag(flags, "rules-snapshot");
  req.journal = FlagOr(flags, "journal", "");
  req.out = FlagOr(flags, "out", "");
  req.strict = NumFlagOr<int>(flags, "strict", 0) != 0;
  req.x_label = FlagOr(flags, "x", "");
  req.edge_label = FlagOr(flags, "edge", "");
  req.y_label = FlagOr(flags, "y", "");
  req.options = MaintainOptionsFromFlags(flags);

  auto report = RunMaintain(req);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return MaintainExitCode(report.status(), req.strict);
  }
  for (const std::string& w : report->warnings) {
    std::fprintf(stderr, "warning: %s\n", w.c_str());
  }
  std::printf("%s maintainer: %zu rules in -> %zu rules out "
              "(objective F = %.4f)\n",
              report->seeded ? "seeded" : "restored", report->rules_in,
              report->rules_out, report->objective);
  if (!req.journal.empty()) {
    std::printf("journal: %zu frames scanned, maintained to sequence %llu%s\n",
                report->journal_scan.frames,
                static_cast<unsigned long long>(report->last_sequence),
                report->journal_scan.tail_truncated ? " (torn tail truncated)"
                                                    : "");
  }
  const MaintainStats& ms = report->stats;
  std::printf(
      "passes=%llu reprobed=%llu carried=%llu patched=%zu reexpanded=%zu "
      "sigma-crossings +%zu/-%zu rounds-replayed=%zu rounds-regenerated=%zu "
      "sets-unchanged=%llu bitsets-reused=%zu\n",
      static_cast<unsigned long long>(ms.passes),
      static_cast<unsigned long long>(ms.centers_reprobed),
      static_cast<unsigned long long>(ms.centers_carried), ms.rules_patched,
      ms.rules_reexpanded, ms.sigma_crossed_up, ms.sigma_crossed_down,
      ms.rounds_replayed, ms.rounds_regenerated,
      static_cast<unsigned long long>(ms.sets_unchanged), ms.bitsets_reused);
  std::printf("evidence: %llu bytes delta-encoded (%llu raw)\n",
              static_cast<unsigned long long>(ms.evidence_bytes_delta),
              static_cast<unsigned long long>(ms.evidence_bytes_full));
  std::printf("wrote refreshed v2 snapshot %s\n", report->out_path.c_str());
  return 0;
}

void PrintServeStatsLine(const char* prefix, const ServeStats& st,
                         size_t cached) {
  std::printf("%srequests=%llu hits=%llu probes=%llu centers=%llu "
              "cached=%zu total_latency=%.2f ms\n",
              prefix, static_cast<unsigned long long>(st.requests),
              static_cast<unsigned long long>(st.cache_hits),
              static_cast<unsigned long long>(st.cache_probes),
              static_cast<unsigned long long>(st.centers_evaluated), cached,
              st.latency_seconds * 1e3);
}

// The serve query loop's line protocol (one command per line on stdin) is
// parsed by serve/serve_command.h — type `help` at the prompt for the
// grammar. Every command routes through the unified `ServeSession`
// interface, so a single-server and a --shards k deployment answer the
// same loop identically.
int CmdServe(const std::map<std::string, std::string>& flags) {
  RequireKnownFlags(flags, {"graph-snapshot", "rules-snapshot", "workers",
                            "shards", "strict", "journal", "maintain", "k",
                            "d", "sigma", "lambda", "max-edges"});
  RuleServerOptions opt;
  opt.num_workers = NumFlagOr<uint32_t>(flags, "workers", 4);
  const uint32_t shards = NumFlagOr<uint32_t>(flags, "shards", 1);
  if (shards == 0) {
    std::fprintf(stderr, "flag --shards must be at least 1\n");
    return 2;
  }
  const bool strict = NumFlagOr<int>(flags, "strict", 0) != 0;
  const bool maintain = NumFlagOr<int>(flags, "maintain", 0) != 0;
  // Not const: `checkpoint <path>` moves the snapshot-of-record there (the
  // journal is compacted against the NEW snapshot, so a later `recover`
  // must rebuild from it — the original file no longer pairs with the
  // journal's sequence floor).
  std::string graph_path = RequireFlag(flags, "graph-snapshot");
  const std::string rules_path = RequireFlag(flags, "rules-snapshot");
  const std::string journal_path = FlagOr(flags, "journal", "");

  std::unique_ptr<RuleServer> single;
  std::unique_ptr<ShardedRuleServer> sharded;
  ServeSession* session = nullptr;
  // Builds (or, for `recover`, rebuilds) the session from the snapshot
  // pair, then attaches the journal — which replays its frames, so the
  // loaded state is snapshot + journal, not just the snapshot.
  auto load_session = [&]() -> bool {
    single.reset();
    sharded.reset();
    session = nullptr;
    if (shards > 1) {
      ShardedRuleServerOptions sopt;
      sopt.num_shards = shards;
      sopt.shard_options = opt;
      auto s = ShardedRuleServer::Load(graph_path, rules_path, sopt);
      if (!s.ok()) {
        std::fprintf(stderr, "cannot load server: %s\n",
                     s.status().ToString().c_str());
        return false;
      }
      sharded = std::move(s).value();
      session = sharded.get();
    } else {
      auto s = RuleServer::Load(graph_path, rules_path, opt);
      if (!s.ok()) {
        std::fprintf(stderr, "cannot load server: %s\n",
                     s.status().ToString().c_str());
        return false;
      }
      single = std::move(s).value();
      session = single.get();
    }
    if (!journal_path.empty()) {
      JournalReplayStats replay;
      Status st = session->AttachJournal(journal_path, {}, &replay);
      if (!st.ok()) {
        std::fprintf(stderr, "cannot attach journal %s: %s\n",
                     journal_path.c_str(), st.ToString().c_str());
        return false;
      }
      std::printf("journal %s: replayed %zu frames to sequence %llu%s\n",
                  journal_path.c_str(), replay.frames,
                  static_cast<unsigned long long>(replay.last_sequence),
                  replay.tail_truncated ? " (torn tail truncated)" : "");
    }
    if (maintain) {
      // Enabled AFTER the journal replay, so the seed pass mines the
      // caught-up graph — and re-enabled by `recover`, which rebuilds the
      // session from scratch.
      const MaintainOptions mo = MaintainOptionsFromFlags(flags);
      Status st = session->EnableMaintenance(mo);
      if (!st.ok()) {
        std::fprintf(stderr, "cannot enable maintenance: %s\n",
                     st.ToString().c_str());
        return false;
      }
      std::printf("maintenance enabled: serving the maintained top-%u "
                  "(d=%u, sigma=%llu)\n",
                  mo.mine.k, mo.mine.d,
                  static_cast<unsigned long long>(mo.mine.sigma));
    }
    return true;
  };
  if (!load_session()) return 1;

  {
    const auto g = session->graph_snapshot();
    std::printf("serving %u nodes, %zu edges, %zu rules, %zu candidates "
                "across %u shard(s)\n",
                g->num_nodes(), g->num_edges(), session->rules().size(),
                session->candidates().size(), shards);
  }
  if (sharded != nullptr) {
    for (uint32_t i = 0; i < sharded->num_shards(); ++i) {
      const CacheSlice& sh = sharded->shard(i);
      std::printf("  shard %u: %zu owned centers\n", i,
                  sh.candidates().size());
    }
  }

  std::string line;
  while (std::printf("> "), std::fflush(stdout), std::getline(std::cin, line)) {
    auto parsed = ParseServeCommand(line);
    if (!parsed.ok()) {
      std::printf("error: %s\n", parsed.status().ToString().c_str());
      if (strict) return 3;
      continue;
    }
    switch (parsed->kind) {
      case ServeCommand::Kind::kQuit:
        return 0;
      case ServeCommand::Kind::kHelp:
        std::printf("%s\n", ServeCommandHelp());
        break;
      case ServeCommand::Kind::kStats: {
        PrintServeStatsLine("  ", session->lifetime_stats(),
                            session->cached_centers());
        if (sharded != nullptr) {
          for (uint32_t i = 0; i < sharded->num_shards(); ++i) {
            const CacheSlice& sh = sharded->shard(i);
            std::printf("  shard %u: ", i);
            PrintServeStatsLine("", sh.lifetime_stats(), sh.cached_centers());
          }
        }
        break;
      }
      case ServeCommand::Kind::kQuery: {
        auto reply = session->Query(parsed->request);
        if (!reply.ok()) {
          std::printf("error: %s\n", reply.status().ToString().c_str());
          if (strict) return 3;
          break;
        }
        if (parsed->request.all_centers) {
          const double eta = parsed->request.eta;
          for (size_t i = 0; i < reply->rule_evals.size(); ++i) {
            std::printf(
                "  rule %zu: supp=%llu conf=%.3f%s\n", i,
                static_cast<unsigned long long>(reply->rule_evals[i].supp_r),
                reply->rule_evals[i].conf,
                reply->rule_evals[i].conf >= eta ? "  [selected]" : "");
          }
          std::printf("  %zu entities at eta=%.2f", reply->entities.size(),
                      eta);
        } else {
          const std::vector<RuleRecord> rules = session->rules();
          for (size_t i = 0; i < parsed->request.centers.size(); ++i) {
            std::printf("  node %u:", parsed->request.centers[i]);
            if (reply->matched[i].empty()) std::printf(" no rule matches");
            for (uint32_t ri : reply->matched[i]) {
              std::printf(" R%u(conf=%.3f)", ri, rules[ri].conf);
            }
            std::printf("\n");
          }
          std::printf(" ");
        }
        std::printf(" [%llu hits, %llu probes, %.2f ms]\n",
                    static_cast<unsigned long long>(reply->stats.cache_hits),
                    static_cast<unsigned long long>(reply->stats.cache_probes),
                    reply->stats.latency_seconds * 1e3);
        break;
      }
      case ServeCommand::Kind::kDelta: {
        // A label the graph has never seen is minted by the delta itself
        // (its label_defs), interned when the session applies it. Only an
        // insert mints: a delete naming an unknown label names no edge, so
        // it resolves to kNoLabel and counts as missing.
        const std::shared_ptr<const Graph> g = session->graph_snapshot();
        GraphDelta delta;
        delta.inserts.reserve(parsed->inserts.size());
        for (const TextEdgeInsert& e : parsed->inserts) {
          const LabelId label = ResolveLabel(g->labels(), e.label, &delta);
          delta.inserts.push_back({e.src, label, e.dst});
        }
        delta.deletes.reserve(parsed->deletes.size());
        for (const TextEdgeDelete& e : parsed->deletes) {
          delta.deletes.push_back({e.src, g->labels().Lookup(e.label), e.dst});
        }
        auto ds = session->ApplyDelta(delta);
        if (!ds.ok()) {
          std::printf("error: %s\n", ds.status().ToString().c_str());
          if (strict) return 3;
          break;
        }
        std::printf(
            "  +%zu edges (%zu dup), -%zu edges (%zu missing), "
            "%llu memberships + %llu q-classes invalidated, %.2f ms\n",
            ds->edges_inserted, ds->duplicates_ignored, ds->edges_deleted,
            ds->deletes_missing,
            static_cast<unsigned long long>(ds->memberships_invalidated),
            static_cast<unsigned long long>(ds->qclass_invalidated),
            ds->seconds * 1e3);
        if (ds->rules_refreshed != 0) {
          const size_t served = session->rules().size();
          std::printf("  maintenance refreshed the served rule set "
                      "(%zu rules): %llu of %zu rules kept their cache\n",
                      served,
                      static_cast<unsigned long long>(ds->rules_carried),
                      served);
        }
        break;
      }
      case ServeCommand::Kind::kCheckpoint: {
        const std::string out =
            parsed->path.empty() ? graph_path : parsed->path;
        Status st = session->Checkpoint(out);
        if (!st.ok()) {
          std::printf("error: %s\n", st.ToString().c_str());
          if (strict) return 3;
          break;
        }
        std::printf("  checkpointed graph to %s, journal compacted\n",
                    out.c_str());
        graph_path = out;
        break;
      }
      case ServeCommand::Kind::kRecover: {
        if (journal_path.empty()) {
          std::printf("error: recover requires --journal\n");
          if (strict) return 3;
          break;
        }
        // Simulated crash recovery: drop the live session and rebuild it
        // from snapshot + journal replay. A failed rebuild is fatal — there
        // is no session left to serve from.
        if (!load_session()) return 1;
        std::printf("  recovered\n");
        break;
      }
    }
  }
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: gpar_tool "
               "<generate|info|mine|identify|snapshot|serve|maintain> "
               "--flag value ...\n"
               "(see the header comment of tools/gpar_tool.cc)\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  std::string cmd = argv[1];
  auto flags = ParseFlagArgs(argc, argv, 2);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().message().c_str());
    return 2;
  }
  if (cmd == "generate") return CmdGenerate(*flags);
  if (cmd == "info") return CmdInfo(*flags);
  if (cmd == "mine") return CmdMine(*flags);
  if (cmd == "identify") return CmdIdentify(*flags);
  if (cmd == "snapshot") return CmdSnapshot(*flags);
  if (cmd == "serve") return CmdServe(*flags);
  if (cmd == "maintain") return CmdMaintain(*flags);
  Usage();
  return 2;
}
