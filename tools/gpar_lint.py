#!/usr/bin/env python3
"""gpar_lint: repo-specific static checks clang cannot express.

Nine rules, each encoding a project invariant that has bitten (or would
bite) the library:

  [atomic-order]   Every std::atomic access through .load/.store/.exchange/
                   .fetch_*/.compare_exchange_* in src/ must name an
                   explicit std::memory_order AND carry a justifying
                   comment on the same line or within the three lines
                   above it. Defaulted seq_cst hides the author's intent
                   and an unjustified order is unreviewable.

  [naked-mutex]    No std::mutex / std::lock_guard / std::unique_lock /
                   std::scoped_lock / std::condition_variable outside
                   common/mutex.h. Raw primitives are invisible to clang
                   Thread Safety Analysis, so everything they guard
                   silently escapes -Werror=thread-safety.

  [ablation-flag]  Every bool field of DmineOptions (src/mine/dmine.h),
                   EipOptions (src/identify/eip.h), and MaintainOptions
                   (src/maintain/rule_maintainer.h) must be referenced by at
                   least one test in tests/*.cc — the repo's rule is that
                   each ablation axis ships with an equivalence battery.

  [bench-json]     Every BENCH_*.json artifact name mentioned by a bench
                   emitter (bench/*.cc) must be registered in
                   tools/run_bench.sh, or CI quietly stops tracking it.

  [failpoint-site] Every GPAR_FAILPOINT / GPAR_FAILPOINT_TORN site name in
                   src/ must appear in at least one test in tests/*.cc. An
                   untested failpoint is an untested failure path — the
                   whole point of registering the site was to inject faults
                   through it.

  [failpoint-armed] Every name a test in tests/*.cc passes to Arm("...")
                   must be a GPAR_FAILPOINT / GPAR_FAILPOINT_TORN site in
                   src/. The registry arms any name, so a test that arms a
                   deleted site passes without injecting anything. Names
                   under the "test." prefix (the registry's own unit
                   tests) are exempt.

  [orphan-module]  Every header under src/ must be #included by at least
                   one file outside tests/ — in src/, tools/, bench/,
                   perfbench/ or examples/ — not counting the header's own
                   .cc. A module only tests reach is library code no
                   program calls: one more path to build, lint and
                   sanitize for nothing.

  [layer-order]    An #include "<layer>/..." in src/<layer>/ may name its
                   own layer or an earlier one in the order documented in
                   src/CMakeLists.txt: graph -> pattern -> match -> rule ->
                   mine/identify -> maintain -> serve. common and parallel
                   are leaf layers that any layer may include. A layer
                   reaching up the order grows an include cycle; the four
                   documented crossings (graph_delta.cc, paper_graphs.h,
                   pattern_generator.{h,cc}) are the allowed exceptions.

  [popcount]       No std::popcount / __builtin_popcount* in src/ outside
                   common/bits.h. The build targets baseline x86-64, where
                   both compile to an out-of-line libgcc call per word;
                   PopCount in common/bits.h is the one inline bit count.

Usage:
  tools/gpar_lint.py [--root DIR]

Exits 0 when clean; prints "file:line: [rule] message" diagnostics and
exits 1 otherwise. --root defaults to the repository root (the parent of
this script's directory) and exists so the seeded-violation fixture under
tests/lint_fixtures/ can be linted as its own tree.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

ATOMIC_OP_RE = re.compile(
    r"\.(load|store|exchange|fetch_add|fetch_sub|fetch_or|fetch_and|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\("
)
MEMORY_ORDER_RE = re.compile(r"\bmemory_order(_|::)\w+")
COMMENT_RE = re.compile(r"//")
NAKED_PRIMITIVE_RE = re.compile(
    r"std::(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any)\b"
)
NAKED_INCLUDE_RE = re.compile(r'#\s*include\s*<(mutex|condition_variable|shared_mutex)>')
BOOL_FIELD_RE = re.compile(r"^\s*bool\s+(\w+)\s*=")
BENCH_JSON_RE = re.compile(r"\bBENCH_[A-Za-z0-9_]+\.json\b")
FAILPOINT_SITE_RE = re.compile(r'\bGPAR_FAILPOINT(?:_TORN)?\(\s*"([^"]+)"')
ARMED_SITE_RE = re.compile(r'\bArm\(\s*"([^"]+)"')
# Failpoint names reserved for the registry's own unit tests.
TEST_SITE_PREFIX = "test."
QUOTED_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
POPCOUNT_RE = re.compile(r"\bstd::popcount\b|\b__builtin_popcount\w*")

# The one file allowed to name a bit-count primitive: the PopCount helper.
POPCOUNT_HELPER = pathlib.PurePosixPath("src/common/bits.h")

# Trees whose files count as includers for [orphan-module]: everything that
# builds into a program, and nothing under tests/.
INCLUDER_DIRS = ("src", "tools", "bench", "perfbench", "examples")

# Files allowed to touch the raw primitives: the annotated wrappers
# themselves (and the macro header they depend on).
NAKED_MUTEX_ALLOWLIST = {
    pathlib.PurePosixPath("src/common/mutex.h"),
    pathlib.PurePosixPath("src/common/thread_annotations.h"),
}

# Rank of each src/ layer in the documented order (src/CMakeLists.txt);
# mine and identify share a rank. The leaf layers rank lowest, so they may
# include only each other.
LAYER_RANK = {
    "common": 0, "parallel": 0, "graph": 1, "pattern": 2, "match": 3,
    "rule": 4, "mine": 5, "identify": 5, "maintain": 6, "serve": 7,
}
LEAF_LAYERS = {"common", "parallel"}

# The documented crossings: file -> the later layers it may include.
LAYER_ORDER_EXCEPTIONS = {
    pathlib.PurePosixPath("src/graph/graph_delta.cc"): {"pattern"},
    pathlib.PurePosixPath("src/graph/paper_graphs.h"): {"rule"},
    pathlib.PurePosixPath("src/pattern/pattern_generator.h"): {"match", "rule"},
    pathlib.PurePosixPath("src/pattern/pattern_generator.cc"): {"match", "rule"},
}

# How many lines above an atomic access may hold its justifying comment.
COMMENT_WINDOW = 3


class Linter:
    def __init__(self, root: pathlib.Path) -> None:
        self.root = root
        self.findings: list[str] = []

    def report(self, path: pathlib.Path, line: int, rule: str, msg: str) -> None:
        rel = path.relative_to(self.root)
        self.findings.append(f"{rel}:{line}: [{rule}] {msg}")

    # -- helpers ----------------------------------------------------------

    def _source_files(self, subdir: str) -> list[pathlib.Path]:
        base = self.root / subdir
        if not base.is_dir():
            return []
        return sorted(
            p
            for p in base.rglob("*")
            if p.suffix in (".h", ".cc", ".cpp", ".hpp") and p.is_file()
        )

    @staticmethod
    def _read_lines(path: pathlib.Path) -> list[str]:
        return path.read_text(encoding="utf-8", errors="replace").splitlines()

    # -- rule: atomic-order ------------------------------------------------

    def check_atomic_orders(self) -> None:
        for path in self._source_files("src"):
            lines = self._read_lines(path)
            for i, line in enumerate(lines):
                for m in ATOMIC_OP_RE.finditer(line):
                    # The call statement may wrap; join until its parens
                    # balance (capped — real statements here are short).
                    depth, statement = 0, ""
                    for j in range(i, min(i + 6, len(lines))):
                        chunk = lines[j][m.start():] if j == i else lines[j]
                        for ch in chunk:
                            statement += ch
                            if ch == "(":
                                depth += 1
                            elif ch == ")":
                                depth -= 1
                                if depth == 0:
                                    break
                        if depth == 0 and "(" in statement:
                            break
                        statement += " "
                    if not MEMORY_ORDER_RE.search(statement):
                        self.report(
                            path, i + 1, "atomic-order",
                            f"atomic .{m.group(1)}() without an explicit "
                            "std::memory_order argument",
                        )
                        continue
                    window = lines[max(0, i - COMMENT_WINDOW): i + 1]
                    if not any(COMMENT_RE.search(w) for w in window):
                        self.report(
                            path, i + 1, "atomic-order",
                            f"atomic .{m.group(1)}() lacks a justifying "
                            f"comment (same line or the {COMMENT_WINDOW} "
                            "lines above)",
                        )

    # -- rule: naked-mutex -------------------------------------------------

    def check_naked_mutexes(self) -> None:
        for path in self._source_files("src"):
            rel = pathlib.PurePosixPath(path.relative_to(self.root).as_posix())
            if rel in NAKED_MUTEX_ALLOWLIST:
                continue
            for i, line in enumerate(self._read_lines(path)):
                m = NAKED_PRIMITIVE_RE.search(line)
                if m:
                    self.report(
                        path, i + 1, "naked-mutex",
                        f"raw std::{m.group(1)} outside common/mutex.h — use "
                        "the annotated Mutex/MutexLock/CondVar wrappers",
                    )
                    continue
                inc = NAKED_INCLUDE_RE.search(line)
                if inc:
                    self.report(
                        path, i + 1, "naked-mutex",
                        f"#include <{inc.group(1)}> outside common/mutex.h — "
                        "include \"common/mutex.h\" instead",
                    )

    # -- rule: ablation-flag -----------------------------------------------

    @staticmethod
    def _struct_bool_fields(lines: list[str], struct_name: str) -> list[tuple[int, str]]:
        fields: list[tuple[int, str]] = []
        depth, inside = 0, False
        for i, line in enumerate(lines):
            if not inside:
                if re.search(rf"\bstruct\s+{struct_name}\b", line):
                    inside = True
                    depth = line.count("{") - line.count("}")
                continue
            depth += line.count("{") - line.count("}")
            m = BOOL_FIELD_RE.match(line)
            if m:
                fields.append((i + 1, m.group(1)))
            if depth <= 0:
                break
        return fields

    def check_ablation_flags(self) -> None:
        test_dir = self.root / "tests"
        test_text = "".join(
            p.read_text(encoding="utf-8", errors="replace")
            for p in sorted(test_dir.glob("*.cc"))
        ) if test_dir.is_dir() else ""
        for header, struct in (
            ("src/mine/dmine.h", "DmineOptions"),
            ("src/identify/eip.h", "EipOptions"),
            ("src/maintain/rule_maintainer.h", "MaintainOptions"),
        ):
            path = self.root / header
            if not path.is_file():
                continue
            lines = self._read_lines(path)
            for lineno, field in self._struct_bool_fields(lines, struct):
                if not re.search(rf"\b{field}\b", test_text):
                    self.report(
                        path, lineno, "ablation-flag",
                        f"{struct}::{field} is not exercised by any test in "
                        "tests/*.cc — every ablation flag needs an "
                        "equivalence battery",
                    )

    # -- rule: bench-json --------------------------------------------------

    def check_bench_registration(self) -> None:
        script = self.root / "tools" / "run_bench.sh"
        script_text = (
            script.read_text(encoding="utf-8", errors="replace")
            if script.is_file()
            else ""
        )
        bench_dir = self.root / "bench"
        if not bench_dir.is_dir():
            return
        for path in sorted(bench_dir.glob("*.cc")):
            for i, line in enumerate(self._read_lines(path)):
                for name in BENCH_JSON_RE.findall(line):
                    if name not in script_text:
                        self.report(
                            path, i + 1, "bench-json",
                            f"{name} is emitted here but not registered in "
                            "tools/run_bench.sh",
                        )

    # -- rule: failpoint-site ----------------------------------------------

    def check_failpoint_sites(self) -> None:
        test_dir = self.root / "tests"
        test_text = "".join(
            p.read_text(encoding="utf-8", errors="replace")
            for p in sorted(test_dir.glob("*.cc"))
        ) if test_dir.is_dir() else ""
        for path in self._source_files("src"):
            if path.name in ("failpoint.h", "failpoint.cc"):
                continue  # the registry itself, not an instrumented site
            for i, line in enumerate(self._read_lines(path)):
                for site in FAILPOINT_SITE_RE.findall(line):
                    if f'"{site}"' not in test_text:
                        self.report(
                            path, i + 1, "failpoint-site",
                            f'failpoint site "{site}" is never armed by any '
                            "test in tests/*.cc — every registered site "
                            "needs fault-injection coverage",
                        )

    # -- rule: failpoint-armed ---------------------------------------------

    def check_armed_failpoints(self) -> None:
        sites = {
            site
            for path in self._source_files("src")
            if path.name not in ("failpoint.h", "failpoint.cc")
            for line in self._read_lines(path)
            for site in FAILPOINT_SITE_RE.findall(line)
        }
        test_dir = self.root / "tests"
        tests = sorted(test_dir.glob("*.cc")) if test_dir.is_dir() else []
        for path in tests:
            for i, line in enumerate(self._read_lines(path)):
                for name in ARMED_SITE_RE.findall(line):
                    if name in sites or name.startswith(TEST_SITE_PREFIX):
                        continue
                    self.report(
                        path, i + 1, "failpoint-armed",
                        f'test arms failpoint "{name}", which is no '
                        "GPAR_FAILPOINT site in src/ — the injection can "
                        "never fire",
                    )

    # -- rule: orphan-module -----------------------------------------------

    def check_orphan_modules(self) -> None:
        src = self.root / "src"
        # Resolved header path -> the files that include it.
        includers: dict[pathlib.Path, set[pathlib.Path]] = {}
        for subdir in INCLUDER_DIRS:
            for path in self._source_files(subdir):
                for line in self._read_lines(path):
                    m = QUOTED_INCLUDE_RE.match(line)
                    if not m:
                        continue
                    # Includes resolve against src/ (the include root) or
                    # the including file's own directory.
                    for base in (src, path.parent):
                        target = (base / m.group(1)).resolve()
                        includers.setdefault(target, set()).add(path.resolve())
        for header in self._source_files("src"):
            if header.suffix not in (".h", ".hpp"):
                continue
            own_cc = header.with_suffix(".cc").resolve()
            users = includers.get(header.resolve(), set()) - {own_cc}
            if not users:
                self.report(
                    header, 1, "orphan-module",
                    f"{header.relative_to(src).as_posix()} is included by "
                    "nothing outside tests/ (only its own .cc, if any) — "
                    "delete the module or give it a caller",
                )

    # -- rule: layer-order -------------------------------------------------

    def check_layer_order(self) -> None:
        for path in self._source_files("src"):
            rel = pathlib.PurePosixPath(path.relative_to(self.root).as_posix())
            layer = rel.parts[1] if len(rel.parts) > 2 else None
            if layer not in LAYER_RANK:
                continue
            allowed = LAYER_ORDER_EXCEPTIONS.get(rel, set())
            for i, line in enumerate(self._read_lines(path)):
                m = QUOTED_INCLUDE_RE.match(line)
                if not m or "/" not in m.group(1):
                    continue
                target = m.group(1).split("/", 1)[0]
                if (target not in LAYER_RANK or target in LEAF_LAYERS
                        or target in allowed
                        or LAYER_RANK[target] <= LAYER_RANK[layer]):
                    continue
                self.report(
                    path, i + 1, "layer-order",
                    f"{layer}/ includes \"{m.group(1)}\" from the later "
                    f"{target} layer — see the layer order in "
                    "src/CMakeLists.txt",
                )

    # -- rule: popcount ----------------------------------------------------

    def check_popcounts(self) -> None:
        for path in self._source_files("src"):
            rel = pathlib.PurePosixPath(path.relative_to(self.root).as_posix())
            if rel == POPCOUNT_HELPER:
                continue
            for i, line in enumerate(self._read_lines(path)):
                m = POPCOUNT_RE.search(line.split("//", 1)[0])
                if m:
                    self.report(
                        path, i + 1, "popcount",
                        f"{m.group(0)} outside common/bits.h — it compiles "
                        "to a libgcc call on baseline x86-64; use PopCount",
                    )

    # -- driver ------------------------------------------------------------

    def run(self) -> int:
        self.check_atomic_orders()
        self.check_naked_mutexes()
        self.check_ablation_flags()
        self.check_bench_registration()
        self.check_failpoint_sites()
        self.check_armed_failpoints()
        self.check_orphan_modules()
        self.check_layer_order()
        self.check_popcounts()
        for finding in self.findings:
            print(finding)
        if self.findings:
            print(f"gpar_lint: {len(self.findings)} finding(s)", file=sys.stderr)
            return 1
        return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="tree to lint (default: the repository root)",
    )
    args = parser.parse_args()
    root = args.root.resolve()
    if not root.is_dir():
        print(f"gpar_lint: no such directory: {root}", file=sys.stderr)
        return 2
    return Linter(root).run()


if __name__ == "__main__":
    sys.exit(main())
