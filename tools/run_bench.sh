#!/usr/bin/env bash
# Runs the micro benchmarks (google-benchmark binaries named micro_*) and
# merges their JSON reports into one machine-readable file that seeds the
# perf trajectory across PRs. Additionally runs a CI-sized
# exp1_dmine_vary_size sweep into a second JSON report (DMINE_JSON) so
# DMine-level speedups are tracked PR-over-PR with an in-run baseline,
# DMineno ("dmineno_s"), plus DMine's coordinator share and the
# DMineno/DMine ratio ("dmineno_over_dmine" in "totals").
#
# A third JSON report (PARTITION_JSON) comes from a CI-sized
# exp4_partition_skew run: fragment skew, per-worker busy-time spread and
# partition build time.
#
# A fourth JSON report (SERVE_JSON) comes from a CI-sized exp5_serve run:
# cold vs warm-cache QPS of the RuleServer serving path and the cost of
# edge-delta invalidation, against the per-request batch baseline.
#
# A fifth JSON report (SHARDED_JSON) comes from a CI-sized
# exp6_sharded_serve run: aggregate warm QPS vs shard count for the
# ShardedRuleServer deployment (makespan-accounted; the headline number is
# the k=4 vs k=1 scaling ratio in "totals"), plus p50/p99 request latency
# under a mixed query + delta workload.
#
# A sixth JSON report (CHURN_JSON) comes from a CI-sized exp7_delta_churn
# run: maintained ApplyDelta + requery cost vs a from-scratch server
# rebuild under a CDC-style insert+delete churn stream, plus the fraction
# of (rule, center) cache entries each batch invalidates.
#
# A seventh JSON report (RECOVERY_JSON) comes from a CI-sized exp8_recovery
# run: the write-ahead journal's ApplyDelta overhead (off / journal /
# fsync), journal replay throughput through RuleServer::Recover, and
# degraded-mode QPS of a k=4 sharded deployment with failpoint-injected
# shard loss.
#
# An eighth JSON report (MAINTENANCE_JSON) comes from a CI-sized
# exp9_maintenance run: per-batch cost of the incremental RuleMaintainer
# vs a per-batch RuleMaintainer::Seed on the current graph (a BSP Dmine
# re-mine that re-probes everything) on one interleaved insert+delete
# stream, the freshness lag of the maintained top-k, and the
# match-set-delta evidence encoding's bytes vs the raw full encoding.
#
# Usage:
#   tools/run_bench.sh [OUTPUT_JSON] [DMINE_JSON] [PARTITION_JSON] \
#                      [SERVE_JSON] [SHARDED_JSON] [CHURN_JSON] \
#                      [RECOVERY_JSON] [MAINTENANCE_JSON]
#
# Environment:
#   GPAR_BENCH_BIN_DIR   directory holding the bench binaries
#                        (default: build/release/bench)
#   GPAR_BENCH_FILTER    --benchmark_filter regex passed through (default: all)
#   GPAR_BENCH_MIN_TIME  --benchmark_min_time per benchmark (default: unset)
#   GPAR_BENCH_SMALL     sweep size for the DMine report (default: 1 = CI-sized)
#
# The merged document has the shape:
#   { "benches": { "<binary>": <google-benchmark JSON report>, ... } }
set -euo pipefail

out="${1:-BENCH_micro.json}"
dmine_out="${2:-BENCH_dmine.json}"
partition_out="${3:-BENCH_partition.json}"
serve_out="${4:-BENCH_serve.json}"
sharded_out="${5:-BENCH_sharded_serve.json}"
churn_out="${6:-BENCH_delta_churn.json}"
recovery_out="${7:-BENCH_recovery.json}"
maintenance_out="${8:-BENCH_maintenance.json}"
bin_dir="${GPAR_BENCH_BIN_DIR:-build/release/bench}"

if [[ ! -d "${bin_dir}" ]]; then
  echo "error: bench binary dir '${bin_dir}' not found." >&2
  echo "Build first: cmake --preset release && cmake --build --preset release" >&2
  exit 1
fi

# DMine experiment sweep (plain binary, own JSON format). Runs first so the
# artifact exists even when google-benchmark is unavailable.
dmine_bin="${bin_dir}/exp1_dmine_vary_size"
if [[ -x "${dmine_bin}" ]]; then
  echo "== exp1_dmine_vary_size -> ${dmine_out}" >&2
  GPAR_BENCH_SMALL="${GPAR_BENCH_SMALL:-1}" GPAR_BENCH_JSON="${dmine_out}" \
    "${dmine_bin}"
else
  echo "warning: ${dmine_bin} not built; skipping ${dmine_out}" >&2
fi

# Partition skew sweep (fragment balance and build time).
partition_bin="${bin_dir}/exp4_partition_skew"
if [[ -x "${partition_bin}" ]]; then
  echo "== exp4_partition_skew -> ${partition_out}" >&2
  GPAR_BENCH_SMALL="${GPAR_BENCH_SMALL:-1}" GPAR_BENCH_JSON="${partition_out}" \
    "${partition_bin}"
else
  echo "warning: ${partition_bin} not built; skipping ${partition_out}" >&2
fi

# Rule-serving sweep (cold/warm QPS + delta invalidation).
serve_bin="${bin_dir}/exp5_serve"
if [[ -x "${serve_bin}" ]]; then
  echo "== exp5_serve -> ${serve_out}" >&2
  GPAR_BENCH_SMALL="${GPAR_BENCH_SMALL:-1}" GPAR_BENCH_JSON="${serve_out}" \
    "${serve_bin}"
else
  echo "warning: ${serve_bin} not built; skipping ${serve_out}" >&2
fi

# Sharded serving sweep (aggregate warm QPS vs shard count, mixed p50/p99).
sharded_bin="${bin_dir}/exp6_sharded_serve"
if [[ -x "${sharded_bin}" ]]; then
  echo "== exp6_sharded_serve -> ${sharded_out}" >&2
  GPAR_BENCH_SMALL="${GPAR_BENCH_SMALL:-1}" GPAR_BENCH_JSON="${sharded_out}" \
    "${sharded_bin}"
else
  echo "warning: ${sharded_bin} not built; skipping ${sharded_out}" >&2
fi

# Delta churn sweep (maintained insert+delete stream vs fresh rebuild).
churn_bin="${bin_dir}/exp7_delta_churn"
if [[ -x "${churn_bin}" ]]; then
  echo "== exp7_delta_churn -> ${churn_out}" >&2
  GPAR_BENCH_SMALL="${GPAR_BENCH_SMALL:-1}" GPAR_BENCH_JSON="${churn_out}" \
    "${churn_bin}"
else
  echo "warning: ${churn_bin} not built; skipping ${churn_out}" >&2
fi

# Fault-tolerance sweep (journal overhead, replay throughput, degraded QPS).
recovery_bin="${bin_dir}/exp8_recovery"
if [[ -x "${recovery_bin}" ]]; then
  echo "== exp8_recovery -> ${recovery_out}" >&2
  GPAR_BENCH_SMALL="${GPAR_BENCH_SMALL:-1}" GPAR_BENCH_JSON="${recovery_out}" \
    "${recovery_bin}"
else
  echo "warning: ${recovery_bin} not built; skipping ${recovery_out}" >&2
fi

# Incremental maintenance sweep (maintained vs re-mine cost, freshness lag).
maintenance_bin="${bin_dir}/exp9_maintenance"
if [[ -x "${maintenance_bin}" ]]; then
  echo "== exp9_maintenance -> ${maintenance_out}" >&2
  GPAR_BENCH_SMALL="${GPAR_BENCH_SMALL:-1}" \
    GPAR_BENCH_JSON="${maintenance_out}" "${maintenance_bin}"
else
  echo "warning: ${maintenance_bin} not built; skipping ${maintenance_out}" >&2
fi

shopt -s nullglob
bins=("${bin_dir}"/micro_*)
if [[ ${#bins[@]} -eq 0 ]]; then
  echo "error: no micro_* binaries under '${bin_dir}'." >&2
  echo "Was google-benchmark found at configure time?" >&2
  exit 1
fi

tmp_dir="$(mktemp -d)"
trap 'rm -rf "${tmp_dir}"' EXIT

extra_args=()
[[ -n "${GPAR_BENCH_FILTER:-}" ]] &&
  extra_args+=("--benchmark_filter=${GPAR_BENCH_FILTER}")
[[ -n "${GPAR_BENCH_MIN_TIME:-}" ]] &&
  extra_args+=("--benchmark_min_time=${GPAR_BENCH_MIN_TIME}")

for bin in "${bins[@]}"; do
  [[ -x "${bin}" ]] || continue
  name="$(basename "${bin}")"
  echo "== ${name}" >&2
  "${bin}" --benchmark_format=json \
    ${extra_args[@]+"${extra_args[@]}"} >"${tmp_dir}/${name}.json"
done

python3 - "${out}" "${tmp_dir}" <<'PY'
import json, pathlib, sys

out, tmp_dir = sys.argv[1], pathlib.Path(sys.argv[2])
merged = {"benches": {}}
for report in sorted(tmp_dir.glob("*.json")):
    merged["benches"][report.stem] = json.loads(report.read_text())
pathlib.Path(out).write_text(json.dumps(merged, indent=2) + "\n")
total = sum(len(r.get("benchmarks", [])) for r in merged["benches"].values())
print(f"wrote {out}: {len(merged['benches'])} binaries, {total} benchmarks")
PY
