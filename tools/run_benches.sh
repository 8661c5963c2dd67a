#!/usr/bin/env bash
# Runs the perf_* benches and appends their machine-readable JSON lines
# (one cold + one warm record per bench, see bench/bench_json.h) to
# BENCH_perf.json, building the trajectory of the repo's performance over
# time. By default the google-benchmark suites are skipped (their filter
# matches nothing) so only the instrumented cold/warm workload pair runs;
# `--full` runs the suites too (human-readable, stdout only). `--scale`
# additionally runs the perf_profiling streaming workload at
# --rows=1000000 and --rows=10000000 (8 columns each, far beyond what a
# whole-column profile would hold in memory), appending cold/warm
# records tagged perf_profiling_rows1e6 / perf_profiling_rows1e7. Usage:
#
#   tools/run_benches.sh [--full] [--scale] [build-dir]   # default: build
#
# The output file can be redirected with BENCH_OUT=<file>.
set -euo pipefail

cd "$(dirname "$0")/.."

FULL=0
SCALE=0
while [[ "${1:-}" == --* ]]; do
  if [[ "$1" == "--full" ]]; then
    FULL=1
  elif [[ "$1" == "--scale" ]]; then
    SCALE=1
  else
    echo "run_benches: unknown option $1" >&2
    exit 2
  fi
  shift
done
BUILD_DIR="${1:-build}"
OUT="${BENCH_OUT:-BENCH_perf.json}"

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target \
  perf_csg perf_profiling perf_detectors perf_executor perf_dedup

ARGS=()
if [[ "$FULL" -eq 0 ]]; then
  # A filter no suite matches: google-benchmark runs nothing, the
  # cold/warm workload pair still runs and emits its JSON lines.
  ARGS+=("--benchmark_filter=^$")
fi

APPENDED=0
for bench in "$BUILD_DIR"/bench/perf_*; do
  [[ -x "$bench" ]] || continue
  "$bench" ${ARGS[@]+"${ARGS[@]}"} | grep '^{' >> "$OUT"
  APPENDED=$((APPENDED + 2))
done

if [[ "$SCALE" -eq 1 ]]; then
  for rows in 1000000 10000000; do
    "$BUILD_DIR"/bench/perf_profiling --rows="$rows" \
      ${ARGS[@]+"${ARGS[@]}"} | grep '^{' >> "$OUT"
    APPENDED=$((APPENDED + 2))
  done
fi

echo "run_benches: appended $APPENDED line(s); $OUT now has $(wc -l < "$OUT") line(s)"
