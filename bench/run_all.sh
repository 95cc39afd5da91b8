#!/usr/bin/env bash
# Regenerates every tracked BENCH_*.json at the repo root from a fresh
# Release build, so the committed numbers always match the committed code
# (each JSON is stamped with the library version and git SHA it came from).
#
#   $ bench/run_all.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build-release}"

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD" -j"$(nproc)" --target \
  bench_parallel_scaling bench_trace_overhead \
  bench_fleet bench_precompute bench_daemon

# Each bench writes its BENCH_*.json into the current directory (repo root).
"$BUILD/bench/bench_parallel_scaling"
"$BUILD/bench/bench_trace_overhead"
"$BUILD/bench/bench_fleet"
# BENCH_precompute.json: {equivalence: {shared_equals_dense, delta_equals_fresh},
#  cold_start: {sites, dense_ms, shared_ms, speedup, hits, misses,
#  resident_bytes}, endpoint_churn: {steps, dense_rebuild_ms, delta_ms,
#  speedup}} — shared store vs builds from a cleared store, bitwise-verified.
"$BUILD/bench/bench_precompute"
"$BUILD/bench/bench_daemon"

echo
echo "regenerated:"
ls -1 BENCH_*.json
