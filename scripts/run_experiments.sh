#!/usr/bin/env bash
# Regenerates every experiment: full test suite + all benchmark binaries.
# Usage: scripts/run_experiments.sh [build-dir]
set -euo pipefail
BUILD="${1:-build}"

cmake -B "$BUILD" -G Ninja
cmake --build "$BUILD"

echo "=== tests ==="
ctest --test-dir "$BUILD" --output-on-failure 2>&1 | tee test_output.txt

echo "=== examples ==="
for e in "$BUILD"/examples/*; do
  if [ -x "$e" ] && [ -f "$e" ]; then
    echo "--- $(basename "$e") ---"
    "$e"
  fi
done 2>&1 | tee example_output.txt

echo "=== benchmarks ==="
for b in "$BUILD"/bench/*; do
  if [ -x "$b" ] && [ -f "$b" ]; then
    echo "### $(basename "$b")"
    "$b"
  fi
done 2>&1 | tee bench_output.txt

echo "=== fault-sweep smoke ==="
# Guarded-execution spot checks on the shipped example design: an injected
# bus contention must exit 3 with a conflict record, and an armed watchdog
# must exit 4 with the structured trip diagnostic (see docs/ROBUSTNESS.md).
# The full 30-design x 5-kind differential sweep runs under ctest above
# (fault_sweep_test).
{
  "$BUILD"/tools/ctrtl_design examples/rtd/fig1.rtd --simulate \
    --fault-plan=examples/faults/fig1_force.fp && exit_code=0 || exit_code=$?
  [ "$exit_code" -eq 3 ] || { echo "fault-plan smoke: expected exit 3, got $exit_code"; exit 1; }
  "$BUILD"/tools/ctrtl_design examples/rtd/fig1.rtd --simulate \
    --max-delta-cycles=10 && exit_code=0 || exit_code=$?
  [ "$exit_code" -eq 4 ] || { echo "watchdog smoke: expected exit 4, got $exit_code"; exit 1; }
  echo "fault-sweep smoke: ok"
} 2>&1 | tee fault_smoke_output.txt

echo "=== generator corpus smoke (PR gate) ==="
# 25 mixed-profile seeds through the conflict oracle, the 3-way engine
# equivalence check, and the standard fault plans on every 5th case. The
# nightly CI job runs the same sweep at 500 seeds (see E13 in
# EXPERIMENTS.md); a failing case prints its reproducing --seed.
"$BUILD"/tools/ctrtl_gen --seed=1 --count=25 --profile=mixed \
  --verify --fault-sweep=5 2>&1 | tee corpus_smoke_output.txt

echo "=== service smoke (ctrtl_serve e2e, E14 correctness half) ==="
# Real server on a Unix socket: cold and warm submissions diffed
# byte-for-byte against ctrtl_design --simulate, the cache-hit counter
# proving the warm job skipped lowering, fault-plan / watchdog / garbage
# jobs as structured results, clean SHUTDOWN. Service timings come from
# ctrtl_bench (E14 in EXPERIMENTS.md).
"$(dirname "$0")/serve_smoke.sh" "$BUILD"/tools/ctrtl_serve \
  "$BUILD"/tools/ctrtl_design . 2>&1 | tee serve_smoke_output.txt

echo "=== benchmark correctness gate (hot_small, wide_batch) ==="
# The CI gate: 3-s runs of the end-to-end benchmark (ctrtl_bench/), whose
# last stdout line must read "correct": true and "failed": 0. Every served
# REPORT is checked against the per-instance reference and the rtl.sim.*
# counts against ctrtl_bench/expected_counts.tsv.
for workload in hot_small wide_batch; do
  python3 ctrtl_bench/run.py --workload "$workload" --seed 0 --seconds 3 \
    --trace 0 | tail -n 1 | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
print(result)
sys.exit(0 if result["correct"] is True and result["failed"] == 0 else 1)
' || { echo "benchmark gate failed on $workload"; exit 1; }
done
