#!/usr/bin/env bash
# Perf-regression gate: runs the traced spla-edge benchmark (SPLA prepare
# plus the 12-rung K ladder, timed layer by layer) and compares its
# per-layer times and allocations with the committed BENCH_baseline.json.
#
#   scripts/perf_gate.sh             run the benchmark and gate it
#   scripts/perf_gate.sh --selftest  prove the comparator on the committed
#                                    baseline without running the benchmark
#
# The comparison (which metrics, which band) lives in scripts/perf_gate.py.
# Re-baseline with
#   bash perfbench/run.sh --workload spla-edge --seconds 1 --trace 1 | tail -n 1 > BENCH_baseline.json
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--selftest" ]]; then
    exec python3 scripts/perf_gate.py --selftest BENCH_baseline.json
fi

run="$(mktemp)"
trap 'rm -f "$run"' EXIT
# a failed benchmark check exits non-zero but still prints its result
# line, so the gate reports it rather than stopping here
bash perfbench/run.sh --workload spla-edge --seconds 1 --trace 1 | tail -n 1 > "$run" || true
python3 scripts/perf_gate.py BENCH_baseline.json "$run"
