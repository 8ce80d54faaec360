#!/usr/bin/env python3
"""Per-layer perf gate over two perfbench result lines (stdlib only).

    perf_gate.py <baseline.json> <run.json>   gate a run against a baseline
    perf_gate.py --selftest <baseline.json>   prove the gate on the baseline

Both files hold one perfbench result line,
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The gate fails unless both report "correct": true and carry every gated
metric, and when any gated metric of the run exceeds
baseline * BAND + SLACK. Prints one line per gated metric and exits 1 on
failure.
"""

import copy
import json
import sys

# Per-layer times (ms) and allocations (MB) of the traced spla-edge run:
# SPLA prepare (decompose, floorplan mapping, placement) plus the K
# ladder's mapping, legalization, routing and STA. The remainder
# `flow.glue_ms` and the exec/serve/bench metrics are not layer costs and
# stay out.
GATED = [
    "logic.decompose_ms",
    "core.floorplan_map_ms",
    "place.global_ms",
    "place.legalize_ms",
    "core.map_ms",
    "route.ms",
    "timing.sta_ms",
    "place.alloc_mb",
    "core.alloc_mb",
    "route.alloc_mb",
]

# A run may cost up to BAND times its baseline, plus SLACK (1 ms or 1 MB)
# so that near-zero layers do not trip on timer noise. The wide band
# absorbs runner-generation variance while still catching
# order-of-magnitude regressions.
BAND = 4.0
SLACK = 1.0


def value(doc, name):
    """The number a result line reports for `name`, or None."""
    v = doc.get("metrics", {}).get(name, {}).get("value")
    return v if isinstance(v, (int, float)) else None


def problems(baseline, run):
    """Every reason `run` fails the gate against `baseline`; empty if it passes."""
    out = []
    for role, doc in (("baseline", baseline), ("run", run)):
        if doc.get("correct") is not True:
            out.append(f"{role} is not \"correct\": true")
        for name in GATED:
            if value(doc, name) is None:
                out.append(f"{role} lacks gated metric {name}")
    if out:
        return out
    for name in GATED:
        base, now = value(baseline, name), value(run, name)
        limit = base * BAND + SLACK
        if now > limit:
            out.append(f"{name} {now:.3f} exceeds {limit:.3f} (baseline {base:.3f})")
    return out


def gate(baseline, run):
    """Prints the comparison and returns True when `run` passes."""
    for name in GATED:
        base, now = value(baseline, name), value(run, name)
        print(f"perf_gate: {name:<24} baseline {base!s:>20}  run {now!s:>20}")
    found = problems(baseline, run)
    for p in found:
        print(f"perf_gate REGRESSION: {p}", file=sys.stderr)
    if not found:
        print(f"perf_gate: every gated metric within {BAND:g}x baseline + {SLACK:g}")
    return not found


def selftest(baseline):
    """The gate passes the baseline against itself and rejects a run that
    is 100x slower than a copy, reports incorrect, or lacks a metric."""
    ok = True

    def expect(label, passes, base, run):
        nonlocal ok
        got = not problems(base, run)
        verdict = "passed" if got else "tripped"
        if got == passes:
            print(f"perf_gate selftest: {label} {verdict} as expected")
        else:
            print(f"perf_gate selftest: FAILED, {label} {verdict}", file=sys.stderr)
            ok = False

    expect("self-comparison", True, baseline, baseline)
    deflated = copy.deepcopy(baseline)
    for name in GATED:
        deflated["metrics"][name]["value"] *= 0.01
    expect("x0.01 baseline", False, deflated, baseline)
    incorrect = copy.deepcopy(baseline)
    incorrect["correct"] = False
    expect("\"correct\":false run", False, baseline, incorrect)
    missing = copy.deepcopy(baseline)
    del missing["metrics"][GATED[0]]
    expect(f"run without {GATED[0]}", False, baseline, missing)
    return ok


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"perf_gate: {path} holds no perfbench result line: {e}")


def main(argv):
    if len(argv) == 3 and argv[1] == "--selftest":
        return 0 if selftest(load(argv[2])) else 1
    if len(argv) == 3:
        return 0 if gate(load(argv[1]), load(argv[2])) else 1
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
