#!/usr/bin/env python3
"""Verdict table for scripts/check_bench_regression.py.

Runs the gate on the small fixture artifacts in tests/data/bench_gate/ and
checks each verdict: the exit code and one line of the report. The table3
baseline fixture uses the pre-change cell layout (governed cells paired
with ir-bc / ir-jit, no "pairs" list), so the cross-version path is
covered too.

Usage: bench_gate_test.py [GATE_SCRIPT]   (default: the repo's gate)
"""

import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data", "bench_gate")
DEFAULT_GATE = os.path.join(HERE, os.pardir, "scripts",
                            "check_bench_regression.py")


def fx(name):
    return os.path.join(DATA, name)


MISSING = fx("does_not_exist.json")
SERVE_OK = ["--serve-baseline", fx("serve_base.json"),
            "--serve-current", fx("serve_clean.json")]

# (name, gate arguments, expected exit code, text expected in the output or
# a predicate over the output)
CASES = [
    ("clean pass",
     [fx("table3_base.json"), fx("table3_clean.json")] + SERVE_OK,
     0, "compared 8 interpreter cells"),
    ("ir-jit slowdown over 25% fails",
     [fx("table3_base.json"), fx("table3_jit_slow.json")] + SERVE_OK,
     1, "Q1 threads=1 ir-jit: 2.00ms -> 2.60ms (+30%)"),
    ("missing baseline passes with a notice",
     [MISSING, fx("table3_clean.json")] + SERVE_OK,
     0, "no baseline artifact at"),
    ("coverage drop over 5 points fails",
     [fx("table3_base.json"), fx("table3_coverage_drop.json")] + SERVE_OK,
     1, "Q2 threads=1 ir-jit-coverage: 88.0% -> 80.0%"),
    ("pair over 2% fails",
     [fx("table3_base.json"), fx("table3_pair_over.json")] + SERVE_OK,
     1, "ir-jit-obs: instrumented runs 5.0% slower"),
    ("serve shed-rate breach fails",
     [fx("table3_base.json"), fx("table3_clean.json"),
      "--serve-baseline", fx("serve_base.json"),
      "--serve-current", fx("serve_shed.json")],
     1, "serve: shed rate 0.0500 exceeds 0.0100"),
    # Cells the bench always emits: their absence is a broken bench step.
    ("missing pair cells fail",
     [fx("table3_base.json"), fx("table3_no_pairs.json")] + SERVE_OK,
     1, "lists no overhead pairs"),
    ("missing coverage/deopt cells fail",
     [MISSING, fx("table3_no_counts.json")] + SERVE_OK,
     1, "Q1 threads=1 ir-jit-coverage: missing"),
    ("missing serve fairness cells fail",
     [fx("table3_base.json"), fx("table3_clean.json"),
      "--serve-baseline", fx("serve_base.json"),
      "--serve-current", fx("serve_no_fairness.json")],
     1, "serve: current artifact has no fair_light_p95_ms cell"),
    ("thresholds are constants, not flags",
     ["--help"], 0,
     lambda out: set(re.findall(r"--[a-z-]+", out)) ==
     {"--help", "--serve-baseline", "--serve-current"}),
]


def main():
    gate = sys.argv[1] if len(sys.argv) > 1 else DEFAULT_GATE
    failures = 0
    for name, args, want_code, want_text in CASES:
        proc = subprocess.run([sys.executable, gate] + args,
                              capture_output=True, text=True)
        out = proc.stdout + proc.stderr
        seen = want_text(out) if callable(want_text) else want_text in out
        ok = proc.returncode == want_code and seen
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            failures += 1
            print(f"     want exit {want_code} and {want_text!r}; "
                  f"got exit {proc.returncode}:")
            print("     " + out.replace("\n", "\n     "))
    print(f"{len(CASES) - failures}/{len(CASES)} verdicts as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
