#!/usr/bin/env python3
"""Fails CI when a benchmark artifact regresses.

Inputs are two BENCH_table3.json artifacts (bench/table3_tpch.cc with
QC_BENCH_JSON=1): BASELINE from the last successful main-branch run and
CURRENT from this build. With --serve-current, a BENCH_serve.json from
bench/serve_latency.cc is gated too, against --serve-baseline when it
exists. Rows are matched on (query, threads).

The gates (GATES below; every threshold is a module constant):
  timing  cross-run: each ir-bc / ir-jit cell may be at most
          TIMING_SLOWDOWN slower than the baseline. Cells under MIN_MS in
          the baseline are skipped: timer jitter would make them flaky.
  counts  cross-run, deterministic (timing noise can hide a lost template,
          these numbers cannot): ir-jit-coverage may drop at most
          COVERAGE_POINTS, ir-jit-deopts may grow at most DEOPT_FACTOR
          (plus DEOPT_SLACK events). The bench emits both for every row
          whose JIT ran natively (ir-jit-fallback 0), so a missing one
          fails.
  pairs   intra-artifact: for every overhead pair the artifact lists
          ("pairs": ir-bc-gov, ir-jit-obs, ...), the geomean over rows of
          <name> / <name>-base must stay within PAIR_OVERHEAD. The two
          cells of a pair are measured back to back, so the ratio isolates
          the instrumentation cost from machine drift, and the gate works
          without a baseline.
  serve   the unfaulted daemon run: at least one request succeeded, the
          shed rate stays within SERVE_SHED_RATE, the light tenant's p95
          stays within FAIR_LIGHT_FACTOR x the heavy tenant's p95 plus
          FAIR_SLACK_MS (light converging on heavy means FIFO-style
          starvation), and p95 stays within SERVE_P95_FACTOR x the
          baseline plus SERVE_P95_SLACK_MS.

Robustness contract: a missing, unreadable or differently-configured
*baseline* (first run, expired artifact, fork, older layout) skips the
cross-run gates with a notice. A missing or unreadable *current* artifact,
or one lacking cells the bench always emits, fails: the benchmark step
itself regressed.

Usage:
  check_bench_regression.py BASELINE.json CURRENT.json \\
      [--serve-baseline SERVE_BASE.json --serve-current SERVE_CUR.json]
"""

import argparse
import json
import math
import sys

TIMING_SLOWDOWN = 0.25
MIN_MS = 1.0
TIMED_CELLS = ("ir-bc", "ir-jit")

COVERAGE_POINTS = 5.0
DEOPT_FACTOR = 2.0
DEOPT_SLACK = 8
# Deterministic JIT counters: (cell, within(baseline, current), unit format).
COUNT_CELLS = (
    ("ir-jit-coverage", lambda b, c: c >= b - COVERAGE_POINTS, "{:.1f}%"),
    ("ir-jit-deopts",
     lambda b, c: c <= max(b * DEOPT_FACTOR, b + DEOPT_SLACK),
     "{:.0f} events"),
)

PAIR_OVERHEAD = 0.02
# Pairs whose base cell is faster than this are left out of the geomean:
# at timer resolution the ratio is noise. Lower than MIN_MS because the
# geomean over many rows averages jitter out; a single-cell gate cannot.
PAIR_FLOOR_MS = 0.1

SERVE_SHED_RATE = 0.01
SERVE_P95_FACTOR = 1.5
SERVE_P95_SLACK_MS = 1.0
FAIR_LIGHT_FACTOR = 0.75
FAIR_SLACK_MS = 5.0
SERVE_CELLS = ("ok", "shed_rate", "p95_ms", "fair_light_ok",
               "fair_light_p95_ms", "fair_heavy_p95_ms")
# Latency is comparable only across runs of the same serve configuration.
SERVE_CONFIG = ("sf", "clients", "requests_per_client", "workers")


def load_json(path):
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top-level JSON is not an object")
    return data


def load_rows(path):
    data = load_json(path)
    row_list = data.get("rows", [])
    if not isinstance(row_list, list):
        raise ValueError(f"{path}: \"rows\" is not a list")
    rows = {}
    for row in row_list:
        if not isinstance(row, dict) or "query" not in row:
            print(f"notice: skipping malformed row in {path}: {row!r}")
            continue
        rows[(row.get("query"), row.get("threads", 1))] = row
    return data, rows


def num(artifact, cell):
    v = artifact.get(cell)
    return v if isinstance(v, (int, float)) else None


def row_name(key):
    return f"Q{key[0]} threads={key[1]}"


def timing_gate(ctx):
    if ctx.base is None:
        return []
    failures = []
    compared = 0
    for key in sorted(set(ctx.base) & set(ctx.cur), key=repr):
        for cell in TIMED_CELLS:
            b, c = num(ctx.base[key], cell), num(ctx.cur[key], cell)
            if b is None or c is None or b < MIN_MS or c <= 0:
                continue
            compared += 1
            if c > b * (1.0 + TIMING_SLOWDOWN):
                failures.append(
                    f"{row_name(key)} {cell}: {b:.2f}ms -> {c:.2f}ms "
                    f"(+{100.0 * (c / b - 1.0):.0f}%)")
    print(f"compared {compared} interpreter cells "
          f"(threshold +{TIMING_SLOWDOWN * 100:.0f}%, min {MIN_MS}ms)")
    return failures


def count_gate(ctx):
    failures = []
    for cell, within, unit in COUNT_CELLS:
        compared = 0
        for key in sorted(ctx.cur, key=repr):
            crow = ctx.cur[key]
            brow = ctx.base.get(key, {}) if ctx.base is not None else {}
            b, c = num(brow, cell), num(crow, cell)
            if c is None:
                if num(crow, "ir-jit-fallback") == 0:
                    failures.append(
                        f"{row_name(key)} {cell}: missing from a row whose "
                        "JIT ran natively (the bench always emits it)")
                elif b is not None:
                    failures.append(
                        f"{row_name(key)} {cell}: {unit.format(b)} -> "
                        "missing (JIT fully degraded for this query)")
                continue
            if b is None:
                continue
            compared += 1
            if not within(b, c):
                failures.append(f"{row_name(key)} {cell}: {unit.format(b)} "
                                f"-> {unit.format(c)}")
        if ctx.base is not None:
            print(f"compared {compared} {cell} cells")
    return failures


def pair_gate(ctx):
    pairs = ctx.cur_meta.get("pairs")
    if not isinstance(pairs, list) or not pairs:
        return ["current artifact lists no overhead pairs (the bench's "
                "pair table did not run)"]
    failures = []
    for name in pairs:
        present = 0
        logs = []
        for key in sorted(ctx.cur, key=repr):
            b = num(ctx.cur[key], f"{name}-base")
            c = num(ctx.cur[key], name)
            if b is None or c is None:
                continue
            present += 1
            if b >= PAIR_FLOOR_MS and c > 0:
                logs.append(math.log(c / b))
        if present == 0:
            failures.append(f"{name}: listed pair has no {name}/{name}-base "
                            "cells in the current artifact")
            continue
        if not logs:
            print(f"notice: every {name}-base cell is under {PAIR_FLOOR_MS}ms;"
                  " overhead not measurable at this scale factor")
            continue
        pct = (math.exp(sum(logs) / len(logs)) - 1.0) * 100.0
        print(f"overhead {name}/{name}-base: geomean {pct:+.2f}% over "
              f"{len(logs)} cells (allowance +{PAIR_OVERHEAD * 100:.0f}%)")
        if pct > PAIR_OVERHEAD * 100.0:
            failures.append(
                f"{name}: instrumented runs {pct:.1f}% slower than "
                f"{name}-base geomean over {len(logs)} cells "
                f"(allowance {PAIR_OVERHEAD * 100:.0f}%)")
    return failures


def serve_gate(ctx):
    cur = ctx.serve_cur
    if cur is None:
        return []
    missing = [cell for cell in SERVE_CELLS if num(cur, cell) is None]
    if missing:
        return [f"serve: current artifact has no {cell} cell"
                for cell in missing]
    failures = []
    if cur["ok"] <= 0:
        failures.append("serve: zero successful requests in the bench run — "
                        "the daemon or the bench client harness is broken")
    print(f"serve shed rate: {cur['shed_rate']:.4f} "
          f"(allowance {SERVE_SHED_RATE:.4f})")
    if cur["shed_rate"] > SERVE_SHED_RATE:
        failures.append(
            f"serve: shed rate {cur['shed_rate']:.4f} exceeds "
            f"{SERVE_SHED_RATE:.4f} on the unfaulted bench config — "
            "admission or worker scheduling regressed")
    l95, h95 = cur["fair_light_p95_ms"], cur["fair_heavy_p95_ms"]
    print(f"serve fairness: light p95 {l95:.3f}ms vs heavy p95 {h95:.3f}ms "
          f"(bound {FAIR_LIGHT_FACTOR:g}x heavy + {FAIR_SLACK_MS:g}ms)")
    if cur["fair_light_ok"] <= 0:
        failures.append("serve: fairness phase produced zero successful "
                        "light-tenant probes — the fair queue starved or "
                        "dropped them")
    elif l95 > h95 * FAIR_LIGHT_FACTOR + FAIR_SLACK_MS:
        failures.append(
            f"serve: light-tenant p95 {l95:.2f}ms exceeds "
            f"{FAIR_LIGHT_FACTOR:g}x heavy p95 ({h95:.2f}ms) + "
            f"{FAIR_SLACK_MS:g}ms — per-client round-robin admission is not "
            "isolating tenants")

    base = ctx.serve_base
    if base is None:
        return failures
    for knob in SERVE_CONFIG:
        if base.get(knob) != cur.get(knob):
            print(f"notice: serve bench configs differ ({knob}: "
                  f"{base.get(knob)} vs {cur.get(knob)}); skipping serve p95 "
                  "comparison")
            return failures
    b95, c95 = num(base, "p95_ms"), cur["p95_ms"]
    if b95 is None:
        print("notice: baseline serve artifact has no p95_ms; skipping serve "
              "p95 comparison")
        return failures
    print(f"serve p95: {b95:.3f}ms -> {c95:.3f}ms "
          f"(allowance x{SERVE_P95_FACTOR:g} + {SERVE_P95_SLACK_MS:g}ms)")
    if c95 > b95 * SERVE_P95_FACTOR + SERVE_P95_SLACK_MS:
        failures.append(f"serve: p95 latency {b95:.2f}ms -> {c95:.2f}ms "
                        f"(allowance x{SERVE_P95_FACTOR:g})")
    return failures


GATES = (timing_gate, count_gate, pair_gate, serve_gate)


class Context:
    """The loaded artifacts. `base` / `serve_base` are None when there is
    no usable baseline; `serve_cur` is None when no serve run is gated."""

    def __init__(self, args):
        self.cur_meta, self.cur = load_rows(args.current)
        self.serve_cur = (load_json(args.serve_current)
                          if args.serve_current else None)
        self.base = None
        self.serve_base = None
        try:
            base_meta, base = load_rows(args.baseline)
        except (ValueError, OSError) as e:
            print(f"no baseline artifact at {args.baseline} ({e}); skipping "
                  "cross-run checks (first run, expired artifact, or fork)")
        else:
            if base_meta.get("sf") != self.cur_meta.get("sf"):
                print(f"scale factors differ (baseline sf="
                      f"{base_meta.get('sf')}, current sf="
                      f"{self.cur_meta.get('sf')}); skipping cross-run "
                      "checks")
            else:
                self.base = base
                self.note_row_set_change()
        if args.serve_current and args.serve_baseline:
            try:
                self.serve_base = load_json(args.serve_baseline)
            except (ValueError, OSError) as e:
                print(f"no serve baseline artifact at {args.serve_baseline} "
                      f"({e}); skipping serve p95 comparison")

    def note_row_set_change(self):
        # A changed row set (thread matrix, queries) is a configuration
        # change, not a regression: report it, compare the intersection.
        only_base = sorted(set(self.base) - set(self.cur), key=repr)
        only_cur = sorted(set(self.cur) - set(self.base), key=repr)
        if only_base:
            print(f"notice: {len(only_base)} baseline row(s) missing from "
                  f"the current run, e.g. {only_base[:3]}; comparing the "
                  "intersection")
        if only_cur:
            print(f"notice: {len(only_cur)} new row(s) have no baseline "
                  f"yet, e.g. {only_cur[:3]}")


def main():
    ap = argparse.ArgumentParser(
        description="Gate a BENCH_table3.json (and optionally a "
                    "BENCH_serve.json) against a baseline run.")
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--serve-baseline")
    ap.add_argument("--serve-current")
    args = ap.parse_args()
    try:
        ctx = Context(args)
    except (ValueError, OSError) as e:
        print(f"error: unreadable current benchmark artifact ({e}); the "
              "benchmark step did not produce JSON", file=sys.stderr)
        return 1
    failures = [f for gate in GATES for f in gate(ctx)]
    if failures:
        print("benchmark regressions:")
        for f in failures:
            print("  " + f)
        return 1
    print("no benchmark regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
