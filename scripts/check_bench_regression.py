#!/usr/bin/env python3
"""Fails CI when an interpreter benchmark row regresses.

Compares two BENCH_table3.json artifacts (bench/table3_tpch.cc with
QC_BENCH_JSON=1): the baseline from the last successful main-branch run and
the current build. Rows are matched on (query, threads); only the
in-process engine columns (ir-bc, ir-jit) are compared — the native
columns depend on the host compiler and are tracked, not gated.

A cell fails when current > baseline * (1 + threshold). Cells faster than
--min-ms in the baseline are skipped: CI timing jitter on sub-millisecond
queries would make the gate flaky.

When the artifacts carry JIT telemetry (QC_JIT_STATS=1 during the bench:
"ir-jit-coverage" cells, percent of bytecode pcs with native code), the
gate additionally fails if any query's coverage dropped more than
--coverage-points vs the baseline, or its deopt-event count
("ir-jit-deopts") exploded past --deopt-factor. Both counters are
deterministic — timing noise can hide a lost template, these numbers
cannot.

When the current artifact carries governed cells (QC_BENCH_GOVERNED=1
during the bench: "ir-bc-gov" / "ir-jit-gov", the same engine run with an
idle governance ExecControl attached), the gate additionally bounds the
*safepoint overhead*: the geometric mean of governed/ungoverned across all
queries must stay within --gov-overhead (default 2%). This check is
intra-artifact — it compares cells of the same run on the same machine, so
it works on the very first run and is immune to cross-run machine drift.

When the current artifact carries observability cells (QC_BENCH_OBS=1
during the bench: "ir-jit-obs", the same JIT run with a live telemetry
trace session recording spans and morsel slices), the gate bounds the
*telemetry overhead* the same intra-artifact way: the geomean of
traced/untraced must stay within --obs-overhead (default 2%). The
untraced side of the pair is "ir-jit-obs-base", a plain JIT run measured
immediately before the traced one — adjacent cells share machine state
(frequency, caches), so the ratio isolates tracing cost rather than the
minutes of drift between the traced run and the distant ir-jit cell.
Since this measures tracing *enabled*, it also upper-bounds the disabled
cost (one relaxed atomic load per span site).

Robustness contract: a baseline that predates some cells (older artifact
without ir-jit-coverage / ir-jit-deopts), a row set that changed between
runs, or a malformed baseline artifact must never crash the gate — such
cells are skipped with a printed notice, and the script exits non-zero
only on real regressions (or a missing/broken *current* artifact, which
means the benchmark step itself regressed).

When the current artifact carries verification cells (QC_BENCH_VERIFY=1
during the bench: "ir-jit-verify" vs the adjacently-measured
"ir-jit-verify-base", the same JIT run with the static verifier layer of
src/analysis/ forced on vs off), the gate bounds the *verifier overhead*
intra-artifact with --verify-overhead (default 2%). Verification runs
entirely at program-compile time, so the steady-state best-of-N these
cells record must be identical: the gate is what proves no check leaked
into the per-row execution path, and that the QC_VERIFY=0 Release
configuration pays nothing.

When given --serve-current (a BENCH_serve.json from bench/serve_latency.cc),
the gate additionally checks the serving daemon: the shed rate of the
unfaulted bench run must stay within --serve-shed-rate (intra-artifact —
the bench is provisioned so nothing should shed; sheds here mean admission
or worker scheduling regressed), at least one request must have succeeded,
the fairness cells (fair_light_p95_ms vs fair_heavy_p95_ms, from the
bench's 1-heavy/1-light tenant phase) must show the light tenant bounded
by --fair-light-factor of the heavy p95 plus --fair-slack-ms (also
intra-artifact — light converging on heavy means FIFO-style starvation),
and — when --serve-baseline exists — p95 latency must stay within
--serve-p95-factor of the baseline (plus a small absolute slack so
microsecond-level jitter on fast configs can't trip it). The same
missing-baseline tolerance applies: no serve baseline is a notice, a
missing/corrupt serve *current* artifact fails the gate.

Usage:
  check_bench_regression.py BASELINE.json CURRENT.json \
      [--threshold 0.25] [--min-ms 1.0] [--coverage-points 5.0] \
      [--deopt-factor 2.0] [--gov-overhead 0.02] [--obs-overhead 0.02] \
      [--verify-overhead 0.02] \
      [--serve-baseline SERVE_BASE.json --serve-current SERVE_CUR.json] \
      [--serve-p95-factor 1.5] [--serve-shed-rate 0.01] \
      [--fair-light-factor 0.75] [--fair-slack-ms 5.0]
"""

import argparse
import json
import math
import os
import sys

INTERP_COLUMNS = ("ir-bc", "ir-jit")

# (ungoverned, governed) cell pairs for the safepoint-overhead gate.
GOV_COLUMNS = (("ir-bc", "ir-bc-gov"), ("ir-jit", "ir-jit-gov"))

# (untraced, traced) cell pairs for the telemetry-overhead gate.
OBS_COLUMNS = (("ir-jit-obs-base", "ir-jit-obs"),)

# (unverified, verified) cell pairs for the static-verifier-overhead gate.
VERIFY_COLUMNS = (("ir-jit-verify-base", "ir-jit-verify"),)

# Cells faster than this in the ungoverned column are excluded from the
# overhead geomean: at timer resolution the ratio is dominated by noise,
# not by safepoint cost. Deliberately lower than --min-ms — the geomean
# over many queries averages jitter out, a single-cell gate cannot.
GOV_FLOOR_MS = 0.1


def paired_overhead_regressions(cur, pairs, allowed, what, hint,
                                skip_notice):
    """Intra-artifact paired-cell geomean check (current run only).

    For each (plain, instrumented) column pair, bounds the geometric mean
    of instrumented/plain across all rows by `allowed`. Returns a list of
    regression strings; empty when within the allowance or when the
    artifact has no instrumented cells (reported via `skip_notice`, not a
    failure).
    """
    regressions = []
    pairs_seen = 0
    for base_col, inst_col in pairs:
        logs = []
        for key in sorted(cur, key=repr):
            row = cur[key]
            b = as_number(row, base_col)
            g = as_number(row, inst_col)
            if b is None or g is None or b < GOV_FLOOR_MS or g <= 0:
                continue
            logs.append(math.log(g / b))
        if not logs:
            continue
        pairs_seen += 1
        geo = math.exp(sum(logs) / len(logs))
        print(f"{what} overhead {inst_col}/{base_col}: geomean "
              f"{(geo - 1.0) * 100.0:+.2f}% over {len(logs)} cells "
              f"(allowance +{allowed * 100:.0f}%)")
        if geo > 1.0 + allowed:
            regressions.append(
                f"{inst_col}: instrumented runs {(geo - 1.0) * 100.0:.1f}% "
                f"slower than {base_col} geomean over {len(logs)} cells "
                f"(allowance {allowed * 100:.0f}%) — {hint}")
    if pairs_seen == 0:
        print(skip_notice)
    return regressions


def gov_overhead_regressions(cur, allowed):
    """Intra-artifact governed/ungoverned geomean check (current run only)."""
    return paired_overhead_regressions(
        cur, GOV_COLUMNS, allowed, "governance",
        "a safepoint left the cold path or the poll interval collapsed",
        "notice: current artifact has no governed cells "
        "(QC_BENCH_GOVERNED not set during the bench); "
        "governance-overhead gate skipped")


def obs_overhead_regressions(cur, allowed):
    """Intra-artifact traced/untraced geomean check (current run only)."""
    return paired_overhead_regressions(
        cur, OBS_COLUMNS, allowed, "telemetry",
        "a span site does work off the session fast path or recording "
        "left the per-thread ring",
        "notice: current artifact has no observability cells "
        "(QC_BENCH_OBS not set during the bench); "
        "telemetry-overhead gate skipped")


def verify_overhead_regressions(cur, allowed):
    """Intra-artifact verified/unverified geomean check (current run only).

    The static verifier layer (src/analysis/) does all its work at
    program-compile time, before the first row flows; the steady-state
    execution path must be identical with the layer on or off. Any geomean
    gap beyond the allowance means a check leaked out of compile time into
    the per-row path.
    """
    return paired_overhead_regressions(
        cur, VERIFY_COLUMNS, allowed, "verification",
        "a verifier or JIT-audit check leaked out of compile time into "
        "the per-row execution path",
        "notice: current artifact has no verification cells "
        "(QC_BENCH_VERIFY not set during the bench); "
        "verifier-overhead gate skipped")


def serve_gate(args):
    """Serving-daemon gates (BENCH_serve.json). Returns (fatal, regressions).

    `fatal` means the current serve artifact itself is missing or broken —
    the benchmark step regressed, independent of any comparison.
    """
    if not args.serve_current:
        return False, []
    if not os.path.exists(args.serve_current):
        print(f"error: no current serve benchmark output at "
              f"{args.serve_current}; the serve benchmark step did not "
              "produce JSON", file=sys.stderr)
        return True, []
    try:
        with open(args.serve_current) as f:
            cur = json.load(f)
        if not isinstance(cur, dict):
            raise ValueError("top-level JSON is not an object")
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: unreadable current serve artifact ({e})",
              file=sys.stderr)
        return True, []

    regressions = []
    ok = cur.get("ok")
    if not isinstance(ok, (int, float)) or ok <= 0:
        regressions.append(
            "serve: zero successful requests in the bench run — the daemon "
            "or the bench client harness is broken")
    shed_rate = cur.get("shed_rate")
    if isinstance(shed_rate, (int, float)):
        print(f"serve shed rate: {shed_rate:.4f} "
              f"(allowance {args.serve_shed_rate:.4f})")
        if shed_rate > args.serve_shed_rate:
            regressions.append(
                f"serve: shed rate {shed_rate:.4f} exceeds "
                f"{args.serve_shed_rate:.4f} on the unfaulted bench config "
                "— admission or worker scheduling regressed")
    else:
        regressions.append("serve: current artifact has no shed_rate cell")

    # Fairness gate (intra-artifact): under the 1-heavy/1-light tenant mix
    # the light tenant's p95 must stay near ONE heavy service time. A light
    # p95 approaching the heavy p95 means the admission queue serves the
    # heavy backlog FIFO-style and starves light tenants.
    l95 = cur.get("fair_light_p95_ms")
    h95 = cur.get("fair_heavy_p95_ms")
    if isinstance(l95, (int, float)) and isinstance(h95, (int, float)):
        lok = cur.get("fair_light_ok")
        print(f"serve fairness: light p95 {l95:.3f}ms vs heavy p95 "
              f"{h95:.3f}ms (bound {args.fair_light_factor:g}x heavy "
              f"+ {args.fair_slack_ms:g}ms)")
        if not isinstance(lok, (int, float)) or lok <= 0:
            regressions.append(
                "serve: fairness phase produced zero successful light-tenant"
                " probes — the fair queue starved or dropped them")
        elif l95 > h95 * args.fair_light_factor + args.fair_slack_ms:
            regressions.append(
                f"serve: light-tenant p95 {l95:.2f}ms exceeds "
                f"{args.fair_light_factor:g}x heavy p95 ({h95:.2f}ms) "
                f"+ {args.fair_slack_ms:g}ms — per-client round-robin "
                "admission is not isolating tenants")
    else:
        print("notice: current serve artifact has no fairness cells "
              "(QC_SERVE_BENCH_FAIR_HEAVY=0 during the bench?); "
              "fairness gate skipped")

    if not args.serve_baseline or not os.path.exists(args.serve_baseline):
        print("no serve baseline artifact; skipping serve p95 comparison "
              "(first run, expired artifact, or fork)")
        return False, regressions
    try:
        with open(args.serve_baseline) as f:
            base = json.load(f)
        if not isinstance(base, dict):
            raise ValueError("top-level JSON is not an object")
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(f"notice: unreadable serve baseline artifact ({e}); "
              "skipping serve p95 comparison")
        return False, regressions

    # Latency is only comparable on an identical bench configuration.
    for knob in ("sf", "clients", "requests_per_client", "workers"):
        if base.get(knob) != cur.get(knob):
            print(f"notice: serve bench configs differ ({knob}: "
                  f"{base.get(knob)} vs {cur.get(knob)}); skipping serve "
                  "p95 comparison")
            return False, regressions
    b95, c95 = base.get("p95_ms"), cur.get("p95_ms")
    if not isinstance(b95, (int, float)) or not isinstance(c95, (int, float)):
        print("notice: p95_ms missing from a serve artifact; skipping "
              "serve p95 comparison")
        return False, regressions
    print(f"serve p95: {b95:.3f}ms -> {c95:.3f}ms "
          f"(allowance x{args.serve_p95_factor:g} + 1ms)")
    # The absolute +1ms slack keeps sub-millisecond baselines from turning
    # scheduler jitter into a gate failure.
    if c95 > b95 * args.serve_p95_factor + 1.0:
        regressions.append(
            f"serve: p95 latency {b95:.2f}ms -> {c95:.2f}ms "
            f"(allowance x{args.serve_p95_factor:g})")
    return False, regressions


def load_rows(path):
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top-level JSON is not an object")
    row_list = data.get("rows", [])
    if not isinstance(row_list, list):
        raise ValueError(f"{path}: \"rows\" is not a list")
    rows = {}
    for row in row_list:
        if not isinstance(row, dict) or "query" not in row:
            print(f"notice: skipping malformed row in {path}: {row!r}")
            continue
        key = (row.get("query"), row.get("threads", 1))
        rows[key] = row
    return data, rows


def as_number(row, col):
    v = row.get(col)
    return v if isinstance(v, (int, float)) else None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="allowed relative slowdown (0.25 = 25%%)")
    ap.add_argument("--min-ms", type=float, default=1.0,
                    help="skip cells below this baseline time")
    ap.add_argument("--coverage-points", type=float, default=5.0,
                    help="allowed ir-jit native-coverage drop in points")
    ap.add_argument("--deopt-factor", type=float, default=2.0,
                    help="allowed ir-jit-deopts growth factor (plus a "
                         "small absolute slack for tiny counts)")
    ap.add_argument("--gov-overhead", type=float, default=0.02,
                    help="allowed governed/ungoverned geomean slowdown "
                         "(0.02 = 2%%; intra-artifact, needs no baseline)")
    ap.add_argument("--obs-overhead", type=float, default=0.02,
                    help="allowed traced/untraced geomean slowdown "
                         "(0.02 = 2%%; intra-artifact, needs no baseline)")
    ap.add_argument("--verify-overhead", type=float, default=0.02,
                    help="allowed verified/unverified geomean slowdown "
                         "(0.02 = 2%%; verification is compile-time-only, "
                         "so steady state must not move; intra-artifact)")
    ap.add_argument("--serve-baseline", default=None,
                    help="baseline BENCH_serve.json (optional)")
    ap.add_argument("--serve-current", default=None,
                    help="current BENCH_serve.json; enables the serving-"
                         "daemon gates")
    ap.add_argument("--serve-p95-factor", type=float, default=1.5,
                    help="allowed serve p95 growth factor vs baseline")
    ap.add_argument("--serve-shed-rate", type=float, default=0.01,
                    help="allowed shed rate on the unfaulted serve bench")
    ap.add_argument("--fair-light-factor", type=float, default=0.75,
                    help="light-tenant p95 bound as a factor of the heavy "
                         "p95 (intra-artifact fairness gate)")
    ap.add_argument("--fair-slack-ms", type=float, default=5.0,
                    help="absolute slack added to the fairness bound so "
                         "sub-millisecond configs cannot trip on jitter")
    args = ap.parse_args()

    serve_fatal, serve_regressions = serve_gate(args)
    if serve_fatal:
        return 1

    if not os.path.exists(args.current):
        # Unlike a missing baseline, this means the benchmark step itself
        # broke (JSON emission regressed): fail loudly, or the gate would
        # silently stay off forever.
        print(f"error: no current benchmark output at {args.current}; "
              "the benchmark step did not produce JSON", file=sys.stderr)
        return 1
    # A corrupt current artifact is a broken benchmark step: fail.
    try:
        cur_meta, cur = load_rows(args.current)
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: unreadable current benchmark output ({e})",
              file=sys.stderr)
        return 1

    # The governance- and telemetry-overhead gates compare cells within the
    # current artifact, so they run before (and independently of) any
    # baseline.
    gov_regressions = gov_overhead_regressions(cur, args.gov_overhead)
    gov_regressions += obs_overhead_regressions(cur, args.obs_overhead)
    gov_regressions += verify_overhead_regressions(cur, args.verify_overhead)

    def finish_without_baseline():
        baseline_free = gov_regressions + serve_regressions
        if baseline_free:
            print("baseline-free regressions:")
            for r in baseline_free:
                print("  " + r)
            return 1
        print("no governance-overhead or serve regressions")
        return 0

    # First runs and forks have no previous successful main-branch artifact:
    # that is not a regression, so report and succeed instead of crashing.
    if not os.path.exists(args.baseline):
        print(f"no baseline artifact at {args.baseline}; skipping "
              "cross-run regression check (first run, expired artifact, "
              "or fork)")
        return finish_without_baseline()

    # A corrupt baseline (truncated upload, artifact format drift) is the
    # missing-baseline case in disguise: skip with a notice.
    try:
        base_meta, base = load_rows(args.baseline)
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(f"notice: unreadable baseline artifact ({e}); skipping "
              "cross-run regression check")
        return finish_without_baseline()

    if base_meta.get("sf") != cur_meta.get("sf"):
        print(f"scale factors differ (baseline sf={base_meta.get('sf')}, "
              f"current sf={cur_meta.get('sf')}); skipping cross-run "
              "comparison")
        return finish_without_baseline()

    # A changed row set (different thread matrix, added/removed queries) is
    # a configuration change, not a regression: report it, compare the
    # intersection.
    only_base = sorted(set(base) - set(cur), key=repr)
    only_cur = sorted(set(cur) - set(base), key=repr)
    if only_base:
        print(f"notice: {len(only_base)} baseline row(s) missing from the "
              f"current run (row set changed), e.g. {only_base[:3]}; "
              "comparing the intersection")
    if only_cur:
        print(f"notice: {len(only_cur)} new row(s) have no baseline yet, "
              f"e.g. {only_cur[:3]}")

    regressions = list(gov_regressions) + list(serve_regressions)
    compared = 0
    for key, brow in sorted(base.items(), key=lambda kv: repr(kv[0])):
        crow = cur.get(key)
        if crow is None:
            continue
        for col in INTERP_COLUMNS:
            b = as_number(brow, col)
            c = as_number(crow, col)
            if b is None or c is None or b < args.min_ms or b <= 0 or c <= 0:
                continue
            compared += 1
            if c > b * (1.0 + args.threshold):
                regressions.append(
                    f"Q{key[0]} threads={key[1]} {col}: "
                    f"{b:.2f}ms -> {c:.2f}ms (+{100.0 * (c / b - 1.0):.0f}%)")

    # JIT native-coverage gate: deterministic (no timing jitter), so any
    # drop beyond the allowance is a lost template or a stitching change.
    # A baseline predating the telemetry cells simply has no coverage rows:
    # the gate skips with a notice instead of guessing.
    cov_compared = 0
    base_cov_rows = 0
    for key, brow in sorted(base.items(), key=lambda kv: repr(kv[0])):
        crow = cur.get(key)
        if crow is None:
            continue
        b = as_number(brow, "ir-jit-coverage")
        if b is None:
            continue
        base_cov_rows += 1
        c = as_number(crow, "ir-jit-coverage")
        if c is None:
            # The baseline had telemetry for this query but the current run
            # emitted none: that query's JIT degraded entirely — the
            # largest possible coverage loss, not a skippable cell.
            regressions.append(
                f"Q{key[0]} threads={key[1]} ir-jit-coverage: {b:.1f}% -> "
                "missing (JIT fully degraded for this query)")
            continue
        cov_compared += 1
        if c < b - args.coverage_points:
            regressions.append(
                f"Q{key[0]} threads={key[1]} ir-jit-coverage: "
                f"{b:.1f}% -> {c:.1f}% (-{b - c:.1f} points)")
    if base_cov_rows == 0:
        print("notice: baseline artifact predates ir-jit-coverage telemetry; "
              "coverage gate skipped")
    # Same failure at whole-artifact granularity, with the likelier cause
    # called out (QC_JIT_STATS dropped from the benchmark invocation).
    if base_cov_rows > 0 and cov_compared == 0:
        regressions.append(
            f"ir-jit-coverage: baseline has {base_cov_rows} telemetry rows, "
            "current has none (JIT fully degraded, or QC_JIT_STATS missing "
            "from the benchmark step)")

    # Deopt gate: deopt events are deterministic counts; with native sorts
    # they are once-per-query constants, so an explosion means a hot-path
    # opcode lost its template or a comparator region stopped stitching.
    # The absolute slack keeps tiny counts (0 -> 3) from tripping the gate.
    deopt_compared = 0
    base_deopt_rows = 0
    deopt_missing = 0
    for key, brow in sorted(base.items(), key=lambda kv: repr(kv[0])):
        crow = cur.get(key)
        if crow is None:
            continue
        b = as_number(brow, "ir-jit-deopts")
        if b is None:
            continue
        base_deopt_rows += 1
        c = as_number(crow, "ir-jit-deopts")
        if c is None:
            # Full JIT degradation also drops ir-jit-coverage and fails
            # there; a row missing only its deopt cell means the telemetry
            # emission changed — surface it rather than skipping silently.
            deopt_missing += 1
            continue
        deopt_compared += 1
        if c > max(b * args.deopt_factor, b + 8):
            regressions.append(
                f"Q{key[0]} threads={key[1]} ir-jit-deopts: "
                f"{b:.0f} -> {c:.0f} events")
    if base_deopt_rows == 0:
        print("notice: baseline artifact predates ir-jit-deopts telemetry; "
              "deopt gate skipped")
    elif deopt_missing > 0:
        print(f"notice: {deopt_missing} row(s) lost their ir-jit-deopts "
              "cell vs the baseline; those rows were not deopt-gated "
              "(check the benchmark step's telemetry emission)")

    print(f"compared {compared} interpreter cells "
          f"(threshold +{args.threshold * 100:.0f}%, "
          f"min {args.min_ms}ms), {cov_compared} ir-jit coverage cells "
          f"(allowance {args.coverage_points} points), and "
          f"{deopt_compared} ir-jit deopt cells "
          f"(allowance x{args.deopt_factor:g})")
    if regressions:
        print("benchmark regressions:")
        for r in regressions:
            print("  " + r)
        return 1
    print("no interpreter-row, governance-overhead, or serve regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
