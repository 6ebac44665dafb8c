#!/usr/bin/env python3
"""Reads qc_bench run records and judges them against BENCHMARK.json.

    compare.py spread SET             run-to-run spread of one set
    compare.py diff PARENT CHANGE     parent vs change, one row per
                                      (workload, metric)
    compare.py bundle OUT NAME=SET... store sets in one file (results/)

A SET is a directory searched for record files (*.json), a file holding a
list of records, or FILE#NAME for one set of a bundle.

diff applies the bounds of BENCHMARK.json and the rule for claiming a gain:
at least 10 pairs (runs of the same workload and seed), the change better
in at least 9 of 10 of them, and a median gap larger than the parent's
interquartile range. A change median worse than the parent's by more than
the bound is "worse"; so is one that meets the gain rule the other way
round ("worse (paired)"), which catches a regression inside a bound that
is sized for a noisier workload. Where the parent's own spread exceeds the
bound the row is "unresolved" unless every change run beats every parent
run. Exact counts must match run for run. Exits 1 on a worse end-to-end
row, an exact-count mismatch, or an incorrect run.
"""
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Counts the program makes that repeat exactly for a given seed.
EXACT = {"compiler.ir_stmts", "exec.bc_insns", "jit.deopts",
         "runtime.alloc_bytes", "runtime.heap_allocs"}
# Run metadata that must agree for two sets to be comparable.
FINGERPRINT = ["cpu", "nproc", "compiler", "build_type", "seconds", "sf",
               "threads", "level", "setups", "probe_ref_ms"]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_set(spec):
    path, _, name = spec.partition("#")
    p = Path(path)
    if p.is_dir():
        return [json.loads(f.read_text()) for f in sorted(p.rglob("*.json"))]
    data = json.loads(p.read_text())
    if name:
        return data["sets"][name]
    return data if isinstance(data, list) else [data]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def by_key(records, trace):
    """{workload: [record, ...]} in run order, for one trace mode."""
    out = defaultdict(list)
    for r in sorted(records, key=lambda r: r["meta"].get("time", 0)):
        if int(r["meta"]["trace"]) == trace:
            out[r["meta"]["workload"]].append(r)
    return out


def value(record, metric):
    m = record["result"]["metrics"].get(metric)
    return None if m is None else m["value"]


def check_correct(records):
    bad = [r for r in records if not r["result"]["correct"]]
    for r in bad:
        m = r["meta"]
        print(f"INCORRECT run: {m['workload']} seed={m['seed']} "
              f"failed={r['result']['failed']}/{r['result']['attempted']}")
    return not bad


def spread(args):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    records = load_set(args[0])
    ok = check_correct(records)
    print(f"{'workload':<12} {'metric':<14} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  status")
    for workload, runs in by_key(records, 0).items():
        for m in bench["end_to_end"]:
            vals = [v for v in (value(r, m["name"]) for r in runs)
                    if v is not None]
            if not vals:
                continue
            med = statistics.median(vals)
            q1, q3 = quartiles(vals)
            s = (q3 - q1) / med if med else float("inf")
            if m["name"] == "setup_s":
                status = "(not bounded)"
            elif s < m["bound"] / 3:
                status = "ok"
            elif s < m["bound"]:
                status = "WIDE: above a third of the bound"
            else:
                status = "OVER the bound"
                ok = False
            print(f"{workload:<12} {m['name']:<14} {len(vals):>3} {med:>12.4f} "
                  f"{q1:>12.4f} {q3:>12.4f} {s:>7.2%} {m['bound']:>6.0%}  "
                  f"{status}")
    return 0 if ok else 1


def fingerprint_notice(parent, change):
    for workload in sorted(set(parent) | set(change)):
        for key in FINGERPRINT:
            a = {str(r["meta"].get(key)) for r in parent.get(workload, [])}
            b = {str(r["meta"].get(key)) for r in change.get(workload, [])}
            if a and b and a != b:
                print(f"NOTICE: {workload}: {key} differs "
                      f"({', '.join(sorted(a))} vs {', '.join(sorted(b))}); "
                      "the sets were not measured the same way")


def pairs(parent_runs, change_runs):
    """Runs of the same seed, matched in run order."""
    seeds = defaultdict(lambda: ([], []))
    for r in parent_runs:
        seeds[r["meta"]["seed"]][0].append(r)
    for r in change_runs:
        seeds[r["meta"]["seed"]][1].append(r)
    out = []
    for p, c in seeds.values():
        out.extend(zip(p, c))
    return out


def verdict(metric, pvals, cvals, matched):
    lower = metric["better"] == "lower"
    sign = 1 if lower else -1  # > 0 means the change is worse
    pmed, cmed = statistics.median(pvals), statistics.median(cvals)
    q1, q3 = quartiles(pvals)
    rel = sign * (cmed - pmed) / pmed if pmed else 0.0
    wins = sum(1 for p, c in matched if sign * (c - p) < 0)
    losses = sum(1 for p, c in matched if sign * (c - p) > 0)
    all_better = (max(cvals) < min(pvals)) if lower else (min(cvals) > max(pvals))
    bound = metric.get("bound")

    def decided(count):
        return (len(matched) >= MIN_PAIRS and count >= WIN_SHARE * len(matched)
                and abs(cmed - pmed) > (q3 - q1))

    if decided(wins) and rel < 0:
        v = "improved"
    elif bound is not None and rel > bound:
        v = "WORSE"
    elif decided(losses) and rel > 0:
        v = "WORSE (paired)"
    elif bound is not None and pmed and (q3 - q1) / pmed > bound and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return pmed, (q1, q3), cmed, rel, wins, v


def diff(args):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parent, change = load_set(args[0]), load_set(args[1])
    ok = check_correct(parent) & check_correct(change)
    print(f"{'workload':<12} {'metric':<32} {'parent':>12} {'[q1, q3]':>25} "
          f"{'change':>12} {'delta':>8} {'wins':>7}  verdict")
    for trace, metrics in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        p_runs, c_runs = by_key(parent, trace), by_key(change, trace)
        fingerprint_notice(p_runs, c_runs)
        for workload in sorted(set(p_runs) & set(c_runs)):
            matched_runs = pairs(p_runs[workload], c_runs[workload])
            for m in metrics:
                name = m["name"]
                pvals = [v for v in (value(r, name) for r in p_runs[workload])
                         if v is not None]
                cvals = [v for v in (value(r, name) for r in c_runs[workload])
                         if v is not None]
                if not pvals or not cvals:
                    continue
                matched = [(value(p, name), value(c, name))
                           for p, c in matched_runs]
                pmed, (q1, q3), cmed, rel, wins, v = verdict(
                    m, pvals, cvals, matched)
                if name in EXACT:
                    same = all(p == c for p, c in matched)
                    v = "exact" if same else "EXACT COUNT CHANGED"
                    ok &= same
                elif trace == 1:
                    v = v.lower()  # per-layer metrics gate nothing
                ok &= not v.startswith("WORSE")
                print(f"{workload:<12} {name:<32} {pmed:>12.4f} "
                      f"[{q1:>11.4f}, {q3:>11.4f}] {cmed:>12.4f} {rel:>+8.2%} "
                      f"{wins:>3}/{len(matched):<3}  {v}")
    return 0 if ok else 1


def bundle(args):
    out, sets = args[0], {}
    for spec in args[1:]:
        name, _, path = spec.partition("=")
        sets[name] = load_set(path)
    with open(out, "w") as f:
        f.write('{"sets": {\n')
        for i, (name, records) in enumerate(sets.items()):
            f.write(f'{json.dumps(name)}: [\n')
            f.write(",\n".join(json.dumps(r, sort_keys=True) for r in records))
            f.write("\n]" + (",\n" if i + 1 < len(sets) else "\n"))
        f.write("}}\n")
    return 0


def main():
    commands = {"spread": (spread, 1), "diff": (diff, 2), "bundle": (bundle, 2)}
    if len(sys.argv) < 2 or sys.argv[1] not in commands or \
            len(sys.argv) - 2 < commands[sys.argv[1]][1]:
        print(__doc__, file=sys.stderr)
        return 2
    fn, _ = commands[sys.argv[1]]
    return fn(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
