#!/usr/bin/env python3
"""Runs the benchmark over several seeds, for one checkout or alternating
between several (parent and change), and collects the run records.

    python3 perfbench/sweep.py --seeds 1-10 --out /tmp/sweep
    python3 perfbench/sweep.py --seeds 1-10 --out /tmp/ab \\
        --checkout ../parent --checkout .

Records land in <out>/<label>/records, one label per checkout (the
directory name, or c0, c1, ... when names repeat). Runs alternate which
checkout goes first from one seed to the next. With one checkout the sweep
ends with compare.py's spread report; with two, with its comparison.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    ap.add_argument("--workloads", default="all",
                    help="comma-separated names, or all (BENCHMARK.json)")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--checkout", action="append", default=[],
                    help="checkout root to run (repeatable; default: this one)")
    ap.add_argument("--out", required=True, help="directory for the records")
    args = ap.parse_args()

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = ([w["name"] for w in bench["workloads"]]
                 if args.workloads == "all" else args.workloads.split(","))
    seconds = args.seconds or bench["run_seconds"]
    roots = [Path(c).resolve() for c in args.checkout] or [HERE.parent]
    names = [r.name for r in roots]
    labels = names if len(set(names)) == len(names) else [
        f"c{i}" for i in range(len(roots))]
    out = Path(args.out).resolve()

    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = list(zip(labels, roots))
        if i % 2 == 1:
            order.reverse()
        for workload in workloads:
            for label, root in order:
                cmd = [sys.executable, str(root / "perfbench" / "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", args.trace,
                       "--out-dir", str(out / label)]
                proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                                      text=True)
                lines = proc.stdout.strip().splitlines()
                last = lines[-1] if lines else ""
                print(f"{label} {workload} seed={seed} rc={proc.returncode} "
                      f"{last[:200]}", flush=True)

    sets = [str(out / label) for label in labels]
    mode = ["spread"] if len(sets) == 1 else ["diff"]
    return subprocess.run([sys.executable, str(HERE / "compare.py")] + mode +
                          sets[:2]).returncode


if __name__ == "__main__":
    sys.exit(main())
