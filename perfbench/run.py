#!/usr/bin/env python3
"""Builds qc_bench from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload tpch-seq --seed 1 --seconds 10 --trace 0

The build lives in .bench_build/perfbench at the root of the checkout this
file is in, so every checkout builds and runs its own sources. Build output
goes to stderr, so the last line of stdout is the benchmark's result object.
Run records, spans and the generated-C scratch files go to .bench_build/runs
unless --out-dir is given.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def configured_source(build):
    """The source directory the build tree was configured for, or None."""
    try:
        for line in (build / "CMakeCache.txt").read_text().splitlines():
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return Path(line.partition("=")[2]).resolve()
    except OSError:
        pass
    return None


def main():
    build_root = ROOT / ".bench_build"
    build = build_root / "perfbench"
    # Compiler temporaries stay inside the checkout too.
    tmp = build_root / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp), QC_BENCH_GIT_SHA=git_sha())
    steps = []
    if configured_source(build) != SOURCE:
        # Missing, or configured for another checkout (a copied tree): a
        # build there would compile that checkout's sources.
        shutil.rmtree(build, ignore_errors=True)
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(build),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build), "--target", "qc_bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, env=env).returncode
        except OSError as e:
            print(f"run.py: {e}", file=sys.stderr)
            return 2
        if rc != 0:
            print("run.py: building qc_bench failed", file=sys.stderr)
            return 2

    args = sys.argv[1:]
    if not any(a == "--out-dir" or a.startswith("--out-dir=") for a in args):
        args += ["--out-dir", str(build_root / "runs")]
    return subprocess.run([str(build / "qc_bench")] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
