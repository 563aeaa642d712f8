#!/usr/bin/env python3
"""Builds nlq_perfbench from this checkout's sources and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--tamper 1]

The build goes to .bench_build/perfbench (configured once, then rebuilt
incrementally). The benchmark's report and, for traced runs, its span
dump go to .bench_build/perfbench/out. The last line of standard output
is the result object: {"correct", "attempted", "failed", "metrics"}.
Exit status is 0 only for a run whose every output was correct.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ("model_build", "scoring", "mixed_serve", "spilled_build")


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_id(root):
    """The git commit when there is one, else a digest of the sources."""
    if (root / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30, check=True)
            return "git:" + out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return "tree:" + digest.hexdigest()[:16]


def run_step(cmd, cwd, timeout, what):
    try:
        out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(3, f"{what} timed out after {timeout} s")
    except OSError as e:
        fail(3, f"{what} could not start: {e}")
    if out.returncode != 0:
        sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
        fail(3, f"{what} failed with status {out.returncode}")


def build(root, build_dir):
    bench_dir = root / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        run_step(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 root, BUILD_TIMEOUT_S, "cmake configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_step(["cmake", "--build", str(build_dir), "--target", "nlq_perfbench",
              "-j", jobs], root, BUILD_TIMEOUT_S, "build")
    return build_dir / "nlq_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--tamper", default="0", choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail(2, "--seed must be >= 0 and --seconds in (0, 120]")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(2, f"engine sources not found under {root / 'src'}; run from a "
                "full checkout of the repository")

    build_dir = root / ".bench_build" / "perfbench"
    binary = build(root, build_dir)
    out_dir = build_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--tamper", args.tamper, "--out-dir", str(out_dir),
           "--source-id", source_id(root)]
    try:
        run = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, f"run timed out after {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(run.stdout)
        fail(4, f"no result line (benchmark exited with {run.returncode})")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
