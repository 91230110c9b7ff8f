#!/usr/bin/env python3
"""Build and run the repo benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark is built from source with
CMake into $CARGO_TARGET_DIR (default .bench_build) under the checkout; a
no-op rebuild takes about a second. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Traced runs write their
Chrome trace-event file to <build dir>/traces/. --selftest builds and runs
the benchmark's own tests instead. See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_sweep", "offload_churn", "fleet_soak", "fleet_faulty")
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(target: str) -> Path:
    if not (ROOT / "src" / "soc" / "soc.h").is_file():
        sys.exit(f"perfbench: no simulator sources under {ROOT / 'src'}; "
                 "run from the root of a full checkout")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", target, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out / target


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        return subprocess.run([str(build("perfbench_tests"))]).returncode
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds within 1..60")

    exe = build("perfbench")
    traces = build_dir() / "traces"
    traces.mkdir(exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
