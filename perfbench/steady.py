#!/usr/bin/env python3
"""Steadiness check for the repo benchmark.

    python3 perfbench/steady.py [--workloads w ...] [--runs 10] [--sets 1]
                                [--seconds S] [--first-seed 1] [--out file.json]

Runs each workload --runs times (seed first-seed, first-seed+1, ...) through
perfbench/run.py, --sets times over, and prints for every end-to-end metric
the median, the first and third quartiles and the spread (Q3 - Q1) / median
of each set, beside the metric's bound from BENCHMARK.json. A spread above a
third of its bound is flagged (setup_s excepted: only its median is
bounded). With two or more sets it also flags a later set's median that is
worse than the first set's by more than the bound. Exits 1 when anything is
flagged or a run fails. Run it from the root of a checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: checks failed:\n{proc.stdout[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(first: float, later: float, better: str) -> float:
    """Share by which `later` is worse than `first` (negative = better)."""
    return (later - first) / first if better == "lower" else (first - later) / first


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="write every run's metrics here as JSON")
    args = ap.parse_args()

    flagged = []
    record = {}
    for workload in args.workloads:
        sets = []
        for k in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.first_seed + i
                runs.append(run_once(workload, seed, args.seconds))
                print(f"  {workload} set {k + 1} seed {seed} done", file=sys.stderr, flush=True)
            sets.append(runs)
        record[workload] = sets
        print(f"\n{workload}: {args.sets} set(s) x {args.runs} runs of {args.seconds} s")
        print(f"  {'metric':18} {'set':>3} {'median':>16} {'q1':>16} {'q3':>16} "
              f"{'spread':>8} {'bound':>6}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for k, runs in enumerate(sets):
                values = [r[name] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                medians.append(med)
                flag = ""
                if name != "setup_s" and spread > bound / 3:
                    flag = "  <-- spread above bound/3"
                    flagged.append(f"{workload} {name} set {k + 1} spread {spread:.4f}")
                if k > 0 and worse_by(medians[0], med, metric["better"]) > bound:
                    flag += "  <-- median worse than set 1 by more than the bound"
                    flagged.append(f"{workload} {name} set {k + 1} median drift")
                print(f"  {name:18} {k + 1:>3} {med:16.6f} {q1:16.6f} {q3:16.6f} "
                      f"{spread:8.4f} {bound:6.2f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
    print("\nflagged:" if flagged else "\nall spreads within a third of their bounds")
    for f in flagged:
        print(f"  {f}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
