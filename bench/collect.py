"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 1-10 [--workloads a,b] [--seconds 10] [--trace 0]

Runs ``run.py`` once per (workload, seed), in that order, and prints for
every metric the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their spread, the
distance between the quartiles as a share of the median.  Every run's
result and the summary are written to ``bench/out/collect-<label>.json``.
These are the figures the README's reference tables come from.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dist-sv-cached", "sv-fresh", "analytic-large-r", "verify-all")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default=time.strftime("%Y%m%d-%H%M%S"))
    args = parser.parse_args(argv)

    runs = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
            elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"run failed: {' '.join(cmd[1:])}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": workload, "seed": seed, "elapsed_s": elapsed, **result})
            print(f"{workload} seed {seed}: {elapsed:.1f} s, correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)

    summary = {}
    for workload in args.workloads.split(","):
        mine = [run for run in runs if run["workload"] == workload]
        for name in mine[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in mine]
            summary[f"{workload} {name}"] = dict(summarise(values), unit=mine[0]["metrics"][name]["unit"])
        shares = sorted({run["failed"] / run["attempted"] for run in mine})
        summary[f"{workload} failed_share"] = shares
    for key, stats in summary.items():
        if isinstance(stats, list):
            print(f"{key}: {stats}")
        else:
            print(f"{key}: median {stats['median']:.6g} {stats['unit']}, "
                  f"q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, spread {stats['spread']:.4f}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"collect-{args.label}.json"), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "runs": runs, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
