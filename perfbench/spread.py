#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule sees it.

    python3 perfbench/spread.py --workload paper_site --runs 10 [--first-seed 1]

Runs the benchmark once per seed and prints, for every end-to-end metric,
the median of the runs and the distance between their first and third
quartiles (statistics.quantiles, n=4) as a share of the median, next to the
metric's bound. A benchmark is steady when every spread but setup_s stays
well inside its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"),
                              "--workload", args.workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"],
                             capture_output=True, text=True, cwd=ROOT)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} " +
              " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values[k].append(v)
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        share = (q[2] - q[0]) / med
        print(f"{m['name']:20s} median {med:.6g} {m['unit']:6s} spread {share:.3f} "
              f"(bound {m['bound']}, target < {m['bound'] / 3:.3f})")


if __name__ == "__main__":
    main()
