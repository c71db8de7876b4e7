#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the bounds are checked.

    python3 perfbench/spread.py --workload NAME [--seeds 10] [--first-seed 1]

Runs ``run.py --trace 0`` once per seed and prints, for each end-to-end
metric, the median and the quartile spread (Q3 - Q1) / median, with
``statistics.quantiles(values, n=4)``, beside the metric's bound from
BENCHMARK.json.  Each bound should be at least three times its spread
(``setup_s`` excepted, whose spread is not bounded).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                              capture_output=True, text=True, timeout=200)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k} {v[-1]:.5g}" for k, v in values.items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med
        print(f"{args.workload} {name}: median {med:.6g}, spread {spread:.4f}, bound {bounds[name]}, "
              f"bound/3 {bounds[name] / 3:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
