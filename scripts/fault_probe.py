#!/usr/bin/env python3
"""Wall time, minor page faults and peak RSS of each ``empirical_risk`` call.

    python scripts/fault_probe.py CONFIG [--processes K] [--calls M] [--reps R]

Reads the simulation config JSON CONFIG (the ``simulate --config`` format),
with its reps replaced by R when given, and, in each of K fresh processes,
calls ``empirical_risk`` on it M times.
For every call it prints the process, the call, the wall time, the minor
page faults the call took (the ``ru_minflt`` delta of ``getrusage``) and the
process's peak RSS after it (``ru_maxrss``).  The first call of a process
also imports ``scipy.special``; later calls show the steady state.
"""

import argparse
import dataclasses
import multiprocessing
import resource
import time
from concurrent.futures import ProcessPoolExecutor

from robust_fps.dataio import read_sim_config
from robust_fps.simulate import empirical_risk


def probe(path: str, calls: int, reps: int | None = None) -> list[tuple[float, int, float]]:
    """(wall seconds, minor faults, peak RSS in MiB) of each of ``calls`` calls in this process.

    ``reps``, when given, replaces the config's reps.
    """
    config = read_sim_config(path)
    if reps is not None:
        config = dataclasses.replace(config, reps=reps)
    records = []
    for _ in range(calls):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        empirical_risk(config)
        wall = time.perf_counter() - start
        usage = resource.getrusage(resource.RUSAGE_SELF)
        # ru_maxrss is in KiB on Linux
        records.append((wall, usage.ru_minflt - before, usage.ru_maxrss / 1024.0))
    return records


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("config", help="simulation config JSON")
    ap.add_argument("--processes", type=int, default=8, help="fresh processes, one after another")
    ap.add_argument("--calls", type=int, default=5, help="empirical_risk calls per process")
    ap.add_argument("--reps", type=int, help="replications per call, in place of the config's")
    args = ap.parse_args()
    if args.processes < 1 or args.calls < 1:
        ap.error("--processes and --calls must be >= 1")
    if args.reps is not None and args.reps < 2:
        ap.error("--reps must be >= 2")

    print(f"{'process':>7} {'call':>4} {'wall_s':>8} {'minflt':>8} {'maxrss_mib':>10}")
    spawn = multiprocessing.get_context("spawn")
    for k in range(args.processes):
        # one worker process per pool: each probe starts from a fresh heap
        with ProcessPoolExecutor(1, mp_context=spawn) as pool:
            records = pool.submit(probe, args.config, args.calls, args.reps).result()
        for i, (wall, faults, rss) in enumerate(records):
            print(f"{k:>7} {i:>4} {wall:>8.3f} {faults:>8d} {rss:>10.1f}")


if __name__ == "__main__":
    main()
