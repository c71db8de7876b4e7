#!/usr/bin/env python3
"""robust-fps benchmark: four CLI workloads, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in fresh processes started here, with ``src`` on
PYTHONPATH and BLAS threads pinned to the CPUs this process may use:

* ``--trace 0``: SETUP_SAMPLES processes each import ``robust_fps.cli`` and
  complete the warm-up operation (``setup_s`` is their median); the last
  of them then runs a single-client closed loop of ``cli.main(argv)`` calls
  for ``--seconds`` and reports the end-to-end metrics.
* ``--trace 1``: one process warms up, then alternates an untraced
  ``cli.main`` call with the traced call chain of stages.py on the same
  input, and reports the per-layer metrics.

Inputs come from inputs.py and depend only on the workload and ``--seed``.
Every operation is checked (oracle.py); a failed check, exception or
non-zero exit code counts in ``failed``.  Human-readable lines come first;
the last line of standard output is the JSON result.  The full record of
each workload run, with the machine and environment, is written to
``.perfbench_runs/`` in the current directory.  See METRICS.md for what each
metric means and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import inputs  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(os.getcwd(), ".perfbench_runs")
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0

END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MiB", "setup_s": "s"}
PER_LAYER = {
    "cli.main.ms": "ms",
    "dataio.read_frame_csv.ms": "ms",
    "dataio.rows_per_s": "rows/s",
    "risk.calibrate_c.ms": "ms",
    "risk.g_clip.calls": "count",
    "estimators.robust_estimate.ms": "ms",
    "frame.classical_estimate.ms": "ms",
    "risk.mse_closed_form.ms": "ms",
    "divergence.influence.ms": "ms",
    "divergence.divergence.calls": "count",
    "divergence.influence.gflop_computed": "GFLOP",
    "dataio.build_report.ms": "ms",
    "dataio.write_report.ms": "ms",
    "dataio.read_sim_config.ms": "ms",
    "simulate.empirical_risk.ms": "ms",
    "streams.batch_rep_uniforms.ms": "ms",
    "streams.ndtri.ms": "ms",
    "streams.bytes_computed": "bytes",
    "simulate.reduce_est.ms": "ms",
    "simulate.failures": "count",
    "simulate.write_result.ms": "ms",
    "trace.overhead_frac": "fraction",
}


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(cpu_count())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("ROBUST_FPS_SEED", None)  # the simulate seed must come from the config
    return env


def spawn(mode: str, manifest: str, seconds: float, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--manifest", manifest, "--mode", mode, "--seconds", str(seconds)]
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile_with_tail(values: list[float], tail: int = 10):
    """Highest whole percentile with at least ``tail`` samples above it, or None."""
    k = len(values)
    if k < 2 * tail:
        return None
    p = int(100 * (k - tail) / k)
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_workload(workload: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    workdir = os.path.join(RUNS, f"work-{workload}-{seed}-{os.getpid()}")
    try:
        pool = inputs.make_inputs(workload, seed, os.path.join(workdir, "pool"))
        canary = inputs.make_inputs(workload, inputs.CANARY_SEED, os.path.join(workdir, "canary"))[0]
        manifest = os.path.join(workdir, "manifest.json")
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump({"pool": pool, "canary": canary,
                       "cycle": len(pool) if workload == "estimate_report" else 1,
                       "reference": os.path.join(HERE, "reference", workload + ".json")}, fh)
        if traced:
            runs = [spawn("trace", manifest, seconds, deadline)]
        else:
            runs = [spawn("setup", manifest, seconds, deadline) for _ in range(SETUP_SAMPLES - 1)]
            runs.append(spawn("measure", manifest, seconds, deadline))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    last = runs[-1]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "sizes": inputs.SIZES[workload],
        "env": dict(last["env"], nproc=cpu_count(), pinned_blas_threads=cpu_count(),
                    platform=platform.platform(), machine=platform.machine()),
        "warmup": {"setup_s": [r["setup_s"] for r in runs], "import_s": [r["import_s"] for r in runs],
                   "ms": [r["warmup"]["ms"] for r in runs], "ok": [r["warmup"]["ok"] for r in runs]},
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "import_rss_mb": last["import_rss_mb"],
    }
    if traced:
        per_layer = last["per_layer"]
        record["traced_ops"] = last["traced_ops"]
        record["metrics"] = {k: per_layer.get(k, 0.0) for k in PER_LAYER}
    else:
        times = last["op_seconds"]
        record["op_ms"] = [1e3 * t for t in times]
        record["metrics"] = {
            "ops_per_s": len(times) / sum(times) if times else 0.0,
            "op_p50_ms": 1e3 * statistics.median(times) if times else 0.0,
            "peak_rss_mb": last["peak_rss_mb"],
            "setup_s": statistics.median(record["warmup"]["setup_s"]),
        }
        record["tail"] = percentile_with_tail(record["op_ms"])
    os.makedirs(RUNS, exist_ok=True)
    with open(os.path.join(RUNS, f"{workload}-seed{seed}-trace{int(traced)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(rec: dict) -> None:
    w = rec["workload"]
    units = PER_LAYER if rec["trace"] else END_TO_END
    print(f"# {w}: env {json.dumps(rec['env'], sort_keys=True)}")
    print(f"# {w}: seed {rec['seed']}, sizes {json.dumps(rec['sizes'])}")
    warm = rec["warmup"]
    print(f"# {w}: warm-up (fresh interpreter: import + first op) setup_s "
          f"{[round(s, 4) for s in warm['setup_s']]}, import_s {[round(s, 4) for s in warm['import_s']]}, "
          f"first op ms {[round(m, 1) for m in warm['ms']]}, ok {warm['ok']}")
    for name, value in rec["metrics"].items():
        print(f"{w} {name} {value:.6g} {units[name]}")
    steady = rec["attempted"] - len(warm["ok"])
    print(f"{w} error_rate {rec['failed'] / rec['attempted']:.6g} (failed {rec['failed']} "
          f"of {rec['attempted']} attempted: {len(warm['ok'])} warm-up, {steady} steady)")
    if rec["trace"]:
        print(f"# {w}: per-layer values are medians over {rec['traced_ops']} traced operations")
        return
    print(f"{w} import_rss_mb {rec['import_rss_mb']:.6g} MiB (beside peak_rss_mb)")
    k = len(rec["op_ms"])
    if rec["tail"] is None:
        print(f"# {w}: op_p50_ms over {k} steady ops; no tail percentile has >= 10 samples above it")
    else:
        p, value = rec["tail"]
        print(f"{w} op_p{p}_ms {value:.6g} ms (highest percentile with >= 10 of {k} samples above it)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=inputs.WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "robust_fps", "cli.py")):
        print(f"error: no robust_fps package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    # One workload must end within TIME_LIMIT_S; "all" gets that much per workload.
    deadline = time.monotonic() + TIME_LIMIT_S * len(workloads)
    try:
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace), deadline) for w in workloads]
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        report(rec)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        for name, value in rec["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
