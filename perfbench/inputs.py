"""Seeded input generators for the four benchmark workloads.

Every input is a pure function of (workload, seed).  Frames follow the ratio
model the CLI's ``--model ratio`` (sigma 1) assumes: a_i = x_i and
sigma2_i = x_i.  Floats are written with ``repr(float(x))``: under numpy 2,
``repr`` of a numpy scalar reads ``np.float64(...)``, which the frame CSV
reader rejects.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

WORKLOADS = ("estimate_report", "ingest_calibrate", "simulate_risk", "simulate_sweep")

#: Seed of the warm-up ("canary") input whose outputs are stored under reference/.
CANARY_SEED = 0

SIZES = {
    "estimate_report": {"N": 500, "n_cycle": [125, 250, 375], "outlier_share": 0.02,
                        "outlier_shift_sigma": 20.0, "budget_share": 0.05},
    "ingest_calibrate": {"N": 20_000, "n": 10_000, "pool": 2, "budget_share": 0.05},
    "simulate_risk": {"N": 1000, "n": 100, "reps": 20_000, "c_grid": [0.0, 1.0, 2.0, 8.0],
                      "contamination": "shift", "delta": 6.0, "contaminated_units": 2, "pool": 2},
    "simulate_sweep": {"N": 200, "n": 150, "reps": 50_000, "c_grid_points": 16, "c_max": 4.0,
                       "contamination": "substitution", "residual_scales": 10.0,
                       "contaminated_units": 1, "pool": 2},
}


def _ratio_frame(rng, N, n, outliers=0, shift_sigma=0.0, theta=2.5):
    x = rng.gamma(4.0, 2.5, N) + 0.5
    sampled = np.zeros(N, dtype=bool)
    sampled[rng.choice(N, n, replace=False)] = True
    y = theta * x + np.sqrt(x) * rng.standard_normal(N)
    if outliers:
        hit = rng.choice(np.flatnonzero(sampled), outliers, replace=False)
        y[hit] += shift_sigma * np.sqrt(x[hit])
    y[~sampled] = np.nan
    return x, sampled, y


def excess_at_zero(x, sampled) -> float:
    """c = 0 excess of the ratio model (a = sigma2 = x), from the PAPER.md formula."""
    a = x[sampled]
    S_aa = float(a.sum())
    w = a / S_aa
    v2 = 1.0 / a - 1.0 / S_aa
    N = x.size
    return float((w * w * v2).sum()) * float(x[~sampled].sum()) ** 2 / N**2


def _write_frame_csv(path, x, sampled, y) -> None:
    lines = ["unit_id,x,y\n"]
    for i in range(x.size):
        cell = repr(float(y[i])) if sampled[i] else ""
        lines.append(f"u{i},{float(x[i])!r},{cell}\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)


def _frame_input(workdir, tag, command, x, sampled, y, budget_share):
    path = os.path.join(workdir, f"{tag}.csv")
    _write_frame_csv(path, x, sampled, y)
    budget = repr(float(budget_share * excess_at_zero(x, sampled)))
    argv = [command, "--frame", path, "--model", "ratio", "--max-excess", budget]
    out = None
    if command == "estimate":
        out = os.path.join(workdir, f"{tag}.report.json")
        argv += ["--out", out]
    return {
        "id": tag, "command": command, "argv": argv, "frame_path": path, "out": out,
        "budget": float(budget), "n": int(sampled.sum()), "N": int(x.size),
        "x": [float(v) for v in x], "sampled": [bool(s) for s in sampled],
        "y": [None if not s else float(v) for v, s in zip(y, sampled)],
    }


def _sim_config(rng, N, n, reps, c_grid, contamination):
    a = rng.uniform(0.5, 2.0, N)
    sigma2 = rng.uniform(0.5, 2.0, N)
    sampled = np.zeros(N, dtype=bool)
    sampled[rng.choice(N, n, replace=False)] = True
    theta = 1.0
    targets = [int(i) for i in rng.choice(np.flatnonzero(sampled), contamination["units"], replace=False)]
    units = [f"u{i}" for i in targets]
    if contamination["kind"] == "shift":
        cont = {"kind": "shift", "units": units, "delta": contamination["delta"]}
    else:
        # contamination_study.py shape: the value sits k residual scales above the mean.
        i = targets[0]
        S_aa = float((a[sampled] ** 2 / sigma2[sampled]).sum())
        v = math.sqrt(sigma2[i] / a[i] ** 2 - 1.0 / S_aa)
        value = float(theta * a[i] + contamination["scales"] * v * a[i])
        cont = {"kind": "substitution", "units": units, "value": value}
    return {
        "frame": {
            "unit_id": [f"u{i}" for i in range(N)],
            "a": [float(v) for v in a],
            "sigma2": [float(v) for v in sigma2],
            "sampled": [bool(s) for s in sampled],
        },
        "theta_true": theta,
        "contamination": cont,
        "c_grid": [float(c) for c in c_grid],
        "reps": int(reps),
        "seed": int(rng.integers(0, 2**63)),
    }


def _sim_input(workdir, tag, doc):
    path = os.path.join(workdir, f"{tag}.sim.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    prefix = os.path.join(workdir, f"{tag}.result")
    return {
        "id": tag, "command": "simulate",
        "argv": ["simulate", "--config", path, "--out-prefix", prefix],
        "config_path": path, "out": prefix, "config": doc,
        "n": sum(doc["frame"]["sampled"]), "N": len(doc["frame"]["a"]), "reps": doc["reps"],
    }


def make_inputs(workload: str, seed: int, workdir: str) -> list[dict]:
    """Write the workload's input pool for ``seed`` into ``workdir``; return its manifest.

    Operations cycle through the pool in order.  The estimate pool is one
    frame per sample size, so a whole cycle covers every (n, M) shape.
    """
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng([seed % 2**64, WORKLOADS.index(workload)])
    size = SIZES[workload]
    pool = []
    if workload == "estimate_report":
        for n in size["n_cycle"]:
            outliers = max(1, round(size["outlier_share"] * n))
            x, sampled, y = _ratio_frame(rng, size["N"], n, outliers, size["outlier_shift_sigma"])
            pool.append(_frame_input(workdir, f"est_n{n}", "estimate", x, sampled, y,
                                     size["budget_share"]))
    elif workload == "ingest_calibrate":
        for k in range(size["pool"]):
            x, sampled, y = _ratio_frame(rng, size["N"], size["n"])
            pool.append(_frame_input(workdir, f"cal{k}", "calibrate", x, sampled, y,
                                     size["budget_share"]))
    elif workload == "simulate_risk":
        cont = {"kind": "shift", "units": size["contaminated_units"], "delta": size["delta"]}
        for k in range(size["pool"]):
            doc = _sim_config(rng, size["N"], size["n"], size["reps"], size["c_grid"], cont)
            pool.append(_sim_input(workdir, f"risk{k}", doc))
    elif workload == "simulate_sweep":
        grid = np.linspace(0.0, size["c_max"], size["c_grid_points"])
        cont = {"kind": "substitution", "units": size["contaminated_units"],
                "scales": size["residual_scales"]}
        for k in range(size["pool"]):
            doc = _sim_config(rng, size["N"], size["n"], size["reps"], grid, cont)
            pool.append(_sim_input(workdir, f"sweep{k}", doc))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return pool
