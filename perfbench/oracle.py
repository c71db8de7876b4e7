"""Correctness checks for every benchmark operation.

Each check recomputes the operation's numbers in numpy straight from the
PAPER.md formulas, without calling robust_fps, and returns a list of
problems (empty when the output is correct).  Tolerances:

* sufficient statistics, estimates, residuals and closed-form risk:
  relative 1e-9 (``STAT_RTOL``);
* the calibrated ``c``: relative 1e-9 against an independent bisection, and
  ``excess(c) <= B * (1 + 1e-9)``; the CLI prints ``c`` to 12 digits and
  bisection may stop on either side of the root;
* ``divergence_k``: relative 1e-6 plus absolute 1e-11 (``DIV_RTOL``,
  ``DIV_ATOL``) against the univariate reduction of the delete-one
  predictive pair (ROADMAP item 2).  The dense M-dimensional path loses
  about 5e-13 absolute to log-determinant cancellation, which is up to
  4e-6 relative on the smallest divergences (about 1e-8) at M = 125;
* outputs of the warm-up input against reference/ (captured from the
  package before any optimisation): relative 1e-8, absolute 1e-15, and
  the ``divergence_k`` tolerance above for ``divergence_k``.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

STAT_RTOL = 1e-9
C_RTOL = 1e-9
DIV_RTOL = 1e-6
DIV_ATOL = 1e-11
REF_RTOL = 1e-8
REF_ATOL = 1e-15
LAMBDA = -0.5  # the CLI's default divergence order

SIM_COLUMNS = ("c", "emp_mse_theta", "se_theta", "emp_mse_pop", "se_pop", "theo_mse",
               "cross_term", "se_cross", "classical_mse", "se_classical")


def g_clip(c: float) -> float:
    """g(c) = 2[(c^2 + 1) Phi(-c) - c phi(c)]."""
    phi = math.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi)
    return 2.0 * ((c * c + 1.0) * 0.5 * math.erfc(c / math.sqrt(2.0)) - c * phi)


def solve_c(excess0: float, budget: float) -> float:
    """Smallest c with excess0 * g(c) <= budget, by bisection to float resolution."""
    if budget >= excess0:
        return 0.0
    lo, hi = 0.0, 40.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if excess0 * g_clip(mid) > budget:
            lo = mid
        else:
            hi = mid


def _close(got, want, rtol, atol=0.0) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= atol + rtol * abs(want)


class _Problems(list):
    def close(self, name, got, want, rtol, atol=0.0):
        if not _close(got, want, rtol, atol):
            self.append(f"{name}: got {got!r}, want {want!r} (rtol {rtol:g})")


class Design:
    """Model algebra of one sampled frame: a, sigma2, y on the sample; sums on the rest."""

    def __init__(self, a, sigma2, sampled, y=None):
        a, sigma2 = np.asarray(a, float), np.asarray(sigma2, float)
        s = np.asarray(sampled, bool)
        self.N = a.size
        self.a, self.sigma2 = a[s], sigma2[s]
        self.S_aa = float((self.a**2 / self.sigma2).sum())
        self.w = self.a**2 / self.sigma2 / self.S_aa
        self.v = np.sqrt(self.sigma2 / self.a**2 - 1.0 / self.S_aa)
        self.sum_au = float(a[~s].sum())
        self.sum_s2u = float(sigma2[~s].sum())
        self.q = float((a[~s] ** 2 / sigma2[~s]).sum())
        self.sum_w2v2 = float((self.w**2 * self.v**2).sum())
        if y is not None:
            self.y = np.asarray(y, float)[s]
            self.S_ay = float((self.a * self.y / self.sigma2).sum())
            self.ybar_w = self.S_ay / self.S_aa
            self.r = (self.y / self.a - self.ybar_w) / self.v

    def excess(self, c: float) -> float:
        return self.sum_w2v2 * g_clip(c) * self.sum_au**2 / self.N**2

    def mse(self, c: float) -> dict:
        N2 = self.N**2
        unseen = self.sum_s2u / N2
        estimation = self.sum_au**2 / self.S_aa / N2
        return {"unseen_variance": unseen, "estimation_variance": estimation,
                "mse_baseline": unseen + estimation, "excess": self.excess(c),
                "mse_robust": unseen + estimation + self.excess(c)}

    def theo_mse_theta(self, c: float) -> float:
        return 1.0 / self.S_aa + self.sum_w2v2 * g_clip(c)


def _ratio_design(inp) -> Design:
    x = np.asarray(inp["x"], float)
    y = np.array([np.nan if v is None else v for v in inp["y"]])
    return Design(x, x, inp["sampled"], y)


def _normal_divergence(m1, v1, m2, v2, lam) -> float:
    s = (1.0 + lam) * v2 - lam * v1
    coef = lam * (lam + 1.0)
    log_e = (0.5 * coef * (m1 - m2) ** 2 / s - 0.5 * lam * math.log(v1)
             + 0.5 * (lam + 1.0) * math.log(v2) - 0.5 * math.log(s))
    return math.expm1(log_e) / coef


def check_calibrate(inp, stdout: str) -> list[str]:
    p = _Problems()
    d = _ratio_design(inp)
    try:
        c = float(stdout.strip())
    except ValueError:
        return [f"calibrate printed {stdout!r}, not a number"]
    p.close("c", c, solve_c(d.excess(0.0), inp["budget"]), C_RTOL, 1e-12)
    if not d.excess(c) <= inp["budget"] * (1.0 + C_RTOL):
        p.append(f"excess({c!r}) = {d.excess(c)!r} exceeds budget {inp['budget']!r}")
    return p


def check_estimate(inp, report_bytes: bytes) -> list[str]:
    p = _Problems()
    rep = json.loads(report_bytes)
    d = _ratio_design(inp)
    ids = [f"u{i}" for i, s in enumerate(inp["sampled"]) if s]
    if (rep["n"], rep["N"]) != (inp["n"], inp["N"]):
        p.append(f"n, N = {rep['n']}, {rep['N']}; want {inp['n']}, {inp['N']}")
    if rep["model"] != {"family": "ratio", "sigma": 1.0}:
        p.append(f"model {rep['model']!r}")
    rob, risk = rep["robust"], rep["risk"]
    c = rob["c_used"]
    p.close("c_used", c, solve_c(d.excess(0.0), inp["budget"]), C_RTOL, 1e-12)
    if not d.excess(c) <= inp["budget"] * (1.0 + C_RTOL):
        p.append(f"excess(c_used) = {d.excess(c)!r} exceeds budget {inp['budget']!r}")
    scale = abs(d.ybar_w) + float(np.abs(d.y / d.a).max())
    yhat_P = (d.y.sum() + d.ybar_w * d.sum_au) / d.N
    p.close("classical", rep["classical"], yhat_P, STAT_RTOL, STAT_RTOL * scale)
    theta_R = d.ybar_w + float((d.w * d.v) @ np.clip(d.r, -c, c))
    p.close("theta_hat_R", rob["theta_hat_R"], theta_R, STAT_RTOL, STAT_RTOL * scale)
    ybar_P_R = (d.y.sum() + theta_R * d.sum_au) / d.N
    p.close("ybar_P_R", rob["ybar_P_R"], ybar_P_R, STAT_RTOL, STAT_RTOL * scale)
    near_tie = np.abs(np.abs(d.r) - c) < 1e-9
    want_clipped = {u for u, r, t in zip(ids, d.r, near_tie) if abs(r) > c and not t}
    got_clipped = set(rob["clipped_units"]) - {u for u, t in zip(ids, near_tie) if t}
    if got_clipped != want_clipped:
        p.append(f"clipped_units differ: {sorted(got_clipped ^ want_clipped)}")
    if (rob["scaling"], rob["degenerate"]) != ("paper_v", False):
        p.append(f"scaling/degenerate {rob['scaling']!r}/{rob['degenerate']!r}")
    if risk is None:
        p.append("risk is null")
    else:
        want = d.mse(c)
        for key in ("mse_robust", "mse_baseline", "excess"):
            p.close(f"risk.{key}", risk[key], want[key], STAT_RTOL)
        for key in ("unseen_variance", "estimation_variance"):
            p.close(f"risk.components.{key}", risk["components"][key], want[key], STAT_RTOL)
        p.close("risk.g_of_c", risk["g_of_c"], g_clip(c), STAT_RTOL)
    diags = rep["diagnostics"]
    if [r["unit_id"] for r in diags] != ids:
        return p + ["diagnostics unit ids differ from the sampled units"]
    h = d.a**2 / d.sigma2
    S_k = d.S_aa - h
    ybar_k = (d.S_ay - d.a * d.y / d.sigma2) / S_k
    delta = (d.y / d.a - d.ybar_w) * h / S_k
    rq = math.sqrt(d.q)
    for k, rec in enumerate(diags):
        name = f"diagnostics[{rec['unit_id']}]"
        p.close(name + ".r_k", rec["r_k"], d.r[k], STAT_RTOL, STAT_RTOL * float(np.abs(d.r).max()))
        p.close(name + ".v_k", rec["v_k"], d.v[k], STAT_RTOL)
        p.close(name + ".delta_k", rec["delta_k"], delta[k], STAT_RTOL,
                STAT_RTOL * float(np.abs(delta).max()))
        div = _normal_divergence(d.ybar_w * rq, 1.0 + d.q / d.S_aa,
                                 ybar_k[k] * rq, 1.0 + d.q / S_k[k], LAMBDA)
        p.close(name + ".divergence_k", rec["divergence_k"], div, DIV_RTOL, DIV_ATOL)
        if rec["flagged"] != (abs(rec["r_k"]) > c):
            p.append(f"{name}.flagged is {rec['flagged']!r} at |r_k| = {abs(rec['r_k'])!r}, c = {c!r}")
        if len(p) > 20:
            break
    return p


def check_simulate(inp, json_bytes: bytes, csv_bytes: bytes) -> list[str]:
    p = _Problems()
    doc = inp["config"]
    res = json.loads(json_bytes)
    grid = doc["c_grid"]
    if (res["reps"], res["seed"], res["failures"]) != (doc["reps"], doc["seed"], 0):
        p.append(f"reps/seed/failures {res['reps']}/{res['seed']}/{res['failures']}")
    rows = res["rows"]
    if [r["c"] for r in rows] != grid:
        return p + [f"c column {[r['c'] for r in rows]} != grid {grid}"]
    fr = doc["frame"]
    d = Design(fr["a"], fr["sigma2"], fr["sampled"])
    for row in rows:
        c = row["c"]
        p.close(f"c={c}.theo_mse", row["theo_mse"], d.mse(c)["mse_robust"], STAT_RTOL)
        p.close(f"c={c}.theo_mse_theta", row["theo_mse_theta"], d.theo_mse_theta(c), STAT_RTOL)
        for col in SIM_COLUMNS[1:]:
            val = row[col]
            if not math.isfinite(val) or (col != "cross_term" and val <= 0):
                p.append(f"c={c}.{col} = {val!r}")
        if (row["classical_mse"], row["se_classical"]) != (rows[0]["classical_mse"], rows[0]["se_classical"]):
            p.append(f"c={c}: classical columns differ between rows")
    # At c = 0 every residual is clipped to 0 and theta_R == ybar_w exactly in theory.
    for row in rows:
        if row["c"] == 0.0:
            p.close("c=0.emp_mse_pop", row["emp_mse_pop"], row["classical_mse"], 1e-6)
    table = list(csv.reader(io.StringIO(csv_bytes.decode("utf-8"))))
    if tuple(table[0]) != SIM_COLUMNS or len(table) != len(rows) + 1:
        p.append("CSV header or row count differs from the JSON")
    else:
        for row, cells in zip(rows, table[1:]):
            if [float(x) for x in cells] != [row[col] for col in SIM_COLUMNS]:
                p.append(f"c={row['c']}: CSV row differs from the JSON row")
    return p


def compare_reference(got, ref, path="") -> list[str]:
    """Structural comparison; floats within REF_RTOL / REF_ATOL, everything else exact."""
    if isinstance(ref, float) or isinstance(got, float):
        rtol, atol = (DIV_RTOL, DIV_ATOL) if path.endswith("/divergence_k") else (REF_RTOL, REF_ATOL)
        if isinstance(got, bool) or not _close(got, ref, rtol, atol):
            return [f"{path}: got {got!r}, reference {ref!r}"]
        return []
    if isinstance(ref, dict):
        if not isinstance(got, dict) or list(got) != list(ref):
            return [f"{path}: keys differ from the reference"]
        return [e for k in ref for e in compare_reference(got[k], ref[k], f"{path}/{k}")][:20]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: length differs from the reference"]
        return [e for i, (g, r) in enumerate(zip(got, ref))
                for e in compare_reference(g, r, f"{path}/{i}")][:20]
    return [] if got == ref and type(got) is type(ref) else [f"{path}: got {got!r}, reference {ref!r}"]


def parsed_output(command: str, out: dict):
    """The comparable form of an operation's output, as stored under reference/."""
    if command == "calibrate":
        return {"c": float(out["stdout"])}
    if command == "estimate":
        return json.loads(out["report"])
    return json.loads(out["json"])


def check(inp, out: dict) -> list[str]:
    """Dispatch on the operation's subcommand; ``out`` holds its captured outputs."""
    if out["rc"] != 0:
        return [f"exit code {out['rc']!r}: {out.get('error') or out.get('stderr', '')}".strip()]
    try:
        if inp["command"] == "calibrate":
            return check_calibrate(inp, out["stdout"])
        if inp["command"] == "estimate":
            return check_estimate(inp, out["report"])
        return check_simulate(inp, out["json"], out["csv"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]
