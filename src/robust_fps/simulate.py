"""Monte Carlo harness for the clipped estimator under the model and departures.

Each replication realizes the entire population (sampled and unsampled
units) from the working model, optionally perturbs designated sampled units
(mean shift, variance inflation, or outright substitution), and measures the
squared error of the classical and clipped estimators against the realized
finite population mean.  The harness also measures the cross moment of the
residual overflows that the closed-form MSE treats as zero, so the accuracy
of that formula can be quantified rather than assumed.

Replication r draws from a counter-based substream derived from (seed, r);
results are bit-identical however replications are scheduled.  Accumulation
happens once over stored per-replication arrays, so reduction order cannot
perturb the output.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Literal

import numpy as np
from scipy.special import ndtri

from .errors import ModelValidationError
from .frame import FrameTemplate
from .risk import mse_closed_form
from .streams import batch_rep_uniforms

DEFAULT_REPS = 100_000

#: The parameter field each contamination kind reads, besides its target units.
CONTAMINATION_PARAMS = {"shift": "delta", "variance_inflation": "factor", "substitution": "value"}


@dataclass(frozen=True)
class Contamination:
    """Departure applied to designated sampled units after generation."""

    kind: Literal["none", "shift", "variance_inflation", "substitution"] = "none"
    units: tuple = ()
    delta: float | None = None    # shift, in multiples of each unit's sigma
    factor: float | None = None   # variance inflation, > 1
    value: float | None = None    # substituted observation

    def __post_init__(self):
        object.__setattr__(self, "units", tuple(self.units))
        if self.kind == "none":
            if self.units:
                raise ModelValidationError("contamination 'none' takes no units")
            return
        if self.kind not in CONTAMINATION_PARAMS:
            raise ModelValidationError(f"unknown contamination kind {self.kind!r}")
        if not self.units:
            raise ModelValidationError(f"contamination {self.kind!r} needs target units")
        if self.kind == "shift" and (self.delta is None or not np.isfinite(self.delta)):
            raise ModelValidationError("shift contamination needs a finite delta")
        if self.kind == "variance_inflation" and (
            self.factor is None or not np.isfinite(self.factor) or self.factor <= 1
        ):
            raise ModelValidationError("variance inflation needs factor > 1")
        if self.kind == "substitution" and (self.value is None or not np.isfinite(self.value)):
            raise ModelValidationError("substitution needs a finite value")


@dataclass(frozen=True)
class SimConfig:
    template: FrameTemplate
    theta_true: float
    contamination: Contamination = Contamination()
    c_grid: tuple = (0.0, 1.0, 2.0, 8.0)
    reps: int = DEFAULT_REPS
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "c_grid", tuple(float(c) for c in self.c_grid))
        self.template.require_prediction("simulation")
        if not np.isfinite(self.theta_true):
            raise ModelValidationError("theta_true must be finite")
        if not self.c_grid or any(c < 0 or not np.isfinite(c) for c in self.c_grid):
            raise ModelValidationError("c_grid must be nonempty with finite c >= 0")
        if int(self.reps) != self.reps or self.reps < 2:
            raise ModelValidationError("reps must be an integer >= 2")
        if not (-(2**63) <= int(self.seed) < 2**64):
            raise ModelValidationError("seed must fit in 64 bits")
        sampled_ids = set(self.template.sampled_ids)
        stray = [u for u in self.contamination.units if u not in sampled_ids]
        if stray:
            raise ModelValidationError(f"contamination targets unsampled/unknown units {stray}")

    @property
    def contaminated_index(self) -> np.ndarray:
        ids = list(self.template.unit_id)
        return np.array([ids.index(u) for u in self.contamination.units], dtype=int)


def _apply_contamination(config: SimConfig, y: np.ndarray) -> np.ndarray:
    """Perturb designated sampled units in-place on a (reps, N) or (N,) array."""
    cont = config.contamination
    if cont.kind == "none":
        return y
    idx = config.contaminated_index
    t = config.template
    if cont.kind == "shift":
        y[..., idx] += cont.delta * np.sqrt(t.sigma2[idx])
    elif cont.kind == "variance_inflation":
        center = config.theta_true * t.a[idx]
        y[..., idx] = center + math.sqrt(cont.factor) * (y[..., idx] - center)
    else:
        y[..., idx] = cont.value
    return y


def _realize(config: SimConfig, u: np.ndarray) -> np.ndarray:
    """Populations from uniforms of shape (N,) or (reps, N): model draw, then contamination."""
    t = config.template
    return _apply_contamination(config, config.theta_true * t.a + np.sqrt(t.sigma2) * ndtri(u))


def _generate_batch(config: SimConfig) -> np.ndarray:
    """(reps, N) matrix of realized populations; row r uses only replication r's substream."""
    return _realize(config, batch_rep_uniforms(config.seed, config.reps, config.template.n_units))


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    n = values.shape[0]
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(n))


@dataclass(frozen=True)
class SimRow:
    """Aggregates for one clipping constant."""

    c: float
    emp_mse_theta: float
    se_theta: float
    emp_mse_pop: float
    se_pop: float
    theo_mse: float
    cross_term: float
    se_cross: float
    classical_mse: float
    se_classical: float
    theo_mse_theta: float


#: Columns of the CSV output: every ``SimRow`` field but ``theo_mse_theta`` (JSON only).
CSV_COLUMNS = tuple(f.name for f in fields(SimRow) if f.name != "theo_mse_theta")


@dataclass(frozen=True)
class SimResult:
    rows: tuple
    reps: int
    seed: int
    failures: int = 0


def empirical_risk(config: SimConfig) -> SimResult:
    """Empirical MSE of the clipped and classical estimators over the c grid.

    Squared errors are taken against the realized finite population mean (for
    the population-level rows) and against theta_true (for the location
    rows).  The cross_term column is the empirical value of the pairwise
    overflow moment sum that the closed-form MSE drops.
    """
    t = config.template
    theta = config.theta_true
    Y = _generate_batch(config)

    finite = np.all(np.isfinite(Y), axis=1)
    failures = int((~finite).sum())
    if failures:
        Y = Y[finite]
    if Y.shape[0] < 2:
        raise ModelValidationError("fewer than 2 finite replications")

    wv = t.w * t.v
    wv2 = wv**2

    Ys = Y[:, t.sampled]
    ybar_w, r = t.residuals(Ys)
    sum_ys = Ys.sum(axis=1)
    ybar_pop = Y.mean(axis=1)
    classical = t.fill_in(sum_ys, ybar_w)
    sq_classical = (classical - ybar_pop) ** 2
    cls_mean, se_cls = _mean_se(sq_classical)

    rows = []
    # One (reps, n) buffer for every c: fresh temporaries of this size per c
    # leave freed blocks in the heap under the next allocation peak.
    overflow = np.empty_like(r)
    for c in config.c_grid:
        np.subtract(r, np.clip(r, -c, c, out=overflow), out=overflow)
        T = overflow @ wv
        theta_R = ybar_w - T
        ybar_R = t.fill_in(sum_ys, theta_R)
        sq_theta = (theta_R - theta) ** 2
        sq_pop = (ybar_R - ybar_pop) ** 2
        cross = T**2 - np.square(overflow, out=overflow) @ wv2

        emp_theta, se_theta = _mean_se(sq_theta)
        emp_pop, se_pop = _mean_se(sq_pop)
        cross_mean, se_cross = _mean_se(cross)
        report = mse_closed_form(t, c)
        theo_theta = 1.0 / t.S_aa + t.sum_w2v2 * report.g_of_c
        rows.append(
            SimRow(
                c=float(c),
                emp_mse_theta=emp_theta,
                se_theta=se_theta,
                emp_mse_pop=emp_pop,
                se_pop=se_pop,
                theo_mse=report.mse_robust,
                cross_term=cross_mean,
                se_cross=se_cross,
                classical_mse=cls_mean,
                se_classical=se_cls,
                theo_mse_theta=theo_theta,
            )
        )
    return SimResult(rows=tuple(rows), reps=config.reps, seed=int(config.seed), failures=failures)


def result_to_dict(result: SimResult) -> dict:
    return {
        "reps": result.reps,
        "seed": result.seed,
        "failures": result.failures,
        "rows": [asdict(row) for row in result.rows],
    }


def write_result_json(result: SimResult, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result_to_dict(result), fh, indent=2)
        fh.write("\n")


def write_result_csv(result: SimResult, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in result.rows:
            writer.writerow([repr(getattr(row, col)) for col in CSV_COLUMNS])
