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
from dataclasses import asdict, dataclass, field
from typing import Literal

import numpy as np
from scipy.special import ndtri

from .errors import ModelValidationError
from .frame import FrameTemplate
from .risk import g_clip, mse_closed_form
from .streams import batch_rep_uniforms, rep_uniforms

DEFAULT_REPS = 100_000

CSV_COLUMNS = (
    "c",
    "emp_mse_theta",
    "se_theta",
    "emp_mse_pop",
    "se_pop",
    "theo_mse",
    "cross_term",
    "se_cross",
    "classical_mse",
    "se_classical",
)


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
        if self.kind not in ("shift", "variance_inflation", "substitution"):
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
        if self.template.n_sampled < 2:
            raise ModelValidationError("simulation needs at least 2 sampled units")
        if self.template.sampled.all():
            raise ModelValidationError("simulation needs at least 1 unsampled unit")
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


@dataclass(frozen=True)
class SimulatedPopulation:
    """One realized population: values for every unit, contamination applied."""

    config: SimConfig
    rep_index: int
    y: np.ndarray

    @property
    def realized_mean(self) -> float:
        return float(self.y.mean())


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


def simulate_once(config: SimConfig, rep_index: int) -> SimulatedPopulation:
    """Realize one population from the substream owned by ``rep_index``."""
    if not 0 <= rep_index:
        raise ModelValidationError("rep_index must be >= 0")
    t = config.template
    u = rep_uniforms(config.seed, rep_index, t.n_units)
    y = config.theta_true * t.a + np.sqrt(t.sigma2) * ndtri(u)
    return SimulatedPopulation(config, rep_index, _apply_contamination(config, y))


def _generate_batch(config: SimConfig) -> np.ndarray:
    """(reps, N) matrix of realized populations, row r == simulate_once(config, r).y."""
    t = config.template
    u = batch_rep_uniforms(config.seed, config.reps, t.n_units)
    y = config.theta_true * t.a + np.sqrt(t.sigma2) * ndtri(u)
    return _apply_contamination(config, y)


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


@dataclass(frozen=True)
class SimSamples:
    """Per-replication traces kept for diagnostic tests (one array column per c)."""

    sq_theta: np.ndarray
    sq_pop: np.ndarray
    cross: np.ndarray
    sq_classical: np.ndarray


@dataclass(frozen=True)
class SimResult:
    rows: tuple
    reps: int
    seed: int
    failures: int = 0
    samples: SimSamples | None = field(default=None, compare=False)


def empirical_risk(config: SimConfig, *, keep_samples: bool = False) -> SimResult:
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
    reps_used = Y.shape[0]
    if reps_used < 2:
        raise ModelValidationError("fewer than 2 finite replications")

    wv = t.w * t.v
    wv2 = wv**2
    N = t.n_units

    Ys = Y[:, t.sampled]
    ybar_w, r = t.residuals(Ys)
    sum_ys = Ys.sum(axis=1)
    ybar_pop = Y.mean(axis=1)
    classical = (sum_ys + ybar_w * t.sum_u_a) / N
    sq_classical = (classical - ybar_pop) ** 2
    cls_mean, se_cls = _mean_se(sq_classical)

    rows = []
    kept_theta, kept_pop, kept_cross = [], [], []
    # One (reps, n) buffer for every c: fresh temporaries of this size per c
    # leave freed blocks in the heap under the next allocation peak.
    overflow = np.empty_like(r)
    for c in config.c_grid:
        np.subtract(r, np.clip(r, -c, c, out=overflow), out=overflow)
        T = overflow @ wv
        theta_R = ybar_w - T
        ybar_R = (sum_ys + theta_R * t.sum_u_a) / N
        sq_theta = (theta_R - theta) ** 2
        sq_pop = (ybar_R - ybar_pop) ** 2
        cross = T**2 - np.square(overflow, out=overflow) @ wv2

        emp_theta, se_theta = _mean_se(sq_theta)
        emp_pop, se_pop = _mean_se(sq_pop)
        cross_mean, se_cross = _mean_se(cross)
        report = mse_closed_form(t, c)
        theo_theta = 1.0 / t.S_aa + float(wv2.sum()) * g_clip(c)
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
        if keep_samples:
            kept_theta.append(sq_theta)
            kept_pop.append(sq_pop)
            kept_cross.append(cross)

    samples = None
    if keep_samples:
        samples = SimSamples(
            sq_theta=np.column_stack(kept_theta),
            sq_pop=np.column_stack(kept_pop),
            cross=np.column_stack(kept_cross),
            sq_classical=sq_classical,
        )
    return SimResult(
        rows=tuple(rows), reps=config.reps, seed=int(config.seed), failures=failures,
        samples=samples,
    )


@dataclass(frozen=True)
class CovarianceProbe:
    """Empirical residual covariances against their model values."""

    unit_id: tuple
    cov_resid_ybar: np.ndarray
    cov_resid_ybar_se: np.ndarray
    corr_empirical: np.ndarray
    corr_analytic: np.ndarray
    corr_se: np.ndarray
    reps: int


def covariance_probe(config: SimConfig) -> CovarianceProbe:
    """Measure Cov(y_i/a_i - ybar_w, ybar_w) and Corr(r_i, r_k) by simulation.

    Under the model the first is 0 for every unit and the residual
    correlation equals -(1/S_aa) / (v_i v_k) for i != k.
    """
    t = config.template
    ybar_w, r = t.residuals(_generate_batch(config)[:, t.sampled])
    resid = r * t.v

    y_c = ybar_w - ybar_w.mean()
    res_c = resid - resid.mean(axis=0)
    prod = res_c * y_c[:, None]
    reps = r.shape[0]
    cov = prod.mean(axis=0)
    cov_se = prod.std(axis=0, ddof=1) / math.sqrt(reps)

    corr_emp = np.corrcoef(r, rowvar=False)
    corr_ana = -(1.0 / t.S_aa) / np.outer(t.v, t.v)
    np.fill_diagonal(corr_ana, 1.0)
    corr_se = (1.0 - corr_emp**2) / math.sqrt(reps)
    return CovarianceProbe(
        unit_id=t.sampled_ids,
        cov_resid_ybar=cov,
        cov_resid_ybar_se=cov_se,
        corr_empirical=corr_emp,
        corr_analytic=corr_ana,
        corr_se=corr_se,
        reps=reps,
    )


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
