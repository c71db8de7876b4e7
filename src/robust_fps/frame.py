"""Population frames, model families, and the baseline weighted estimator.

The working model: conditional on a scalar location theta, unit values are
independent normals ``y_i ~ N(theta * a_i, sigma2_i)`` with known positive
constants ``a_i`` and ``sigma2_i``, and theta carries a flat prior.  The
posterior mean of theta given the sampled units is the precision-weighted
average ``ybar_w``; plugging it into the unsampled part of the population
gives the baseline (non-robust) estimate of the finite population mean.

Three named auxiliary mappings are supported.  With ``a_i = x_i`` and
``sigma2_i = sigma^2 * x_i`` the baseline estimate is the classical ratio
estimator; with ``a_i = x_i`` and ``sigma2_i = x_i^2`` it averages the unit
ratios ``y_i / x_i``; with ``a_i = pi_i`` and ``sigma2_i = pi_i^2 / (1 - pi_i)``
it reproduces the Horvitz-Thompson estimator exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from .errors import DegenerateFrameError, ModelValidationError

HT_PI_SUM_TOL = 1e-9


@dataclass(frozen=True)
class FrameTemplate:
    """Population layout: unit ids, auxiliaries and sample membership, no values.

    This is the model design shared by estimation, risk, calibration and
    simulation.  Everything that depends only on ``(a, sigma2, sampled)`` is
    computed once here: ``S_aa``, the weights ``w`` and residual scales ``v``
    of the sampled units (``v`` is zero when one unit is sampled), and the
    unsampled sums ``sum_u_a`` and ``sum_u_sigma2``.  Observed values enter
    only through ``residuals``.
    """

    unit_id: tuple
    a: np.ndarray
    sigma2: np.ndarray
    sampled: np.ndarray
    S_aa: float = field(init=False, repr=False, compare=False)
    w: np.ndarray = field(init=False, repr=False, compare=False)
    v: np.ndarray = field(init=False, repr=False, compare=False)
    sum_u_a: float = field(init=False, repr=False, compare=False)
    sum_u_sigma2: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        sigma2 = np.asarray(self.sigma2, dtype=float)
        s = np.asarray(self.sampled, dtype=bool)
        object.__setattr__(self, "unit_id", tuple(self.unit_id))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "sigma2", sigma2)
        object.__setattr__(self, "sampled", s)

        N = len(self.unit_id)
        if N < 2:
            raise ModelValidationError(f"need at least 2 units, got {N}")
        if len(set(self.unit_id)) != N:
            raise ModelValidationError("duplicate unit_id")
        for name, arr in (("a", a), ("sigma2", sigma2), ("sampled", s)):
            if arr.shape != (N,):
                raise ModelValidationError(f"field {name!r} has shape {arr.shape}, expected ({N},)")
        if not np.all(np.isfinite(a)) or np.any(a <= 0):
            raise ModelValidationError("a must be finite and > 0 for every unit")
        if not np.all(np.isfinite(sigma2)) or np.any(sigma2 <= 0):
            raise ModelValidationError("sigma2 must be finite and > 0 for every unit")
        n = int(s.sum())
        if n < 1:
            raise DegenerateFrameError("no sampled units")

        a_s, sigma2_s = a[s], sigma2[s]
        prec = a_s**2 / sigma2_s
        S_aa = float(prec.sum())
        # With one sampled unit v^2 is zero up to rounding; keep it exactly zero.
        v = np.sqrt(sigma2_s / a_s**2 - 1.0 / S_aa) if n >= 2 else np.zeros(1)
        object.__setattr__(self, "S_aa", S_aa)
        object.__setattr__(self, "w", prec / S_aa)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "sum_u_a", float(a[~s].sum()))
        object.__setattr__(self, "sum_u_sigma2", float(sigma2[~s].sum()))

    @property
    def n_units(self) -> int:
        return len(self.unit_id)

    @property
    def n_sampled(self) -> int:
        return int(self.sampled.sum())

    @property
    def sampled_ids(self) -> tuple:
        return tuple(u for u, s in zip(self.unit_id, self.sampled) if s)

    def residuals(self, ys: np.ndarray):
        """Weighted average ``ybar_w`` and standardized residuals ``r`` of sampled values.

        ``ys`` holds the sampled units' values in unit order, shape ``(n,)`` or
        ``(reps, n)``; ``ybar_w`` has the leading shape.  Each row is reduced
        on its own, so a stack gives bit for bit the values of its rows.
        ``r`` is None when one unit is sampled.
        """
        s = self.sampled
        a_s = self.a[s]
        ybar_w = (a_s * ys / self.sigma2[s]).sum(axis=-1) / self.S_aa
        if self.n_sampled < 2:
            return ybar_w, None
        return ybar_w, (ys / a_s - ybar_w[..., None]) / self.v

    def with_y(self, y_sampled: Sequence[float]) -> "PopulationFrame":
        """A frame on this layout with observed values on the sampled units (unit order)."""
        y = np.full(self.n_units, np.nan)
        y[self.sampled] = np.asarray(y_sampled, dtype=float)
        return PopulationFrame(self.unit_id, self.a, self.sigma2, self.sampled, y)


@dataclass(frozen=True)
class PopulationFrame(FrameTemplate):
    """A layout plus observed values.

    ``y`` is a full-length array with NaN at unsampled positions; a value is
    present exactly for sampled units.
    """

    y: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "y", y)
        sampled = self.sampled
        if y.shape != (self.n_units,):
            raise ModelValidationError(f"field 'y' has shape {y.shape}, expected ({self.n_units},)")
        if not np.all(np.isfinite(y[sampled])):
            bad = [self.unit_id[i] for i in np.flatnonzero(sampled & ~np.isfinite(y))]
            raise ModelValidationError(f"missing y for sampled unit(s) {bad}")
        if np.any(np.isfinite(y[~sampled])):
            bad = [self.unit_id[i] for i in np.flatnonzero(~sampled & np.isfinite(y))]
            raise ModelValidationError(f"y given for unsampled unit(s) {bad}")


@dataclass(frozen=True)
class ModelSpec:
    """Auxiliary-to-(a, sigma2) mapping for one of the named model families."""

    family: Literal["ratio", "royall", "horvitz_thompson", "custom"]
    sigma: float = 1.0

    def __post_init__(self):
        if self.family not in ("ratio", "royall", "horvitz_thompson", "custom"):
            raise ModelValidationError(f"unknown family {self.family!r}")
        if self.family == "ratio" and not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ModelValidationError("ratio family needs sigma > 0")


def build_model(
    unit_id: Sequence,
    spec: ModelSpec,
    *,
    x: Sequence[float] | None = None,
    pi: Sequence[float] | None = None,
    a: Sequence[float] | None = None,
    sigma2: Sequence[float] | None = None,
    sampled: Sequence[bool],
    y_sampled: Sequence[float],
) -> PopulationFrame:
    """Map family auxiliaries to (a_i, sigma2_i) and assemble a frame.

    ``y_sampled`` lists observed values for the sampled units, in unit order.
    """
    unit_id = tuple(unit_id)
    N = len(unit_id)
    sampled_arr = np.asarray(sampled, dtype=bool)
    if sampled_arr.shape != (N,):
        raise ModelValidationError("sampled flags must align with unit_id")
    n = int(sampled_arr.sum())

    if spec.family == "ratio":
        xv = _positive_aux("x", x, N)
        a_arr, s2_arr = xv, spec.sigma**2 * xv
    elif spec.family == "royall":
        xv = _positive_aux("x", x, N)
        a_arr, s2_arr = xv, xv**2
    elif spec.family == "horvitz_thompson":
        pv = np.asarray(pi, dtype=float) if pi is not None else None
        if pv is None or pv.shape != (N,):
            raise ModelValidationError("horvitz_thompson family needs pi for every unit")
        if not np.all(np.isfinite(pv)) or np.any(pv <= 0) or np.any(pv >= 1):
            raise ModelValidationError("pi must lie strictly in (0, 1)")
        if abs(pv.sum() - n) > HT_PI_SUM_TOL:
            raise ModelValidationError(
                f"sum of pi over all units is {pv.sum()!r}, expected sample size {n}"
            )
        a_arr, s2_arr = pv, pv**2 / (1.0 - pv)
    else:
        a_arr = _positive_aux("a", a, N)
        s2_arr = _positive_aux("sigma2", sigma2, N)

    y_s = np.asarray(y_sampled, dtype=float)
    if y_s.shape != (n,):
        raise ModelValidationError(f"expected {n} sampled y values, got {y_s.shape}")
    y = np.full(N, np.nan)
    y[sampled_arr] = y_s
    return PopulationFrame(unit_id, a_arr, s2_arr, sampled_arr, y)


def _positive_aux(name: str, values, N: int) -> np.ndarray:
    if values is None:
        raise ModelValidationError(f"family requires auxiliary {name!r}")
    arr = np.asarray(values, dtype=float)
    if arr.shape != (N,):
        raise ModelValidationError(f"auxiliary {name!r} has shape {arr.shape}, expected ({N},)")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ModelValidationError(f"auxiliary {name!r} must be finite and > 0")
    return arr


@dataclass(frozen=True)
class SufficientStats:
    """Precision sums, weights, scales, and standardized residuals of the sampled units.

    ``r`` is None when only one unit is sampled (the residual scale v degenerates
    to zero there).  The identities ``sum(w) == 1`` and ``sum(w * v * r) == 0``
    hold for every valid frame.
    """

    unit_id: tuple
    a: np.ndarray
    sigma2: np.ndarray
    y: np.ndarray
    S_aa: float
    S_ay: float
    ybar_w: float
    w: np.ndarray
    v: np.ndarray
    r: np.ndarray | None = field(default=None)

    @property
    def n(self) -> int:
        return len(self.unit_id)


def sufficient_stats(frame: PopulationFrame) -> SufficientStats:
    """Compute the weighted-average estimate of theta and per-unit residual scales.

    v_i is the standard deviation of ``y_i / a_i - ybar_w`` under the model;
    residuals are reported only when two or more units are sampled.
    """
    s = frame.sampled
    a, sigma2, y = frame.a[s], frame.sigma2[s], frame.y[s]
    ybar_w, r = frame.residuals(y)
    return SufficientStats(
        unit_id=frame.sampled_ids,
        a=a,
        sigma2=sigma2,
        y=y,
        S_aa=frame.S_aa,
        S_ay=float((a * y / sigma2).sum()),
        ybar_w=float(ybar_w),
        w=frame.w,
        v=frame.v,
        r=r,
    )


def classical_estimate(frame: PopulationFrame) -> float:
    """Baseline estimate of the finite population mean.

    Sampled values enter directly; each unsampled unit contributes its
    predicted value ``ybar_w * a_j``.  A census frame returns the exact mean.
    """
    s = frame.sampled
    if s.all():
        return float(frame.y.mean())
    ybar_w, _ = frame.residuals(frame.y[s])
    return (frame.y[s].sum() + ybar_w * frame.sum_u_a) / frame.n_units


def posterior_predictive(frame: PopulationFrame):
    """Predictive distribution of the unsampled values given the sampled ones.

    Mean ``ybar_w * a_u``; covariance ``diag(sigma2_u) + a_u a_u^T / S_aa``.
    """
    from .divergence import GaussianSpec

    u = ~frame.sampled
    if not u.any():
        raise DegenerateFrameError("census frame has no unsampled units to predict")
    ybar_w, _ = frame.residuals(frame.y[frame.sampled])
    a_u = frame.a[u]
    cov = np.diag(frame.sigma2[u]) + np.outer(a_u, a_u) / frame.S_aa
    return GaussianSpec(ybar_w * a_u, cov)
