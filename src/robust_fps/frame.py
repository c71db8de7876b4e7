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

#: Auxiliary columns each model family reads, in frame CSV order.
FAMILY_COLUMNS = {
    "ratio": ("x",),
    "royall": ("x",),
    "horvitz_thompson": ("pi",),
    "custom": ("a", "sigma2"),
}


@dataclass(frozen=True)
class FrameTemplate:
    """Population layout: unit ids, auxiliaries and sample membership, no values.

    This is the model design shared by estimation, risk, calibration,
    influence and simulation.  Everything that depends only on
    ``(a, sigma2, sampled)`` is computed once here: the precisions
    ``h = a^2/sigma2`` of the sampled units, their sum ``S_aa``, the weights
    ``w`` and residual scales ``v`` (``v`` is zero when one unit is sampled),
    the clipping weight ``sum_w2v2 = sum_s w^2 v^2``, and the unsampled sums
    ``sum_u_a``, ``sum_u_sigma2`` and ``q = sum_u a^2/sigma2``.  Observed
    values enter only through ``residuals`` and ``fill_in``.

    Every sampled unit's ``h`` and ``w`` must be finite positive floats and
    its ``v^2`` finite; where ``a`` and ``sigma2`` are so extreme that one
    over- or underflows, ``ModelValidationError`` names the first such unit.
    With two or more sampled units every ``v^2 = sigma2/a^2 - 1/S_aa`` and
    every ``S_aa - h`` must also be positive; where one unit holds all of
    ``S_aa`` up to rounding either can fail without the other, and
    ``DegenerateFrameError`` names that unit.  ``require_prediction`` decides
    whether the layout can be predicted at all.
    """

    unit_id: tuple
    a: np.ndarray
    sigma2: np.ndarray
    sampled: np.ndarray
    h: np.ndarray = field(init=False, repr=False, compare=False)
    S_aa: float = field(init=False, repr=False, compare=False)
    w: np.ndarray = field(init=False, repr=False, compare=False)
    v: np.ndarray = field(init=False, repr=False, compare=False)
    sum_w2v2: float = field(init=False, repr=False, compare=False)
    sum_u_a: float = field(init=False, repr=False, compare=False)
    sum_u_sigma2: float = field(init=False, repr=False, compare=False)
    q: float = field(init=False, repr=False, compare=False)

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
        # Over- and underflow become values the check below rejects.  S_aa stays
        # a numpy scalar here, so 1/S_aa is inf rather than a ZeroDivisionError;
        # an S_aa of 0 or inf leaves every w at 0 or nan.
        with np.errstate(all="ignore"):
            h = a_s**2 / sigma2_s
            S_aa = h.sum()
            w = h / S_aa
            v2 = sigma2_s / a_s**2 - 1.0 / S_aa
        ok = np.isfinite(h) & (h > 0) & (w > 0) & np.isfinite(v2)
        if not ok.all():
            unit = self.sampled_ids[int(np.argmin(ok))]
            raise ModelValidationError(f"sampled unit {unit!r} is out of float64 range: its "
                                       "a^2/sigma2, w or v^2 is not a finite positive float")
        dominated = (v2 <= 0) | (S_aa - h <= 0)
        if n >= 2 and dominated.any():
            unit = self.sampled_ids[int(np.argmax(dominated))]
            raise DegenerateFrameError(f"S_aa - h_k <= 0 for unit {unit!r}: its precision "
                                       "holds all of S_aa up to rounding, so its v^2 or "
                                       "S_aa - h_k is not positive")
        # With one sampled unit v^2 is zero up to rounding; keep it exactly zero.
        v = np.sqrt(v2) if n >= 2 else np.zeros(1)
        # Overflowing unsampled sums are left inf: the risk formulas and
        # influence reject them.
        with np.errstate(over="ignore"):
            q = float((a[~s] ** 2 / sigma2[~s]).sum())
            sum_u_a, sum_u_sigma2 = float(a[~s].sum()), float(sigma2[~s].sum())
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "S_aa", float(S_aa))
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "sum_w2v2", float((w**2 * v**2).sum()))
        object.__setattr__(self, "sum_u_a", sum_u_a)
        object.__setattr__(self, "sum_u_sigma2", sum_u_sigma2)
        object.__setattr__(self, "q", q)

    @property
    def n_units(self) -> int:
        return len(self.unit_id)

    @property
    def n_sampled(self) -> int:
        return len(self.h)

    @property
    def sampled_ids(self) -> tuple:
        return tuple(u for u, s in zip(self.unit_id, self.sampled) if s)

    def require_prediction(self, what: str) -> None:
        """Raise ``DegenerateFrameError`` unless 2 or more units are sampled and 1 or more are not.

        ``what`` names the operation in the message.  The risk formulas,
        delete-one influence and simulation need both.
        """
        if self.n_sampled < 2:
            raise DegenerateFrameError(f"{what} needs at least 2 sampled units")
        if self.n_sampled == self.n_units:
            raise DegenerateFrameError(f"census frame has no unsampled units for {what}")

    def residuals(self, ys: np.ndarray):
        """Weighted average ``ybar_w`` and standardized residuals ``r`` of sampled values.

        ``ys`` holds the sampled units' values in unit order, shape ``(n,)`` or
        ``(reps, n)``; ``ybar_w`` has the leading shape.  Each row is reduced
        on its own, so a stack gives bit for bit the values of its rows.
        ``r`` is None when one unit is sampled.

        ``ybar_w`` is anchored at a first average ``y0``: adding the weighted
        deviations from it makes ``sum w v r`` vanish up to their rounding, not
        that of ``t = y/a``, also where every ``t`` is equal.  One scratch
        array of the shape of ``ys`` is used, and ``r`` overwrites ``t``.
        """
        t = ys / self.a[self.sampled]
        scratch = np.multiply(t, self.h)
        y0 = scratch.sum(axis=-1) / self.S_aa
        np.multiply(np.subtract(t, y0[..., None], out=scratch), self.w, out=scratch)
        ybar_w = y0 + scratch.sum(axis=-1)
        if self.n_sampled < 2:
            return ybar_w, None
        t -= ybar_w[..., None]
        t /= self.v
        return ybar_w, t

    def fill_in(self, sum_s_y, theta):
        """Population mean from the sampled total and ``theta * a_j`` for each unsampled unit.

        Takes scalars or arrays of one shape.
        """
        return (sum_s_y + theta * self.sum_u_a) / self.n_units

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

    def fit(self):
        """``ybar_w`` and the residuals ``r`` of the observed values (``r`` is None for n = 1).

        Raises ``ModelValidationError`` where finite values give an ``ybar_w``
        or an ``r`` outside float64.
        """
        with np.errstate(all="ignore"):
            ybar_w, r = self.residuals(self.y[self.sampled])
        if not np.isfinite(ybar_w) or (r is not None and not np.isfinite(r).all()):
            raise ModelValidationError("the weighted average or a residual of the sampled "
                                       "values overflows float64")
        return ybar_w, r


@dataclass(frozen=True)
class ModelSpec:
    """Auxiliary-to-(a, sigma2) mapping for one of the named model families."""

    family: Literal["ratio", "royall", "horvitz_thompson", "custom"]
    sigma: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILY_COLUMNS:
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


def classical_estimate(frame: PopulationFrame) -> float:
    """Baseline estimate of the finite population mean.

    Sampled values enter directly; each unsampled unit contributes its
    predicted value ``ybar_w * a_j``.  A census frame has ``sum_u a = 0`` and
    returns the exact mean.
    """
    return float(frame.fill_in(frame.y[frame.sampled].sum(), frame.fit()[0]))

