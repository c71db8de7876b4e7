"""Population frames, model families, and the baseline weighted estimator.

The working model: conditional on a scalar location theta, unit values are
independent normals ``y_i ~ N(theta * a_i, sigma2_i)`` with known positive
constants ``a_i`` and ``sigma2_i``, and theta carries a flat prior.  The
posterior mean of theta given the sampled units is the precision-weighted
average ``ybar_w``; plugging it into the unsampled part of the population
gives the baseline (non-robust) estimate of the finite population mean.

The model families are the rows of one table, ``FAMILIES``: each names its
auxiliary columns and maps them to ``a`` and a base variance, and every
family's ``sigma2_i = sigma^2 * base_i`` for one scale ``sigma`` (default 1).
``build_model`` takes a family's columns by those names and rejects others,
and a family's rule for its own columns is in its map: the Horvitz-Thompson
map rejects a ``pi`` outside (0, 1) or a total other than the sample size.
With ``a_i = x_i`` and ``base_i = x_i`` the baseline estimate is the classical
ratio estimator; with ``a_i = x_i`` and ``base_i = x_i^2`` it averages the
unit ratios ``y_i / x_i``; with ``a_i = pi_i`` and
``base_i = pi_i^2 / (1 - pi_i)`` it reproduces the Horvitz-Thompson estimator
exactly; ``custom`` reads ``a`` and ``base = sigma2`` as given.  Scaling every
``sigma2`` by ``s^2`` leaves ``w`` alone and scales every ``v`` by ``s``, so
the baseline estimate does not depend on ``sigma``, and the clipped one at
``y -> s*y`` and ``sigma -> s*sigma`` scales by ``s``.

Every number a caller passes, here and in the other modules (``sigma``,
``c``, the excess budget, ``theta_true``, the c grid, a contamination's
parameter and the divergence order), is read by one rule, ``_scalar``:
``float`` of it must exist and be finite and in the parameter's range, and
the parameter's typed error is raised otherwise.  Arrays are read by
``_float_array``, which gives an entry with no float a typed error as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DegenerateFrameError, ModelValidationError

HT_PI_SUM_TOL = 1e-9
_Y_VALUES = "y values must be numbers that fit in a float64"


def _horvitz_thompson(n: int, pi: np.ndarray):
    """``(pi, pi**2 / (1 - pi))`` for pi strictly in (0, 1) that sums to the sample size ``n``."""
    if np.any(pi >= 1):
        raise ModelValidationError("pi must lie strictly in (0, 1)")
    if abs(pi.sum() - n) > HT_PI_SUM_TOL:
        raise ModelValidationError(f"sum of pi over all units is {pi.sum()!r}, expected sample size {n}")
    return pi, pi**2 / (1.0 - pi)


#: Each model family: its auxiliary columns in frame CSV order; the map
#: ``(n, *aux) -> (a, base)`` from the sample size and those columns, which raises
#: ``ModelValidationError`` where the family cannot map them; and whether the
#: report's ``model`` block records ``sigma`` when it is 1.  These are the only
#: names of the columns: ``build_model`` takes them as keywords, and sets
#: ``sigma2 = sigma**2 * base``.
FAMILIES = {
    "ratio": (("x",), lambda n, x: (x, x), True),
    "royall": (("x",), lambda n, x: (x, x**2), False),
    "horvitz_thompson": (("pi",), _horvitz_thompson, False),
    "custom": (("a", "sigma2"), lambda n, a, sigma2: (a, sigma2), False),
}


def _scalar(value, message: str, ok=math.isfinite, error=ModelValidationError) -> float:
    """``float(value)``, checked to be finite and to pass ``ok``; else ``error(message)``.

    The one rule for a number a caller passes.  A numeric string is read as
    ``float`` reads it (``"2"`` is 2.0), and an int too large for a float is
    rejected, as are None, a non-numeric string, nan and inf.
    """
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise error(message) from None
    if not (math.isfinite(x) and ok(x)):
        raise error(message)
    return x


def _float_array(values, message: str, error=ModelValidationError) -> np.ndarray:
    """``values`` as a float array, or ``error(message)`` where an entry has no float.

    Entries are read as ``_scalar`` reads one, but not checked: nan and inf pass.
    """
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise error(message) from None


def _positive_array(name: str, values, N: int) -> np.ndarray:
    """``values`` as a float array, checked to have shape ``(N,)`` and finite entries > 0."""
    message = f"{name} must be finite and > 0 for every unit"
    arr = _float_array(values, message)
    if arr.shape != (N,):
        raise ModelValidationError(f"field {name!r} has shape {arr.shape}, expected ({N},)")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ModelValidationError(message)
    return arr


def _place_y(y_sampled, sampled: np.ndarray, n: int) -> np.ndarray:
    """A length-N ``y`` with ``y_sampled`` (unit order) at the ``n`` sampled units, NaN elsewhere."""
    y_s = _float_array(y_sampled, _Y_VALUES)
    if y_s.shape != (n,):
        raise ModelValidationError(f"expected {n} sampled y values, got {y_s.shape}")
    y = np.full(sampled.shape, np.nan)
    y[sampled] = y_s
    return y


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
        object.__setattr__(self, "unit_id", tuple(self.unit_id))
        N = len(self.unit_id)
        if N < 2:
            raise ModelValidationError(f"need at least 2 units, got {N}")
        # A dict compares keys as a set does, in less memory (0.40 against 2.0 MiB at 20 000 ids).
        if len(dict.fromkeys(self.unit_id)) != N:
            raise ModelValidationError("duplicate unit_id")
        a = _positive_array("a", self.a, N)
        sigma2 = _positive_array("sigma2", self.sigma2, N)
        s = np.asarray(self.sampled, dtype=bool)
        if s.shape != (N,):
            raise ModelValidationError(f"field 'sampled' has shape {s.shape}, expected ({N},)")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "sigma2", sigma2)
        object.__setattr__(self, "sampled", s)
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

    @cached_property
    def sampled_ids(self) -> tuple:
        """The ids of the sampled units, in unit order; computed on first use."""
        ids = self.unit_id
        return tuple([ids[i] for i in np.flatnonzero(self.sampled).tolist()])

    def require_prediction(self, what: str) -> None:
        """Raise ``DegenerateFrameError`` unless 2 or more units are sampled and 1 or more are not.

        ``what`` names the operation in the message.  The risk formulas,
        delete-one influence and simulation need both.
        """
        if self.n_sampled < 2:
            raise DegenerateFrameError(f"{what} needs at least 2 sampled units")
        if self.n_sampled == self.n_units:
            raise DegenerateFrameError(f"census frame has no unsampled units for {what}")

    def residuals(self, ys: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None):
        """Weighted average ``ybar_w`` and standardized residuals ``r`` of sampled values.

        ``ys`` holds the sampled units' values in unit order, shape ``(n,)`` or
        ``(reps, n)``; ``ybar_w`` has the leading shape.  Each row is reduced
        on its own, so a C-ordered stack gives bit for bit the values of its
        rows.
        ``r`` is None when one unit is sampled.

        ``ybar_w`` is anchored at a first average ``y0``: adding the weighted
        deviations from it makes ``sum w v r`` vanish up to their rounding, not
        that of ``t = y/a``, also where every ``t`` is equal.  One scratch
        array of the shape of ``ys`` is used, and ``r`` overwrites ``t``.
        ``out`` and ``scratch``, arrays of that shape, hold ``t`` and the
        scratch when given; ``out`` may be ``ys`` itself.
        """
        t = np.divide(ys, self.a[self.sampled], out=out)
        scratch = np.multiply(t, self.h, out=scratch)
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
        """A frame on this layout with observed values on the sampled units (unit order).

        Raises ``ModelValidationError`` unless one value is given per sampled unit.
        """
        return PopulationFrame(self.unit_id, self.a, self.sigma2, self.sampled,
                               _place_y(y_sampled, self.sampled, self.n_sampled))


@dataclass(frozen=True)
class PopulationFrame(FrameTemplate):
    """A layout plus observed values.

    ``y`` is a full-length array with NaN at unsampled positions; a value is
    present exactly for sampled units.
    """

    y: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        y = _float_array(self.y, _Y_VALUES)
        object.__setattr__(self, "y", y)
        sampled = self.sampled
        if y.shape != (self.n_units,):
            raise ModelValidationError(f"field 'y' has shape {y.shape}, expected ({self.n_units},)")
        if not np.all(np.isfinite(y[sampled])):
            bad = [self.unit_id[i] for i in np.flatnonzero(sampled & ~np.isfinite(y))]
            raise ModelValidationError(f"missing or not finite y for sampled unit(s) {bad}")
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

    def population_mean(self, theta: float) -> float:
        """``fill_in`` of the sampled total and ``theta``, as a float.

        Raises ``ModelValidationError`` where finite values give a sampled
        total or a ``theta * sum_u a`` outside float64.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(self.fill_in(self.y[self.sampled].sum(), theta))
        if not np.isfinite(mean):
            raise ModelValidationError("the population mean from the sampled total and theta "
                                       "overflows float64")
        return mean


@dataclass(frozen=True)
class ModelSpec:
    """One of the model families of ``FAMILIES`` and the scale ``sigma`` of its variances."""

    family: str
    sigma: float = 1.0

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in FAMILIES:
            raise ModelValidationError(f"unknown family {self.family!r}")
        # sigma is held as a float, so an int such as 10**200 meets the check as 1e200.
        # sigma**2 raises OverflowError above about 1.34e154, where sigma * sigma gives
        # inf; below about 1e-162 the square is 0, and so would every sigma2 be.
        object.__setattr__(self, "sigma", _scalar(
            self.sigma, f"{self.family} family needs sigma > 0 with a finite, nonzero square",
            lambda s: s > 0 and 0 < s * s < math.inf))


def build_model(
    unit_id: Sequence,
    spec: ModelSpec,
    *,
    sampled: Sequence[bool],
    y_sampled: Sequence[float],
    **columns: Sequence[float] | None,
) -> PopulationFrame:
    """Map the family's auxiliary columns to (a_i, sigma2_i) through ``FAMILIES`` and assemble a frame.

    ``columns`` holds the family's columns by their ``FAMILIES`` names, for
    example ``x=...`` for ``ratio`` or ``a=..., sigma2=...`` for ``custom``.
    A column the family does not read raises ``ModelValidationError`` unless
    it is None, and a missing one fails its shape check; the family's map
    may reject the columns it is given.  Every family's
    ``sigma2_i`` is ``spec.sigma**2`` times its base variance; at
    ``sigma = 1`` that product is exact.  ``y_sampled`` lists observed values
    for the sampled units, in unit order.
    """
    unit_id = tuple(unit_id)
    N = len(unit_id)
    sampled_arr = np.asarray(sampled, dtype=bool)
    if sampled_arr.shape != (N,):
        raise ModelValidationError("sampled flags must align with unit_id")
    n = int(sampled_arr.sum())

    names, to_model, _ = FAMILIES[spec.family]
    unread = [c for c, values in columns.items() if c not in names and values is not None]
    if unread:
        raise ModelValidationError(f"{spec.family} family does not read column(s) {unread}")
    aux = [_positive_array(c, columns.get(c), N) for c in names]
    # An a or sigma2 that overflows is left inf, for FrameTemplate to reject.
    with np.errstate(over="ignore"):
        a_arr, base = to_model(n, *aux)
        s2_arr = spec.sigma**2 * base

    return PopulationFrame(unit_id, a_arr, s2_arr, sampled_arr, _place_y(y_sampled, sampled_arr, n))


def classical_estimate(frame: PopulationFrame) -> float:
    """Baseline estimate of the finite population mean.

    Sampled values enter directly; each unsampled unit contributes its
    predicted value ``ybar_w * a_j``.  A census frame has ``sum_u a = 0`` and
    returns the exact mean.
    """
    return frame.population_mean(frame.fit()[0])

