"""Model-true mean squared error of the clipped estimator and budget calibration.

For a standard normal residual r, the overflow beyond the clipping band
``psi_tilde(r) = r - psi_c(r)`` has second moment

    g(c) = E[psi_tilde(r)^2] = 2 * [ (c^2 + 1) * Phi(-c) - c * phi(c) ],

a strictly decreasing map from g(0) = 1 to 0.  Under the working model the
MSE of the robust population-mean estimate decomposes into the variance of
the unseen units, the estimation variance of the weighted average, and a
clipping penalty proportional to g(c):

    mse = N^-2 * [ sum_u sigma2_j
                   + ( 1/S_aa + (sum_s w_i^2 v_i^2) * g(c) ) * (sum_u a_j)^2 ].

Dropping the g(c) term gives the MSE of the unclipped baseline estimator, so
the clipping penalty is the price paid for robustness when the model is
true.  ``calibrate_c`` inverts that penalty: given a budget on the excess
MSE it returns the smallest (most robust) clipping constant that stays
inside the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .errors import ModelValidationError
from .frame import FrameTemplate

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

#: Largest float c with g_clip(c) > 0 (erfc underflows just beyond it).
C_MAX = 37.67712072049519
_MAX_BISECT_ITER = 200
_G_TAIL_FROM = 2.0
_G_RATIO_TERMS = 120


def _phi(c: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * c * c)


def _Phi_neg(c: float) -> float:
    # Phi(-c) through erfc keeps full relative accuracy in the upper tail.
    return 0.5 * erfc(c / _SQRT2)


def _ierfc_ratios(z: float) -> tuple[float, float]:
    """``r_1`` and ``r_2`` of ``r_n = i^n erfc(z) / i^(n-1) erfc(z)``.

    These are the ratios of repeated erfc integrals, taken from the
    recurrence ``r_(n-1) = 1 / (2z + 2n r_n)`` run backward from ``r_N = 0``.
    """
    r2 = r1 = 0.0
    for n in range(_G_RATIO_TERMS, 1, -1):
        r2, r1 = r1, 1.0 / (2.0 * z + 2.0 * n * r1)
    return r1, r2


def g_clip(c: float) -> float:
    """Second moment of a standard normal's overflow beyond the band [-c, c].

    Nonnegative for every c >= 0.  Below ``_G_TAIL_FROM`` the closed form is
    accurate to about 1e-14.  From there on it cancels, so g is written as
    ``4 i^2erfc(z) = 4 erfc(z) r_1 r_2`` with ``z = c/sqrt(2)`` (see
    ``_ierfc_ratios``); the relative error is then about ``c^2 * 1e-16``, the
    cost of rounding ``z`` alone.
    """
    if not (np.isfinite(c) and c >= 0):
        raise ValueError("clipping constant must be finite and >= 0")
    if c < _G_TAIL_FROM:
        return float(2.0 * ((c * c + 1.0) * _Phi_neg(c) - c * _phi(c)))
    z = c / _SQRT2
    r1, r2 = _ierfc_ratios(z)
    return float(4.0 * erfc(z) * (r1 * r2))


@dataclass(frozen=True)
class RiskReport:
    """MSE decomposition of the robust population-mean estimate at a given c."""

    mse_robust: float
    mse_baseline: float
    excess: float
    g_of_c: float
    c: float
    unseen_variance: float
    estimation_variance: float
    clipping_penalty: float


def mse_closed_form(layout: FrameTemplate, c: float) -> RiskReport:
    """Exact model-true MSE of the robust estimate, split into its three parts.

    Depends only on the layout, so a ``FrameTemplate`` and a ``PopulationFrame``
    on it give the same report.  Raises ``ModelValidationError`` when the MSE
    overflows float64, and ``DegenerateFrameError`` unless the layout can be
    predicted (``FrameTemplate.require_prediction``).
    """
    layout.require_prediction("the model risk")
    N, sum_au = layout.n_units, layout.sum_u_a
    g = g_clip(c)
    unseen = layout.sum_u_sigma2 / N**2
    # sum_au * sum_au overflows to inf; Python's ** would raise OverflowError.
    estimation = (sum_au * sum_au / layout.S_aa) / N**2
    penalty = layout.sum_w2v2 * g * (sum_au * sum_au) / N**2
    baseline = unseen + estimation
    if not math.isfinite(baseline + penalty):
        raise ModelValidationError("the model MSE of this layout overflows float64")
    return RiskReport(
        mse_robust=baseline + penalty,
        mse_baseline=baseline,
        excess=penalty,
        g_of_c=g,
        c=float(c),
        unseen_variance=unseen,
        estimation_variance=estimation,
        clipping_penalty=penalty,
    )


def excess_risk(layout: FrameTemplate, c: float) -> float:
    """Excess MSE of the robust estimate over the unclipped baseline."""
    return mse_closed_form(layout, c).excess


def max_excess_risk(layout: FrameTemplate) -> float:
    """Excess risk at c = 0, the largest value the excess can take."""
    return excess_risk(layout, 0.0)


def calibrate_c(layout: FrameTemplate, max_excess: float) -> float:
    """Smallest clipping constant whose excess risk stays within the budget.

    The excess is strictly decreasing in c.  A budget at or above the c = 0
    excess is met by every c and returns 0; a budget below the excess at
    C_MAX, the last c with g > 0, raises ``ModelValidationError``.  Otherwise
    one bisection on [0, C_MAX] runs until the bracket reaches float
    resolution (at most 200 iterations) and returns its upper end, so
    ``excess_risk`` at the returned c is never over the budget.
    """
    if not (np.isfinite(max_excess) and max_excess > 0):
        raise ValueError("max_excess must be finite and > 0")
    if max_excess >= max_excess_risk(layout):
        return 0.0
    if excess_risk(layout, C_MAX) > max_excess:
        raise ModelValidationError(
            f"max_excess {max_excess!r} is below the smallest attainable excess "
            f"{excess_risk(layout, C_MAX)!r} (at c = {C_MAX!r})"
        )
    # Invariant: excess_risk(layout, lo) > max_excess >= excess_risk(layout, hi).
    lo, hi = 0.0, C_MAX
    for _ in range(_MAX_BISECT_ITER):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if excess_risk(layout, mid) > max_excess:
            lo = mid
        else:
            hi = mid
    return hi
