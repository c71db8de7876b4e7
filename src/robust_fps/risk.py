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

from .errors import DegenerateFrameError
from .frame import FrameTemplate

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

#: Upper end of the search bracket for calibrate_c; g there is below 1e-24.
C_BRACKET_HIGH = 10.0
_MAX_BISECT_ITER = 200


def _phi(c: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * c * c)


def _Phi_neg(c: float) -> float:
    # Phi(-c) through erfc keeps full relative accuracy in the upper tail.
    return 0.5 * erfc(c / _SQRT2)


def g_clip(c: float) -> float:
    """Second moment of a standard normal's overflow beyond the band [-c, c]."""
    if not (np.isfinite(c) and c >= 0):
        raise ValueError("clipping constant must be finite and >= 0")
    return float(2.0 * ((c * c + 1.0) * _Phi_neg(c) - c * _phi(c)))


def g_clip_deriv(c: float) -> float:
    """Derivative of ``g_clip``; strictly negative for all c >= 0."""
    if not (np.isfinite(c) and c >= 0):
        raise ValueError("clipping constant must be finite and >= 0")
    return float(4.0 * (c * _Phi_neg(c) - _phi(c)))


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

    @property
    def components(self) -> tuple[float, float, float]:
        return (self.unseen_variance, self.estimation_variance, self.clipping_penalty)


def _clipping_weight(layout: FrameTemplate) -> float:
    """``sum_s w_i^2 v_i^2`` after checking the layout has what the formulas need."""
    if layout.n_sampled < 2:
        raise DegenerateFrameError("risk formulas need at least 2 sampled units")
    if layout.sampled.all():
        raise DegenerateFrameError("risk formulas need at least 1 unsampled unit")
    return float((layout.w**2 * layout.v**2).sum())


def mse_closed_form(layout: FrameTemplate, c: float) -> RiskReport:
    """Exact model-true MSE of the robust estimate, split into its three parts.

    Depends only on the layout, so a ``FrameTemplate`` and a ``PopulationFrame``
    on it give the same report.
    """
    sum_w2v2 = _clipping_weight(layout)
    N, sum_au = layout.n_units, layout.sum_u_a
    g = g_clip(c)
    unseen = layout.sum_u_sigma2 / N**2
    estimation = (sum_au**2 / layout.S_aa) / N**2
    penalty = sum_w2v2 * g * sum_au**2 / N**2
    baseline = unseen + estimation
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

    The excess is strictly decreasing in c, so the solution is the unique
    root of ``excess(c) = max_excess`` when the budget is attainable, found
    by bisection on [0, C_BRACKET_HIGH]; a budget at or above the c = 0
    excess is satisfied by every c and returns 0.  Bisection runs until the
    bracket reaches float resolution (at most 200 iterations) so round-trips
    through the excess stay accurate for small budgets.
    """
    if not (np.isfinite(max_excess) and max_excess > 0):
        raise ValueError("max_excess must be finite and > 0")
    excess0 = _clipping_weight(layout) * layout.sum_u_a**2 / layout.n_units**2

    def excess_at(c: float) -> float:
        return excess0 * g_clip(c)

    if max_excess >= excess0:
        return 0.0
    lo, hi = 0.0, C_BRACKET_HIGH
    if excess_at(hi) > max_excess:
        return hi
    for _ in range(_MAX_BISECT_ITER):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        e = excess_at(mid)
        if e == max_excess:
            return mid
        if e > max_excess:
            lo = mid
        else:
            hi = mid
    # Bracket exhausted: return the endpoint closest to the budget.
    if abs(excess_at(lo) - max_excess) <= abs(excess_at(hi) - max_excess):
        return lo
    return hi
