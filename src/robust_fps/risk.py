"""Model-true mean squared error of the clipped estimator and budget calibration.

For a standard normal residual r, the overflow beyond the clipping band
``psi_tilde(r) = r - psi_c(r)`` has second moment

    g(c) = E[psi_tilde(r)^2] = 2 * [ (c^2 + 1) * Phi(-c) - c * phi(c) ],

a strictly decreasing map from g(0) = 1 to 0.  The closed form splits the
model MSE of the robust population-mean estimate into the variance of the
unseen units, the estimation variance of the weighted average, and a
clipping penalty proportional to g(c):

    mse = N^-2 * [ sum_u sigma2_j
                   + ( 1/S_aa + (sum_s w_i^2 v_i^2) * g(c) ) * (sum_u a_j)^2 ].

The unsampled values are independent of the sample, so any estimate of
theta whose MSE is ``1/S_aa + x`` gives the population-mean MSE
``N^-2 * [sum_u sigma2_j + (sum_u a_j)^2 * (1/S_aa + x)]``.  That one
population-MSE composition is written once, in ``_population_mse``, which
takes the location excess x; the closed form supplies
``x = sum_s w_i^2 v_i^2 g(c)``, and every model MSE here goes through it.

It is not exact.  Of ``E[T^2]``, with ``T = sum_s w_i v_i psi_tilde(r_i)``
the weighted overflow, it keeps only the diagonal ``sum_s w_i^2 v_i^2 g(c)``
and drops the pairwise cross term between the overflows of distinct units,
which the simulation harness measures as ``SimRow.cross_term``; it is a
large-c approximation.  The dropped term is negative, so the diagonal
overstates ``E[T^2]``: on the clean simulate golden (N = 12, n = 8, 1000
replications) ``E[T^2]`` is 0.018 +- 0.017, 0.372 +- 0.035 and
0.827 +- 0.064 of it at c = 0, 1 and 2.  Dropping the g(c) term gives the
MSE of the unclipped baseline estimator, so the clipping penalty is the
closed form's price for robustness when the model is true.  ``calibrate_c`` inverts the
composition's penalty: given a budget on the excess MSE it returns the
smallest clipping constant whose closed-form excess stays inside the
budget.  That c is not the most robust one.  The one-step estimate is
``ybar_w`` at c = 0 and as c grows, so its MSE under an outlier is
U-shaped in c: with N = 200, n = 150 and one unit substituted 10 residual
scales high, it is 2.2315e-3 at c = 0, 1.9734e-3 at c = 2.13 and
2.0007e-3 at c = 4.  The budget bounds the clean-model price of clipping;
it does not pick the c that best resists an outlier.

Every ``erfc`` here is the C library's on a scalar (``math.erfc``), so this
module, and with it estimation and calibration, needs numpy but not scipy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ModelValidationError
from .frame import FrameTemplate, _scalar

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

#: Largest float c with g_clip(c) > 0 (libm's erfc underflows just beyond it).
C_MAX = 38.33165253578686
#: Largest float c with g_clip(c) a normal float; beyond it g loses digits.
C_NORMAL = 37.36301503324008
_MAX_BISECT_ITER = 200
_G_TAIL_FROM = 2.0
_G_RATIO_TERMS = 120


def _phi(c: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * c * c)


def _Phi_neg(c: float) -> float:
    # Phi(-c) through erfc keeps full relative accuracy in the upper tail.
    return 0.5 * math.erfc(c / _SQRT2)


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
    cost of rounding ``z`` alone, while g is a normal float (c up to
    ``C_NORMAL``).  Beyond, g is subnormal and loses digits until it
    underflows to 0 past ``C_MAX``.
    """
    c = _scalar(c, "clipping constant must be finite and >= 0", lambda c: c >= 0)
    if c < _G_TAIL_FROM:
        return float(2.0 * ((c * c + 1.0) * _Phi_neg(c) - c * _phi(c)))
    z = c / _SQRT2
    r1, r2 = _ierfc_ratios(z)
    return float(4.0 * math.erfc(z) * (r1 * r2))


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


def _population_mse(layout: FrameTemplate, excess_theta: float) -> tuple[float, float, float]:
    """The population-mean MSE at a location excess, as ``(unseen, estimation, penalty)``.

    The three parts sum to
    ``[sum_u sigma2 + (sum_u a)^2 (1/S_aa + excess_theta)] / N^2``.  The
    unsampled values are independent of the sample, so this is the model
    MSE of the prediction from any estimate of theta whose MSE is
    ``1/S_aa + excess_theta``.  A form supplies only that excess, since
    ``(1/S_aa + x) - 1/S_aa`` is not ``x`` in floating point.  Every model
    MSE in this module is composed here, in one order of operations, so the
    c that ``calibrate_c`` returns is within budget bit for bit.
    """
    # sum_u_a * sum_u_a overflows to inf; Python's ** would raise OverflowError.
    au2, N2 = layout.sum_u_a * layout.sum_u_a, layout.n_units**2
    return layout.sum_u_sigma2 / N2, au2 / layout.S_aa / N2, excess_theta * au2 / N2


def _clipping_excess(layout: FrameTemplate, g: float) -> float:
    """The paper form's location excess ``sum_s w^2 v^2 g`` at the c where ``g = g_clip(c)``.

    The diagonal of ``E[T^2]``, with the pairwise overflow cross term dropped
    (see the module docstring).  It takes ``g`` rather than c, so a caller
    that also reports ``g`` evaluates ``g_clip`` once.
    """
    return layout.sum_w2v2 * g


def mse_closed_form(layout: FrameTemplate, c: float) -> RiskReport:
    """Closed-form model MSE of the robust estimate, split into its three parts.

    The clipping penalty keeps only the diagonal ``sum_s w^2 v^2 g(c)`` of
    ``E[T^2]`` and drops the pairwise overflow cross term (see the module
    docstring; ``SimRow.cross_term`` measures it).

    Depends only on the layout, so a ``FrameTemplate`` and a ``PopulationFrame``
    on it give the same report.  Raises ``ModelValidationError`` when the MSE
    overflows float64, and ``DegenerateFrameError`` unless the layout can be
    predicted (``FrameTemplate.require_prediction``).
    """
    layout.require_prediction("the model risk")
    g = g_clip(c)
    unseen, estimation, penalty = _population_mse(layout, _clipping_excess(layout, g))
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
    excess is met by every c and returns 0.  A budget below the excess at
    C_NORMAL, the last c where g is a normal float, or below where the
    excess or its product ``sum_w2v2 * g`` leaves the normal floats, raises
    ``ModelValidationError``: past either the excess keeps too few digits
    to tell whether the exact one is within budget.  Otherwise one
    bisection on [0, C_NORMAL] runs until the bracket reaches float
    resolution (at most 200 iterations) and returns its upper end.  Each
    step, and the floor, takes the penalty from the one composition that
    ``mse_closed_form`` uses, with no report built, so ``excess_risk`` at
    the returned c is never over the budget.
    """
    max_excess = _scalar(max_excess, "max_excess must be finite and > 0", lambda m: m > 0)
    if max_excess >= max_excess_risk(layout):
        return 0.0
    # Where the excess, or its first product sum_w2v2 * g, would be below the
    # smallest normal float, it keeps too few digits to be compared.  The
    # penalty at excess 1.0 is (sum_u a)^2 / N^2 exactly.
    tiny = sys.float_info.min * max(1.0, _population_mse(layout, 1.0)[2])
    floor = max(_population_mse(layout, _clipping_excess(layout, g_clip(C_NORMAL)))[2], tiny)
    if floor > max_excess:
        raise ModelValidationError(
            f"max_excess {max_excess!r} is below the smallest attainable excess "
            f"{floor!r} (the excess at c = {C_NORMAL!r}, or where it leaves the normal floats)"
        )
    # Invariant: excess(lo) > max_excess >= excess(hi).
    lo, hi = 0.0, C_NORMAL
    for _ in range(_MAX_BISECT_ITER):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if _population_mse(layout, _clipping_excess(layout, g_clip(mid)))[2] > max_excess:
            lo = mid
        else:
            hi = mid
    return hi
