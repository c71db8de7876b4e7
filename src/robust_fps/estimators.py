"""Clipped (limited-translation) estimators of the location and the population mean.

The robust location estimate winsorizes each standardized residual at a band
``[-c, c]`` before re-aggregating:

    theta_R = ybar_w + sum_i w_i * v_i * psi_c(r_i).

Because the weighted residuals sum to zero exactly, the same value can be
written as ybar_w minus the weighted overflow beyond the band,

    theta_R = ybar_w - sum_i w_i * v_i * (r_i - psi_c(r_i)),

which is the form computed: it returns ybar_w exactly once no residual is
clipped.  ``weighted_overflow`` computes that overflow and its weighted sum
for one frame's residuals or a stack of them; the estimator here and the
Monte Carlo harness both call it, and ``psi_clip`` inside it clips at the
band; ``dataio.build_report`` applies the band once more, to flag units.  The
population-mean version plugs theta_R into the unsampled part of the frame.

A comparison variant rescales by sigma_i / a_i instead of v_i (the scaling
used in earlier outlier-robust ratio estimation work).  Its weighted
residuals ``sum_i w_i (y_i/a_i - ybar_w)`` sum to zero as well, so it
subtracts the weighted overflow too; it has no associated risk formula.
Each form is one row of ``FORMS``, the one place a form is chosen.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelValidationError
from .frame import PopulationFrame, _scalar
from .risk import _clipping_excess, calibrate_c

#: The one-step estimator forms, keyed by ``RobustConfig.scaling``; the first,
#: the paper's, is the default.  A row is ``(scale, excess)``: ``scale(layout)``
#: is the sampled units' residual scale, and ``excess(layout, g)`` the location
#: excess at the c with ``g_clip(c) = g``, for ``risk._population_mse``, or
#: None where the form has no risk formula.
FORMS = {
    "paper_v": (lambda t: t.v, _clipping_excess),
    "chambers_sigma": (lambda t: np.sqrt(t.sigma2[t.sampled]) / t.a[t.sampled], None),
}


class DegenerateFrameWarning(UserWarning):
    """Single-unit sample: no residuals, the robust estimate falls back to ybar_w."""


@dataclass(frozen=True)
class RobustConfig:
    """Clipping policy: a fixed constant c, or an excess-risk budget to solve for it."""

    c: float | None = None
    max_excess: float | None = None
    scaling: str = next(iter(FORMS))

    def __post_init__(self):
        if (self.c is None) == (self.max_excess is None):
            raise ModelValidationError("exactly one of c and max_excess must be given")
        if self.c is not None:
            object.__setattr__(self, "c", _scalar(
                self.c, "c must be finite and >= 0", lambda c: c >= 0))
        if self.max_excess is not None:
            object.__setattr__(self, "max_excess", _scalar(
                self.max_excess, "max_excess must be finite and > 0", lambda m: m > 0))
        # A list is not hashable, so it is refused before the table is searched.
        if not isinstance(self.scaling, str) or self.scaling not in FORMS:
            raise ModelValidationError(f"unknown scaling {self.scaling!r}")
        if self.max_excess is not None and not FORMS[self.scaling][1]:
            with_risk = " and ".join(name for name, (_, excess) in FORMS.items() if excess)
            raise ModelValidationError(
                f"excess-budget calibration is defined for the {with_risk} scaling only"
            )


@dataclass(frozen=True)
class RobustEstimate:
    """Robust location and population-mean estimates with the clipped units."""

    theta_hat_R: float
    ybar_P_R: float
    clipped_units: tuple
    c_used: float
    scaling: str = next(iter(FORMS))
    degenerate: bool = field(default=False)


def psi_clip(r, c: float, out=None):
    """Winsorize at the closed band [-c, c]; odd and nondecreasing in r.

    It clips for the estimators and the harness; ``dataio.build_report``
    flags ``|r_k| > c`` on its own.  ``out``, an array of ``r``'s shape,
    receives the result when given.
    """
    c = _scalar(c, "clipping constant must be finite and >= 0", lambda c: c >= 0)
    return np.clip(r, -c, c, out=out)


def weighted_overflow(r, c: float, weights, out=None):
    """``(T, overflow)``: the overflow ``r - psi_c(r)`` beyond the band and its dot with ``weights``.

    ``r`` has shape ``(n,)`` or ``(reps, n)``, and ``T`` is a scalar or one
    value per row, each row's bit for bit its own 1-D dot.  ``out``, an array
    of ``r``'s shape, holds the overflow when given, so a caller looping over
    c reuses one buffer.  The overflow is nonzero exactly where ``|r| > c``.
    """
    overflow = np.subtract(r, psi_clip(r, c, out=out), out=out)
    return np.vecdot(overflow, weights), overflow


def robust_estimate(frame: PopulationFrame, config: RobustConfig) -> RobustEstimate:
    """Robust estimate of the finite population mean.

    Resolves the clipping constant from the excess budget when needed, then
    applies the clipped location estimate to the unsampled part of the frame.
    The residuals ``(y_i/a_i - ybar_w) / scale_i`` take the scale of the
    form's ``FORMS`` row, ``v_i`` or ``sigma_i / a_i``; theta is ``ybar_w``
    minus their overflow weighted by ``w_i`` times that scale.  A census
    frame returns the exact mean.  With a single sampled unit there is
    nothing to clip: theta is ``ybar_w`` and a DegenerateFrameWarning is
    issued.
    """
    if config.c is None:
        config = RobustConfig(c=calibrate_c(frame, config.max_excess), scaling=config.scaling)
    ybar_w, resid = frame.fit()
    theta, clipped_units = float(ybar_w), ()
    if resid is None:
        warnings.warn("single-unit sample, returning ybar_w", DegenerateFrameWarning)
    else:
        s, scale = frame.sampled, FORMS[config.scaling][0](frame)
        # For the paper row, the divide and subtract of fit()'s r, bit for bit.
        r = (frame.y[s] / frame.a[s] - ybar_w) / scale
        T, overflow = weighted_overflow(r, config.c, frame.w * scale)
        theta -= float(T)
        ids = frame.sampled_ids
        clipped_units = tuple([ids[i] for i in np.flatnonzero(overflow).tolist()])
    return RobustEstimate(
        theta_hat_R=theta,
        ybar_P_R=frame.population_mean(theta),
        clipped_units=clipped_units,
        c_used=config.c,
        scaling=config.scaling,
        degenerate=resid is None,
    )
