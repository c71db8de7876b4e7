"""Clipped (limited-translation) estimators of the location and the population mean.

The robust location estimate winsorizes each standardized residual at a band
``[-c, c]`` before re-aggregating:

    theta_R = ybar_w + sum_i w_i * v_i * psi_c(r_i).

Because the weighted residuals sum to zero exactly, the same value can be
written as ybar_w minus the weighted overflow beyond the band,

    theta_R = ybar_w - sum_i w_i * v_i * (r_i - psi_c(r_i)),

which is the form computed: it returns ybar_w exactly once no residual is
clipped.  The population-mean version plugs theta_R into the unsampled part
of the frame.

A comparison variant rescales by sigma_i / a_i instead of v_i (the scaling
used in earlier outlier-robust ratio estimation work); it has no associated
risk formula and only the direct clipped form is provided.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .errors import ModelValidationError
from .frame import PopulationFrame, SufficientStats, sufficient_stats


class DegenerateFrameWarning(UserWarning):
    """Single-unit sample: no residuals, the robust estimate falls back to ybar_w."""


@dataclass(frozen=True)
class RobustConfig:
    """Clipping policy: a fixed constant c, or an excess-risk budget to solve for it."""

    c: float | None = None
    max_excess: float | None = None
    scaling: Literal["paper_v", "chambers_sigma"] = "paper_v"

    def __post_init__(self):
        if (self.c is None) == (self.max_excess is None):
            raise ModelValidationError("exactly one of c and max_excess must be given")
        if self.c is not None and not (np.isfinite(self.c) and self.c >= 0):
            raise ModelValidationError("c must be finite and >= 0")
        if self.max_excess is not None and not (np.isfinite(self.max_excess) and self.max_excess > 0):
            raise ModelValidationError("max_excess must be finite and > 0")
        if self.scaling not in ("paper_v", "chambers_sigma"):
            raise ModelValidationError(f"unknown scaling {self.scaling!r}")
        if self.max_excess is not None and self.scaling != "paper_v":
            raise ModelValidationError(
                "excess-budget calibration is defined for the paper_v scaling only"
            )


@dataclass(frozen=True)
class RobustEstimate:
    """Robust location and population-mean estimates with per-unit clipping detail."""

    theta_hat_R: float
    ybar_P_R: float
    clipped_units: tuple
    c_used: float
    contributions: np.ndarray
    scaling: str = "paper_v"
    degenerate: bool = field(default=False)


def psi_clip(r, c: float):
    """Winsorize at the closed band [-c, c]; odd and nondecreasing in r."""
    if c < 0:
        raise ValueError("clipping constant must be >= 0")
    return np.clip(r, -c, c)


def robust_theta(stats: SufficientStats, config: RobustConfig | float) -> float:
    """Clipped location estimate from sufficient statistics.

    With a single sampled unit there is nothing to clip; the weighted average
    is returned and a DegenerateFrameWarning is issued.
    """
    if not isinstance(config, RobustConfig):
        config = RobustConfig(c=float(config))
    if config.c is None:
        raise ModelValidationError(
            "clipping constant unresolved: solve it from the excess budget first "
            "(calibrate_c) or pass a fixed c"
        )
    c = float(config.c)
    if stats.n < 2:
        warnings.warn("single-unit sample, returning ybar_w", DegenerateFrameWarning)
        return stats.ybar_w
    if config.scaling == "chambers_sigma":
        return chambers_variant_theta(stats, c)
    overflow = stats.r - psi_clip(stats.r, c)
    return stats.ybar_w - float((stats.w * stats.v) @ overflow)


def _chambers_residuals(stats: SufficientStats):
    """Scale sigma_i / a_i and the residuals standardized by it."""
    scale = np.sqrt(stats.sigma2) / stats.a
    return scale, (stats.y / stats.a - stats.ybar_w) / scale


def chambers_variant_theta(stats: SufficientStats, c: float) -> float:
    """Clipped estimate rescaled by sigma_i / a_i instead of v_i.

    Provided for comparison studies only; no risk formula applies to it.
    """
    if stats.n < 2:
        warnings.warn("single-unit sample, returning ybar_w", DegenerateFrameWarning)
        return stats.ybar_w
    scale, r_tilde = _chambers_residuals(stats)
    return stats.ybar_w + float((stats.w * scale) @ psi_clip(r_tilde, c))


def robust_estimate(frame: PopulationFrame, config: RobustConfig) -> RobustEstimate:
    """Robust estimate of the finite population mean.

    Resolves the clipping constant from the excess budget when needed, then
    applies the clipped location estimate to the unsampled part of the frame.
    A census frame returns the exact mean.
    """
    if config.c is None:
        from .risk import calibrate_c

        config = RobustConfig(c=calibrate_c(frame, config.max_excess), scaling=config.scaling)
    c = float(config.c)
    stats = sufficient_stats(frame)
    theta = robust_theta(stats, config)
    degenerate = stats.n < 2
    if degenerate:
        contributions, clipped_units = np.zeros(1), ()
    else:
        if config.scaling == "chambers_sigma":
            scale, resid_std = _chambers_residuals(stats)
        else:
            scale, resid_std = stats.v, stats.r
        contributions = stats.w * scale * psi_clip(resid_std, c)
        mask = np.abs(resid_std) > c
        clipped_units = tuple(u for u, m in zip(stats.unit_id, mask) if m)

    ybar_P_R = (frame.y[frame.sampled].sum() + theta * frame.sum_u_a) / frame.n_units
    return RobustEstimate(
        theta_hat_R=theta,
        ybar_P_R=float(ybar_P_R),
        clipped_units=clipped_units,
        c_used=c,
        contributions=contributions,
        scaling=config.scaling,
        degenerate=degenerate,
    )
