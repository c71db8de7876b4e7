"""Outlier-resistant estimation of finite population means.

Clipped (limited-translation) estimators around a precision-weighted
average, delete-one predictive influence diagnostics through Gaussian power
divergences, closed-form risk with budget-based calibration of the clipping
constant, and a reproducible Monte Carlo harness.

The harness's names (``Contamination``, ``SimConfig``, ``SimResult``,
``empirical_risk``) load ``robust_fps.simulate`` on first access, so that
estimation alone never imports ``numpy.random`` or a thread pool.
"""

from .divergence import (
    GaussianSpec,
    divergence,
    influence,
    symmetrized_divergence,
)
from .errors import (
    DegenerateFrameError,
    DivergenceUndefinedError,
    EstimationError,
    ModelValidationError,
)
from .estimators import (
    DegenerateFrameWarning,
    RobustConfig,
    RobustEstimate,
    psi_clip,
    robust_estimate,
)
from .frame import (
    FrameTemplate,
    ModelSpec,
    PopulationFrame,
    build_model,
    classical_estimate,
)
from .risk import (
    RiskReport,
    calibrate_c,
    excess_risk,
    g_clip,
    max_excess_risk,
    mse_closed_form,
)

__all__ = [
    "Contamination",
    "DegenerateFrameError",
    "DegenerateFrameWarning",
    "DivergenceUndefinedError",
    "EstimationError",
    "FrameTemplate",
    "GaussianSpec",
    "ModelSpec",
    "ModelValidationError",
    "PopulationFrame",
    "RiskReport",
    "RobustConfig",
    "RobustEstimate",
    "SimConfig",
    "SimResult",
    "build_model",
    "calibrate_c",
    "classical_estimate",
    "divergence",
    "empirical_risk",
    "excess_risk",
    "g_clip",
    "influence",
    "max_excess_risk",
    "mse_closed_form",
    "psi_clip",
    "robust_estimate",
    "symmetrized_divergence",
]

__version__ = "0.1.0"

_SIMULATE_NAMES = ("Contamination", "SimConfig", "SimResult", "empirical_risk")


def __getattr__(name):
    if name in _SIMULATE_NAMES:
        from . import simulate

        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SIMULATE_NAMES))
