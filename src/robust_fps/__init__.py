"""Outlier-resistant estimation of finite population means.

Clipped (limited-translation) estimators around a precision-weighted
average, delete-one predictive influence diagnostics through Gaussian power
divergences, closed-form risk with budget-based calibration of the clipping
constant, and a reproducible Monte Carlo harness.
"""

from .divergence import (
    GaussianSpec,
    InfluenceRecord,
    MCDivergence,
    divergence,
    divergence_mc_oracle,
    influence,
    posterior_predictive,
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
    chambers_variant_theta,
    psi_clip,
    robust_estimate,
    robust_theta,
)
from .frame import (
    FrameTemplate,
    ModelSpec,
    PopulationFrame,
    SufficientStats,
    build_model,
    classical_estimate,
    sufficient_stats,
)
from .risk import (
    RiskReport,
    calibrate_c,
    excess_risk,
    g_clip,
    g_clip_deriv,
    max_excess_risk,
    mse_closed_form,
)
from .simulate import (
    Contamination,
    CovarianceProbe,
    SimConfig,
    SimResult,
    covariance_probe,
    empirical_risk,
    simulate_once,
)

__all__ = [
    "Contamination",
    "CovarianceProbe",
    "DegenerateFrameError",
    "DegenerateFrameWarning",
    "DivergenceUndefinedError",
    "EstimationError",
    "FrameTemplate",
    "GaussianSpec",
    "InfluenceRecord",
    "MCDivergence",
    "ModelSpec",
    "ModelValidationError",
    "PopulationFrame",
    "RiskReport",
    "RobustConfig",
    "RobustEstimate",
    "SimConfig",
    "SimResult",
    "SufficientStats",
    "build_model",
    "calibrate_c",
    "chambers_variant_theta",
    "classical_estimate",
    "covariance_probe",
    "divergence",
    "divergence_mc_oracle",
    "empirical_risk",
    "excess_risk",
    "g_clip",
    "g_clip_deriv",
    "influence",
    "max_excess_risk",
    "mse_closed_form",
    "posterior_predictive",
    "psi_clip",
    "robust_estimate",
    "robust_theta",
    "simulate_once",
    "sufficient_stats",
    "symmetrized_divergence",
]

__version__ = "0.1.0"
