"""The package's public names, pinned: a change to the public surface edits this list."""

import robust_fps

PUBLIC_NAMES = [
    "Contamination", "DegenerateFrameError", "DegenerateFrameWarning", "DivergenceUndefinedError",
    "EstimationError", "FrameTemplate", "GaussianSpec", "ModelSpec",
    "ModelValidationError", "PopulationFrame", "RiskReport", "RobustConfig", "RobustEstimate",
    "SimConfig", "SimResult", "build_model", "calibrate_c", "classical_estimate", "divergence",
    "empirical_risk", "excess_risk", "g_clip", "influence", "max_excess_risk", "mse_closed_form",
    "psi_clip", "robust_estimate", "symmetrized_divergence",
]


def test_public_names_are_pinned():
    assert sorted(robust_fps.__all__) == PUBLIC_NAMES
    assert all(hasattr(robust_fps, name) for name in PUBLIC_NAMES)
