"""Independent oracles and probes the tests check the library against.

None of this is package API: the Monte Carlo divergence, the dense
posterior predictive, the single-replication streams and population, and the
residual covariance probe exist to check closed forms and schedules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import ndtri

from robust_fps import DegenerateFrameError, GaussianSpec, ModelValidationError, PopulationFrame
from robust_fps.divergence import _check_dims
from robust_fps.simulate import SimConfig, _generate_batch, _realize
from robust_fps.streams import _blocks, _to_uniform, raw_words

LOG_2PI = math.log(2.0 * math.pi)


# --- streams ---------------------------------------------------------------

def uniforms(seed: int, n: int) -> np.ndarray:
    """n uniforms in (0, 1) from the stream keyed by ``seed``."""
    return _to_uniform(raw_words(seed, 0, n))


def rep_uniforms(seed: int, rep: int, n: int) -> np.ndarray:
    """Replication substream: n uniforms from blocks owned by replication ``rep``."""
    return _to_uniform(raw_words(seed, rep * _blocks(n), n))


def std_normals(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normals via inverse-CDF transform of the uniform stream."""
    return ndtri(uniforms(seed, int(np.prod(shape)))).reshape(shape)


# --- Gaussians and the Monte Carlo divergence --------------------------------

def gaussian_log_pdf(g: GaussianSpec, x: np.ndarray) -> np.ndarray:
    """Log density of ``g`` at each row of ``x``."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    z = solve_triangular(g.chol, (x - g.mu).T, lower=True, check_finite=False)
    maha = np.einsum("ij,ij->j", z, z)
    return -0.5 * (g.dim * LOG_2PI + g.log_det + maha)


def gaussian_sample(g: GaussianSpec, n: int, seed: int) -> np.ndarray:
    """n draws from ``g`` (one per row) from the stream keyed by ``seed``."""
    return g.mu + std_normals(seed, (n, g.dim)) @ g.chol.T


@dataclass(frozen=True)
class MCDivergence:
    """Monte Carlo estimate of the defining expectation, with its standard error."""

    estimate: float
    std_error: float
    draws: int
    n_nonfinite: int = 0


def divergence_mc_oracle(
    f1: GaussianSpec, f2: GaussianSpec, lam: float, draws: int, seed: int
) -> MCDivergence:
    """Sample-mean evaluation of D_lam from draws under f1.

    Works per draw in log-density space; a nonfinite ratio is excluded from
    the average and counted in ``n_nonfinite`` rather than raised.
    Not defined at the KL limit orders 0 and -1.
    """
    _check_dims(f1, f2)
    lam = float(lam)
    if lam in (0.0, -1.0):
        raise ValueError("Monte Carlo oracle is undefined at the KL limit orders 0 and -1")
    if draws < 2:
        raise ValueError("need at least 2 draws")
    x = gaussian_sample(f1, draws, seed)
    log_ratio = gaussian_log_pdf(f1, x) - gaussian_log_pdf(f2, x)
    coef = lam * (lam + 1.0)
    with np.errstate(over="ignore"):
        vals = np.expm1(lam * log_ratio) / coef
    finite = np.isfinite(vals)
    n_bad = int((~finite).sum())
    vals = vals[finite]
    if vals.size < 2:
        return MCDivergence(math.nan, math.nan, draws, n_bad)
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(vals.size))
    return MCDivergence(est, se, draws, n_bad)


def posterior_predictive(frame: PopulationFrame) -> GaussianSpec:
    """Predictive distribution of the unsampled values given the sampled ones.

    Mean ``ybar_w * a_u``; covariance ``diag(sigma2_u) + a_u a_u^T / S_aa``.
    """
    u = ~frame.sampled
    if not u.any():
        raise DegenerateFrameError("census frame has no unsampled units to predict")
    ybar_w, _ = frame.fit()
    a_u = frame.a[u]
    cov = np.diag(frame.sigma2[u]) + np.outer(a_u, a_u) / frame.S_aa
    return GaussianSpec(ybar_w * a_u, cov)


# --- simulation --------------------------------------------------------------

@dataclass(frozen=True)
class SimulatedPopulation:
    """One realized population: values for every unit, contamination applied."""

    config: SimConfig
    rep_index: int
    y: np.ndarray


def simulate_once(config: SimConfig, rep_index: int) -> SimulatedPopulation:
    """Realize one population from the substream owned by ``rep_index``."""
    if not 0 <= rep_index:
        raise ModelValidationError("rep_index must be >= 0")
    u = rep_uniforms(config.seed, rep_index, config.template.n_units)
    return SimulatedPopulation(config, rep_index, _realize(config, u))


def theta_sq_error_and_cross(config: SimConfig, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-replication ``(theta_R - theta)^2`` and pairwise overflow moment at ``c``.

    The cross moment is ``T^2 - sum_s (w v psi~(r))^2`` with ``T = sum_s w v psi~(r)``,
    the weighted overflow; its mean is what the closed-form MSE drops.
    """
    t = config.template
    ybar_w, r = t.residuals(_generate_batch(config)[:, t.sampled])
    wv = t.w * t.v
    overflow = r - np.clip(r, -c, c)
    T = overflow @ wv
    return (ybar_w - T - config.theta_true) ** 2, T**2 - overflow**2 @ wv**2


@dataclass(frozen=True)
class CovarianceProbe:
    """Empirical residual covariances against their model values."""

    unit_id: tuple
    cov_resid_ybar: np.ndarray
    cov_resid_ybar_se: np.ndarray
    corr_empirical: np.ndarray
    corr_analytic: np.ndarray
    corr_se: np.ndarray
    reps: int


def covariance_probe(config: SimConfig) -> CovarianceProbe:
    """Measure Cov(y_i/a_i - ybar_w, ybar_w) and Corr(r_i, r_k) by simulation.

    Under the model the first is 0 for every unit and the residual
    correlation equals -(1/S_aa) / (v_i v_k) for i != k.
    """
    t = config.template
    ybar_w, r = t.residuals(_generate_batch(config)[:, t.sampled])
    resid = r * t.v

    y_c = ybar_w - ybar_w.mean()
    res_c = resid - resid.mean(axis=0)
    prod = res_c * y_c[:, None]
    reps = r.shape[0]
    cov = prod.mean(axis=0)
    cov_se = prod.std(axis=0, ddof=1) / math.sqrt(reps)

    corr_emp = np.corrcoef(r, rowvar=False)
    corr_ana = -(1.0 / t.S_aa) / np.outer(t.v, t.v)
    np.fill_diagonal(corr_ana, 1.0)
    corr_se = (1.0 - corr_emp**2) / math.sqrt(reps)
    return CovarianceProbe(
        unit_id=t.sampled_ids,
        cov_resid_ybar=cov,
        cov_resid_ybar_se=cov_se,
        corr_empirical=corr_emp,
        corr_analytic=corr_ana,
        corr_se=corr_se,
        reps=reps,
    )
