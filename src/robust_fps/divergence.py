"""Power divergences between multivariate normals, and delete-one influence.

The divergence family of order ``lam`` is

    D_lam(f1, f2) = E_f1[ (f1/f2)^lam - 1 ] / (lam * (lam + 1)),

interpreted at lam = 0 as KL(f1 || f2) and at lam = -1 as KL(f2 || f1).
At lam = -1/2 it equals twice the squared Hellinger distance.  For normal
densities the defining expectation has the closed form

    E_f1[(f1/f2)^lam] = exp( lam*(lam+1)/2 * dmu' S^-1 dmu )
                        * |cov1|^(-lam/2) |cov2|^((lam+1)/2) |S|^(-1/2),

with ``S = (1+lam)*cov2 - lam*cov1`` required positive definite (the same
condition that makes the expectation finite).  All determinant work happens
in log space via Cholesky factors.

A Monte Carlo evaluation of the defining expectation is provided as an
independent check of the closed form, and the delete-one influence of each
sampled unit is measured as the divergence between the predictive
distributions of the unsampled values with and without that unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, solve_triangular

from .errors import DegenerateFrameError, DivergenceUndefinedError
from .frame import PopulationFrame, posterior_predictive, sufficient_stats
from .streams import std_normals

LOG_2PI = math.log(2.0 * math.pi)


def _chol_lower(mat: np.ndarray, name: str) -> np.ndarray:
    try:
        return cholesky(mat, lower=True, check_finite=True)
    except Exception as exc:
        raise DivergenceUndefinedError(name, str(exc)) from None


@dataclass(frozen=True)
class GaussianSpec:
    """A multivariate normal given by mean vector and covariance matrix."""

    mu: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "cov", cov)
        p = mu.shape[0]
        if mu.ndim != 1 or cov.shape != (p, p):
            raise DivergenceUndefinedError("cov", f"shape {cov.shape} does not match mean of length {p}")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(cov))):
            raise DivergenceUndefinedError("cov", "nonfinite entries")
        scale = np.abs(cov).max()
        if scale > 0 and np.abs(cov - cov.T).max() > 1e-12 * scale:
            raise DivergenceUndefinedError("cov", "not symmetric within 1e-12 relative")
        object.__setattr__(self, "_chol", _chol_lower(cov, "cov"))

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    @property
    def chol(self) -> np.ndarray:
        return self._chol

    @property
    def log_det(self) -> float:
        return 2.0 * float(np.log(np.diag(self._chol)).sum())

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        """Log density at each row of ``x``."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        z = solve_triangular(self._chol, (x - self.mu).T, lower=True, check_finite=False)
        maha = np.einsum("ij,ij->j", z, z)
        return -0.5 * (self.dim * LOG_2PI + self.log_det + maha)

    def sample(self, n: int, seed: int) -> np.ndarray:
        z = std_normals(seed, (n, self.dim))
        return self.mu + z @ self._chol.T


def _check_dims(f1: GaussianSpec, f2: GaussianSpec):
    if f1.dim != f2.dim:
        raise DivergenceUndefinedError("cov2", f"dimension mismatch {f1.dim} vs {f2.dim}")


def _kl(f1: GaussianSpec, f2: GaussianSpec) -> float:
    """KL(f1 || f2) in closed form."""
    d = f1.mu - f2.mu
    z = solve_triangular(f2.chol, d, lower=True, check_finite=False)
    maha = float(z @ z)
    w = solve_triangular(f2.chol, f1.chol, lower=True, check_finite=False)
    trace = float((w * w).sum())
    return 0.5 * (trace + maha - f1.dim + f2.log_det - f1.log_det)


def divergence(f1: GaussianSpec, f2: GaussianSpec, lam: float) -> float:
    """Closed-form D_lam(f1, f2); lam 0 and -1 route to the KL limits."""
    _check_dims(f1, f2)
    lam = float(lam)
    if not math.isfinite(lam):
        raise DivergenceUndefinedError("lam", "order must be finite")
    if np.array_equal(f1.mu, f2.mu) and np.array_equal(f1.cov, f2.cov):
        return 0.0
    if lam == 0.0:
        return _kl(f1, f2)
    if lam == -1.0:
        return _kl(f2, f1)
    mix = (1.0 + lam) * f2.cov - lam * f1.cov
    L = _chol_lower(mix, "(1+lam)*cov2 - lam*cov1")
    d = f1.mu - f2.mu
    z = solve_triangular(L, d, lower=True, check_finite=False)
    quad = float(z @ z)
    log_det_mix = 2.0 * float(np.log(np.diag(L)).sum())
    coef = lam * (lam + 1.0)
    log_expectation = (
        0.5 * coef * quad
        - 0.5 * lam * f1.log_det
        + 0.5 * (lam + 1.0) * f2.log_det
        - 0.5 * log_det_mix
    )
    return math.expm1(log_expectation) / coef


def symmetrized_divergence(f1: GaussianSpec, f2: GaussianSpec, lam: float) -> float:
    """Average of the divergence in both orientations."""
    return 0.5 * (divergence(f1, f2, lam) + divergence(f2, f1, lam))


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
    x = f1.sample(draws, seed)
    log_ratio = f1.log_pdf(x) - f2.log_pdf(x)
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


@dataclass(frozen=True)
class InfluenceRecord:
    """Delete-one diagnostics for one sampled unit."""

    unit_id: object
    delta_k: float
    r_k: float
    v_k: float
    divergence_k: float


def influence(frame: PopulationFrame, lam: float = -0.5) -> list[InfluenceRecord]:
    """Delete-one predictive influence of every sampled unit.

    ``delta_k`` is the shift of the weighted average when unit k is removed;
    ``divergence_k`` compares the full-sample predictive distribution of the
    unsampled values against the one computed without unit k.
    """
    stats = sufficient_stats(frame)
    if stats.n < 2:
        raise DegenerateFrameError("delete-one influence needs at least 2 sampled units")
    full = posterior_predictive(frame)
    a_u = frame.a[~frame.sampled]
    sigma2_u = np.diag(frame.sigma2[~frame.sampled])
    records = []
    for k in range(stats.n):
        h_k = stats.a[k] ** 2 / stats.sigma2[k]
        S_aa_k = stats.S_aa - h_k
        resid = stats.y[k] / stats.a[k] - stats.ybar_w
        delta_k = resid * h_k / S_aa_k
        ybar_w_k = (stats.S_ay - stats.a[k] * stats.y[k] / stats.sigma2[k]) / S_aa_k
        reduced = GaussianSpec(ybar_w_k * a_u, sigma2_u + np.outer(a_u, a_u) / S_aa_k)
        records.append(
            InfluenceRecord(
                unit_id=stats.unit_id[k],
                delta_k=float(delta_k),
                r_k=float(stats.r[k]),
                v_k=float(stats.v[k]),
                divergence_k=divergence(full, reduced, lam),
            )
        )
    return records
