"""Power divergences between multivariate normals, and delete-one influence.

The divergence family of order ``lam`` is

    D_lam(f1, f2) = E_f1[ (f1/f2)^lam - 1 ] / (lam * (lam + 1)),

interpreted at lam = 0 as KL(f1 || f2) and at lam = -1 as KL(f2 || f1).
At lam = -1/2 it equals twice the squared Hellinger distance.  For normal
densities the defining expectation has the closed form

    E_f1[(f1/f2)^lam] = exp( lam*(lam+1)/2 * dmu' S^-1 dmu )
                        * |cov1|^(-lam/2) |cov2|^((lam+1)/2) |S|^(-1/2),

with ``S = (1+lam)*cov2 - lam*cov1`` required positive definite (the same
condition that makes the expectation finite).  ``divergence`` evaluates it
for any pair, with all determinant work in log space via Cholesky factors.
Where the expectation overflows float64 it raises rather than return inf.
This dense path (``GaussianSpec``, ``divergence``) is the only user of
``scipy.linalg`` in the package; it is imported on the first call, so
``influence`` and everything that only estimates never load scipy.

The delete-one influence of each sampled unit k is the divergence between
the predictive normals of the M unsampled values with and without that unit.
Both covariances are ``D_u + a_u a_u'/S`` with ``D_u = diag(sigma2_u)``, for
``S = S_aa`` and ``S = S_aa - h_k`` (``h_k = a_k^2/sigma2_k``), and the means
differ by ``delta_k * a_u``.  After whitening by ``D_u^(-1/2)`` the two
normals agree except along ``D_u^(-1/2) a_u``, so with
``q = sum_u a_j^2/sigma2_j`` the pair reduces exactly (matrix determinant
lemma and Sherman-Morrison) to the scalar normals

    N(m1, v1) and N(m2, v2),  v1 = 1 + q/S_aa,  v2 = 1 + q/(S_aa - h_k),
    (m1 - m2)^2 = q * delta_k^2.

``influence`` evaluates that scalar form for every k at once, relative to
v1: with ``x = (v2 - v1)/v1`` the ``log v1`` terms cancel and

    log E = lam(lam+1)/2 * q delta_k^2 / (v1 (1 + (1+lam) x))
            + (lam+1)/2 * log1p(x) - 1/2 * log1p((1+lam) x),

positive definite exactly when ``1 + (1+lam) x > 0``.  The cost is
O(n + M) instead of two M x M factorisations per unit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceUndefinedError
from .frame import PopulationFrame, _float_array, _scalar

#: Largest ``log E`` whose ``exp`` is finite in float64.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_ATANH_TERMS = 18


def _chol_lower(mat: np.ndarray, name: str) -> np.ndarray:
    from scipy.linalg import cholesky

    try:
        return cholesky(mat, lower=True, check_finite=True)
    except Exception as exc:
        raise DivergenceUndefinedError(f"matrix {name!r} is not positive definite: {exc}") from None


@dataclass(frozen=True)
class GaussianSpec:
    """A multivariate normal given by mean vector and covariance matrix."""

    mu: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        message = "mu or cov has nonfinite entries"
        mu = np.atleast_1d(_float_array(self.mu, message, DivergenceUndefinedError))
        cov = np.atleast_2d(_float_array(self.cov, message, DivergenceUndefinedError))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "cov", cov)
        p = mu.shape[0]
        if mu.ndim != 1 or cov.shape != (p, p):
            raise DivergenceUndefinedError(f"cov shape {cov.shape} does not match mean length {p}")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(cov))):
            raise DivergenceUndefinedError(message)
        scale = np.abs(cov).max()
        if scale > 0 and np.abs(cov - cov.T).max() > 1e-12 * scale:
            raise DivergenceUndefinedError("cov is not symmetric within 1e-12 relative")
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


def _check_dims(f1: GaussianSpec, f2: GaussianSpec):
    if f1.dim != f2.dim:
        raise DivergenceUndefinedError(f"cov1 and cov2 differ in dimension: {f1.dim} vs {f2.dim}")


def _kl(f1: GaussianSpec, f2: GaussianSpec) -> float:
    """KL(f1 || f2) in closed form."""
    from scipy.linalg import solve_triangular

    d = f1.mu - f2.mu
    z = solve_triangular(f2.chol, d, lower=True, check_finite=False)
    maha = float(z @ z)
    w = solve_triangular(f2.chol, f1.chol, lower=True, check_finite=False)
    trace = float((w * w).sum())
    return 0.5 * (trace + maha - f1.dim + f2.log_det - f1.log_det)


def _check_order(lam) -> float:
    return _scalar(lam, f"order lam must be finite, got {lam!r}", error=DivergenceUndefinedError)


def divergence(f1: GaussianSpec, f2: GaussianSpec, lam: float) -> float:
    """Closed-form D_lam(f1, f2); lam 0 and -1 route to the KL limits."""
    _check_dims(f1, f2)
    lam = _check_order(lam)
    if np.array_equal(f1.mu, f2.mu) and np.array_equal(f1.cov, f2.cov):
        return 0.0
    if lam == 0.0:
        return _kl(f1, f2)
    if lam == -1.0:
        return _kl(f2, f1)
    from scipy.linalg import solve_triangular

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
    # Compared first: math.expm1 raises OverflowError past _LOG_FLOAT_MAX.
    value = math.expm1(log_expectation) / coef if log_expectation <= _LOG_FLOAT_MAX else math.inf
    if not math.isfinite(value):
        raise DivergenceUndefinedError(f"D_lam overflows float64 (log E = {log_expectation!r})")
    return value


def symmetrized_divergence(f1: GaussianSpec, f2: GaussianSpec, lam: float) -> float:
    """Average of the divergence in both orientations."""
    return 0.5 * (divergence(f1, f2, lam) + divergence(f2, f1, lam))


def _log1p_minus(z: np.ndarray) -> np.ndarray:
    """``log1p(z) - z`` for z > -1, to a few ulp also where it is O(z^2).

    With ``u = z/(2+z)``, ``log1p(z) = 2 atanh(u)`` and ``z = 2u/(1-u)``, so
    ``log1p(z) - z = 2 (u^3/3 + u^5/5 + ...) - u z`` with no cancellation.  The
    series runs for -1/2 <= z <= 1 (|u| <= 1/3, 18 terms); outside, the direct
    difference loses less than one digit.
    """
    u = z / (2.0 + z)
    u2 = u * u
    series = np.zeros_like(z)
    for k in range(_ATANH_TERMS - 1, -1, -1):
        series = series * u2 + 1.0 / (2 * k + 3)
    small = 2.0 * u * u2 * series - u * z
    return np.where((z >= -0.5) & (z <= 1.0), small, np.log1p(z) - z)


def _require(ok: np.ndarray, unit_ids: tuple, message: str):
    """Raise ``DivergenceUndefinedError`` naming the first unit where ``ok`` fails."""
    if not ok.all():
        k = int(np.argmin(ok))
        raise DivergenceUndefinedError(f"{message} for unit {unit_ids[k]!r}")


def influence(frame: PopulationFrame, lam: float = -0.5) -> list[dict]:
    """Delete-one predictive influence of every sampled unit.

    Returns one dict per sampled unit, in unit order, with the keys
    ``unit_id``, ``delta_k``, ``r_k`` (the standardized residual), ``v_k``
    (its scale ``v``) and ``divergence_k``, in that order, and Python floats
    as values: a report's diagnostics records without the ``flagged`` key
    that ``dataio.build_report`` adds.  ``delta_k`` is the shift of the
    weighted average when unit k is removed; ``divergence_k`` compares the
    full-sample predictive distribution of the unsampled values against the
    one computed without unit k, through the exact scalar reduction in the
    module docstring.  The frame must be predictable
    (``FrameTemplate.require_prediction``, ``DegenerateFrameError``) and its
    fit finite (``PopulationFrame.fit``, ``ModelValidationError``);
    ``DivergenceUndefinedError`` is raised where the mixture is not positive
    definite or a value is not finite, so no NaN or inf is returned.
    """
    frame.require_prediction("delete-one influence")
    lam = _check_order(lam)
    ybar_w, r = frame.fit()
    s, ids = frame.sampled, frame.sampled_ids
    y, h, q, S_aa = frame.y[s], frame.h, frame.q, frame.S_aa
    # Over- and underflow become nonfinite values, which the checks below reject.
    with np.errstate(all="ignore"):
        S_aa_k = S_aa - h
        delta = (y / frame.a[s] - ybar_w) * h / S_aa_k
        v1 = 1.0 + q / S_aa
        x = q / S_aa_k * frame.w / v1
        qd2 = q * delta**2
        finite = np.isfinite(delta) & np.isfinite(x) & np.isfinite(qd2)
        _require(finite & np.isfinite(v1), ids, "the delete-one predictive is not finite")
        if lam == 0.0:
            div = 0.5 * (qd2 / (v1 * (1.0 + x)) + x * x / (1.0 + x) + _log1p_minus(x))
        elif lam == -1.0:
            div = 0.5 * (qd2 / v1 - _log1p_minus(x))
        else:
            coef = lam * (lam + 1.0)
            b = 1.0 + lam
            t = 1.0 + b * x
            _require(t > 0, ids, "matrix '(1+lam)*cov2 - lam*cov1' is not positive definite: "
                     f"1 + (1+lam)*x <= 0 at lam={lam!r}")
            # (lam+1)/2 log1p(x) - 1/2 log1p(b x), with the O(x) terms cancelled exactly.
            log_e = 0.5 * coef * qd2 / (v1 * t) + 0.5 * (b * _log1p_minus(x) - _log1p_minus(b * x))
            _require(log_e <= _LOG_FLOAT_MAX, ids, "D_lam overflows float64")
            div = np.expm1(log_e) / coef
        _require(np.isfinite(div), ids, "D_lam is not finite")
    return [
        {"unit_id": u, "delta_k": d, "r_k": rk, "v_k": vk, "divergence_k": dk}
        for u, d, rk, vk, dk in zip(ids, delta.tolist(), r.tolist(), frame.v.tolist(), div.tolist())
    ]
