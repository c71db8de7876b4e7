"""Independent oracles and probes the tests check the library against.

None of this is package API: the Monte Carlo divergence, the dense
posterior predictive, the single-replication streams and population, and the
residual covariance probe exist to check closed forms and schedules; the
``csv.DictReader`` frame reader is the reference for the streaming one,
``clipped_theta`` for the estimator's clipping pass, the raw Philox words
and their written-out uniform formula (``raw_words``, ``to_uniform``) for
``batch_rep_uniforms``, ``populations`` for the harness's in-place,
threaded generation, and ``mean_se`` and ``chunked_mean_se`` for its
statistics.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox
from scipy.linalg import solve_triangular
from scipy.special import ndtri

from robust_fps import DegenerateFrameError, GaussianSpec, ModelValidationError, PopulationFrame
from robust_fps.dataio import CsvFormatError, _parse_cell
from robust_fps.divergence import _check_dims
from robust_fps.frame import FAMILIES, ModelSpec, build_model
from robust_fps.simulate import SimConfig, _generate_batch
from robust_fps.streams import _blocks

LOG_2PI = math.log(2.0 * math.pi)


# --- streams ---------------------------------------------------------------

def raw_words(seed: int, start_block: int, n_words: int) -> np.ndarray:
    """``n_words`` raw Philox words of the stream keyed by ``seed``, from counter block ``start_block``."""
    bg = Philox(key=[int(seed), 0], counter=[int(start_block), 0, 0, 0])
    return np.asarray(bg.random_raw(n_words), dtype=np.uint64)


def to_uniform(words: np.ndarray) -> np.ndarray:
    """The written-out word formula: ``(k + 0.5) * 2**-53`` with ``k = word >> 11``, capped below 1.

    Consumes its input: ``words`` is shifted in place.
    """
    # The shifted words are below 2**53, so they convert to float64 exactly,
    # and the power-of-two scale is exact too.  A word whose top 53 bits are
    # all ones rounds up to 2**53 (ties to even), so to 1.0, where ndtri
    # gives inf; the cap moves it to the largest float64 below 1.
    words >>= np.uint64(11)
    u = words + 0.5
    u *= 2.0**-53
    return np.minimum(u, 1.0 - 2.0**-53, out=u)


def uniforms(seed: int, n: int) -> np.ndarray:
    """n uniforms in (0, 1) from the stream keyed by ``seed``."""
    return to_uniform(raw_words(seed, 0, n))


def rep_uniforms(seed: int, rep: int, n: int) -> np.ndarray:
    """Replication substream: n uniforms from blocks owned by replication ``rep``."""
    return to_uniform(raw_words(seed, rep * _blocks(n), n))


def batch_uniforms(seed: int, n_reps: int, n: int, first_rep: int = 0) -> np.ndarray:
    """(n_reps, n) uniforms by the word formula; row i from the blocks replication first_rep + i owns."""
    per_rep = 4 * _blocks(n)
    words = raw_words(seed, first_rep * per_rep // 4, n_reps * per_rep).reshape(n_reps, per_rep)
    return to_uniform(words[:, :n])


def std_normals(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normals via inverse-CDF transform of the uniform stream."""
    return ndtri(uniforms(seed, int(np.prod(shape)))).reshape(shape)


# --- frame CSV ---------------------------------------------------------------

def read_frame_csv_dictreader(path, family: str, sigma: float = 1.0) -> PopulationFrame:
    """``dataio.read_frame_csv`` through ``csv.DictReader``, one dict per row."""
    spec = ModelSpec(family, sigma=sigma)
    columns = FAMILIES[family][0]
    needed = ("unit_id",) + columns + ("y",)

    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise CsvFormatError("row 1: missing header row")
        missing = [c for c in needed if c not in reader.fieldnames]
        if missing:
            raise CsvFormatError(f"row 1: header lacks column(s) {missing}")

        unit_id: list[str] = []
        seen: set[str] = set()
        aux: dict[str, list[float]] = {c: [] for c in columns}
        sampled: list[bool] = []
        y_sampled: list[float] = []
        for row_num, row in enumerate(reader, start=2):
            if any(row.get(c) is None for c in needed):
                raise CsvFormatError(f"row {row_num}: fewer cells than header columns")
            uid = row["unit_id"].strip()
            if not uid:
                raise CsvFormatError(f"row {row_num}, column 'unit_id': empty")
            if uid in seen:
                raise CsvFormatError(f"row {row_num}, column 'unit_id': duplicate {uid!r}")
            seen.add(uid)
            unit_id.append(uid)
            for c in columns:
                aux[c].append(_parse_cell(row[c].strip(), row_num, c))
            y_raw = row["y"].strip()
            if y_raw == "" or y_raw.upper() == "NA":
                sampled.append(False)
            else:
                sampled.append(True)
                y_sampled.append(_parse_cell(y_raw, row_num, "y"))

    if not unit_id:
        raise CsvFormatError("row 2: no data rows")
    return build_model(unit_id, spec, sampled=sampled, y_sampled=y_sampled, **aux)


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


# --- estimator ---------------------------------------------------------------

def clipped_theta(frame: PopulationFrame, c: float, scaling: str) -> tuple[float, tuple]:
    """The one-step clip written out: ``theta_R`` and the ids of the units with ``|resid| > c``.

    ``theta_R = float(ybar_w) - float(w_scale @ (resid - np.clip(resid, -c, c)))``,
    with ``w_scale = w * scale`` and the residuals standardized by the scale,
    ``v`` (``paper_v``) or ``sigma / a`` (``chambers_sigma``).
    """
    ybar_w, resid = frame.fit()
    scale = frame.v
    if scaling == "chambers_sigma":
        s = frame.sampled
        scale = np.sqrt(frame.sigma2[s]) / frame.a[s]
        resid = (frame.y[s] / frame.a[s] - ybar_w) / scale
    w_scale = frame.w * scale
    theta = float(ybar_w) - float(w_scale @ (resid - np.clip(resid, -c, c)))
    return theta, tuple(u for u, out in zip(frame.sampled_ids, np.abs(resid) > c) if out)


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
    return SimulatedPopulation(config, rep_index, populations(config, rep_index, 1)[0])


def populations(config: SimConfig, first_rep: int, n_reps: int) -> np.ndarray:
    """(n_reps, N) populations as one whole-block expression: model draw, then contamination.

    Each kind is written out here, not read from the library: a target unit
    with model mean ``m``, sd ``s`` and drawn value ``y`` becomes ``y + delta*s``
    (shift), ``m + sqrt(factor)*(y - m)`` (variance inflation) or ``value``
    (substitution).
    """
    u = batch_uniforms(config.seed, n_reps, config.template.n_units, first_rep)
    cont, ids = config.contamination, list(config.template.unit_id)
    idx = [ids.index(unit) for unit in cont.units]
    with np.errstate(over="ignore", invalid="ignore"):
        y = config._model_mean + config._model_sd * ndtri(u)
        m, s = config._model_mean[idx], config._model_sd[idx]
        if cont.kind == "shift":
            y[:, idx] = y[:, idx] + cont.delta * s
        elif cont.kind == "variance_inflation":
            y[:, idx] = m + math.sqrt(cont.factor) * (y[:, idx] - m)
        elif cont.kind == "substitution":
            y[:, idx] = cont.value
    return y


def mean_se(values: np.ndarray) -> tuple[float, float]:
    """numpy's two-pass mean and standard error ``std(ddof=1) / sqrt(n)`` of a 1-D array."""
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.shape[0]))


def chunked_mean_se(values: np.ndarray, keep: np.ndarray, chunk: int) -> tuple[float, float]:
    """Mean and standard error of ``values[keep]`` from per-chunk moments, written out.

    Each run of ``chunk`` consecutive replications gives the count, numpy's
    mean and the sum of squared deviations ``M2`` of its kept values; the
    chunks are merged in order by the pairwise update of Chan, Golub &
    LeVeque (1983), starting from the first chunk that keeps a value.
    """
    merged = None
    for lo in range(0, values.shape[0], chunk):
        x = values[lo : lo + chunk][keep[lo : lo + chunk]]
        if x.size == 0:
            continue
        mean = x.mean()
        m2 = np.square(x - mean).sum()
        if merged is None:
            merged = x.size, mean, m2
            continue
        n_a, mean_a, m2_a = merged
        total = n_a + x.size
        delta = mean - mean_a
        merged = (total, mean_a + delta * (x.size / total),
                  m2_a + m2 + delta * delta * (n_a * x.size / total))
    n, mean, m2 = merged
    return float(mean), float(math.sqrt(m2 / (n - 1)) / math.sqrt(n))


def theta_sq_error_and_cross(config: SimConfig, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-replication ``(theta_R - theta)^2`` and pairwise overflow moment at ``c``.

    The cross moment is ``T^2 - sum_s (w v psi~(r))^2`` with ``T = sum_s w v psi~(r)``,
    the weighted overflow; its mean is what the closed-form MSE drops.  The
    sampled values are copied C-ordered and each row is reduced by its own
    dot product, as ``robust_estimate`` reduces one frame.
    """
    t = config.template
    ybar_w, r = t.residuals(np.ascontiguousarray(_generate_batch(config)[:, t.sampled]))
    wv = t.w * t.v
    overflow = r - np.clip(r, -c, c)
    T = np.vecdot(overflow, wv)
    return (ybar_w - T - config.theta_true) ** 2, T**2 - np.vecdot(overflow**2, wv**2)


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
