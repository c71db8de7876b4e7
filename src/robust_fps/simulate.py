"""Monte Carlo harness for the clipped estimator under the model and departures.

Each replication realizes the entire population (sampled and unsampled
units) from the working model, optionally perturbs designated sampled units
(mean shift, variance inflation, or outright substitution), and measures the
squared error of the classical and clipped estimators against the realized
finite population mean.  The harness also measures the cross moment of the
residual overflows that the closed-form MSE treats as zero, so the accuracy
of that formula can be quantified rather than assumed.

Replication r draws from a counter-based substream derived from (seed, r);
results are bit-identical however replications are scheduled.  Replications
run in blocks of about 1 MiB of populations, so memory does not grow with
reps times N.  A block is the unit of work, and the blocks are spread over
one thread per CPU this process may run on (at most one per block).  Each
thread allocates one block buffer per ``empirical_risk`` call, as wide as
the counter blocks of a replication, and draws each of its blocks straight
into it: uniforms, then normals and populations, all in place (see
``streams`` for the uniform identity that needs no array of raw words).
The thread reduces the block at once, while it is still in cache, to its
per-replication finite flags, squared errors and cross moments, and writes
them into reps-long arrays at the block's rows.  Those are reduced once
after the last block, so neither the block size, the thread count nor the
reduction order can perturb the output.  Philox, ``ndtri`` and the BLAS
gemv of the reduction release the GIL.
"""

from __future__ import annotations

import csv
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields
from functools import cached_property
from typing import Literal

import numpy as np

from .errors import ModelValidationError
from .estimators import weighted_overflow
from .frame import FrameTemplate
from .risk import mse_closed_form
from .streams import _blocks, batch_rep_uniforms

DEFAULT_REPS = 100_000

#: Target size of one block of realized populations (rows x N float64).
_BLOCK_BYTES = 2**20

#: The parameter field each contamination kind reads, besides its target units.
CONTAMINATION_PARAMS = {"shift": "delta", "variance_inflation": "factor", "substitution": "value"}


@dataclass(frozen=True)
class Contamination:
    """Departure applied to designated sampled units after generation."""

    kind: Literal["none", "shift", "variance_inflation", "substitution"] = "none"
    units: tuple = ()
    delta: float | None = None    # shift, in multiples of each unit's sigma
    factor: float | None = None   # variance inflation, > 1
    value: float | None = None    # substituted observation

    def __post_init__(self):
        object.__setattr__(self, "units", tuple(self.units))
        if self.kind == "none":
            if self.units:
                raise ModelValidationError("contamination 'none' takes no units")
            return
        if self.kind not in CONTAMINATION_PARAMS:
            raise ModelValidationError(f"unknown contamination kind {self.kind!r}")
        if not self.units:
            raise ModelValidationError(f"contamination {self.kind!r} needs target units")
        if self.kind == "shift" and (self.delta is None or not np.isfinite(self.delta)):
            raise ModelValidationError("shift contamination needs a finite delta")
        if self.kind == "variance_inflation" and (
            self.factor is None or not np.isfinite(self.factor) or self.factor <= 1
        ):
            raise ModelValidationError("variance inflation needs factor > 1")
        if self.kind == "substitution" and (self.value is None or not np.isfinite(self.value)):
            raise ModelValidationError("substitution needs a finite value")


@dataclass(frozen=True)
class SimConfig:
    template: FrameTemplate
    theta_true: float
    contamination: Contamination = Contamination()
    c_grid: tuple = (0.0, 1.0, 2.0, 8.0)
    reps: int = DEFAULT_REPS
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "c_grid", tuple(float(c) for c in self.c_grid))
        self.template.require_prediction("simulation")
        if not np.isfinite(self.theta_true):
            raise ModelValidationError("theta_true must be finite")
        if not self.c_grid or any(c < 0 or not np.isfinite(c) for c in self.c_grid):
            raise ModelValidationError("c_grid must be nonempty with finite c >= 0")
        if int(self.reps) != self.reps or self.reps < 2:
            raise ModelValidationError("reps must be an integer >= 2")
        if not (-(2**63) <= int(self.seed) < 2**64):
            raise ModelValidationError("seed must fit in 64 bits")
        sampled_ids = set(self.template.sampled_ids)
        stray = [u for u in self.contamination.units if u not in sampled_ids]
        if stray:
            raise ModelValidationError(f"contamination targets unsampled/unknown units {stray}")

    @cached_property
    def contaminated_index(self) -> np.ndarray:
        ids = list(self.template.unit_id)
        return np.array([ids.index(u) for u in self.contamination.units], dtype=int)

    @cached_property
    def _model_mean(self) -> np.ndarray:
        # theta_true * a can overflow; such a population is not finite and
        # counts as a failed replication.
        with np.errstate(over="ignore"):
            return self.theta_true * self.template.a

    @cached_property
    def _model_sd(self) -> np.ndarray:
        return np.sqrt(self.template.sigma2)


def _apply_contamination(config: SimConfig, y: np.ndarray) -> np.ndarray:
    """Perturb designated sampled units in-place on a (reps, N) or (N,) array."""
    cont = config.contamination
    if cont.kind == "none":
        return y
    idx = config.contaminated_index
    if cont.kind == "shift":
        y[..., idx] += cont.delta * config._model_sd[idx]
    elif cont.kind == "variance_inflation":
        center = config._model_mean[idx]
        y[..., idx] = center + math.sqrt(cont.factor) * (y[..., idx] - center)
    else:
        y[..., idx] = cont.value
    return y


def ndtri(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The standard normal quantile, ``scipy.special.ndtri``, imported on the first call.

    Only simulation draws normals, so estimation never loads scipy.
    """
    import scipy.special

    return scipy.special.ndtri(u, out=out)


def _workers(n_blocks: int) -> int:
    """Threads for ``n_blocks`` blocks: one per CPU this process may use, at most one per block."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, n_blocks)


def _generate_batch(
    config: SimConfig, first_rep: int = 0, n_reps: int | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """(n_reps, N) realized populations of replications first_rep, first_rep + 1, ...

    By default all ``config.reps`` of them.  Row i uses only replication
    first_rep + i's substream: model draw ``sd * ndtri(u) + mean``, then
    contamination, in place on the uniforms.  ``out``, when given, is the
    buffer ``batch_rep_uniforms`` draws into, and the populations are a view
    of it.  A value outside float64 gives a non-finite population, with no
    warning.
    """
    if n_reps is None:
        n_reps = config.reps - first_rep
    u = batch_rep_uniforms(config.seed, n_reps, config.template.n_units, first_rep, out)
    with np.errstate(over="ignore", invalid="ignore"):
        ndtri(u, out=u)
        u *= config._model_sd
        u += config._model_mean
        return _apply_contamination(config, u)


def _block_rows(n_units: int) -> int:
    """Replications per block: about ``_BLOCK_BYTES`` of populations, a multiple of 8, at least 8.

    A multiple of 8 keeps each row's position mod 4 the same as in one
    (reps, N) matrix, and the BLAS gemv of ``overflow @ wv`` rounds a row
    by that position.
    """
    return max(8, _BLOCK_BYTES // (8 * n_units) // 8 * 8)


def _block_bounds(reps: int, block: int) -> list[tuple[int, int]]:
    """[start, stop) of each block; a lone last replication joins the block before it.

    numpy reduces a (1, n) array along its rows by another path than a
    taller one, which rounds differently.
    """
    edges = list(range(0, reps, block)) + [reps]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return list(zip(edges[:-1], edges[1:]))


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    n = values.shape[0]
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(n))


@dataclass(frozen=True)
class SimRow:
    """Aggregates for one clipping constant."""

    c: float
    emp_mse_theta: float
    se_theta: float
    emp_mse_pop: float
    se_pop: float
    theo_mse: float
    cross_term: float
    se_cross: float
    classical_mse: float
    se_classical: float
    theo_mse_theta: float


#: Columns of the CSV output: every ``SimRow`` field but ``theo_mse_theta`` (JSON only).
CSV_COLUMNS = tuple(f.name for f in fields(SimRow) if f.name != "theo_mse_theta")


@dataclass(frozen=True)
class SimResult:
    rows: tuple
    reps: int
    seed: int
    failures: int = 0


def empirical_risk(config: SimConfig) -> SimResult:
    """Empirical MSE of the clipped and classical estimators over the c grid.

    Squared errors are taken against the realized finite population mean (for
    the population-level rows) and against theta_true (for the location
    rows).  The cross_term column is the empirical value of the pairwise
    overflow moment sum that the closed-form MSE drops.

    Replications run in blocks of ``_block_rows(N)``, each realized in its
    worker thread's one block buffer and reduced there; a replication whose
    population is not finite counts as a failure.  Memory is
    O(threads * block * N + reps * len(c_grid)).
    """
    t = config.template
    wv = t.w * t.v
    wv2 = wv**2
    n_c = len(config.c_grid)
    # Per-replication finite flags and scalars; each block fills its own rows.
    finite = np.empty(config.reps, dtype=bool)
    sq_classical = np.empty(config.reps)
    sq_theta, sq_pop, cross = (np.empty((n_c, config.reps)) for _ in range(3))
    bounds = _block_bounds(config.reps, _block_rows(t.n_units))
    local = threading.local()  # each thread's block buffer, reused for every block it draws

    def reduce_block(block: tuple[int, int]) -> None:
        lo, hi = block
        if not hasattr(local, "buffer"):
            local.buffer = np.empty((max(b - a for a, b in bounds), 4 * _blocks(t.n_units)))
        # errstate is per thread.  Squared errors and their sums can overflow
        # on finite draws; a row with a value outside float64 raises below.
        with np.errstate(over="ignore", invalid="ignore"):
            Y = _generate_batch(config, lo, hi - lo, local.buffer[: hi - lo])
            finite[lo:hi] = np.all(np.isfinite(Y), axis=1)
            Ys = Y[:, t.sampled]
            ybar_w, r = t.residuals(Ys)
            sum_ys = Ys.sum(axis=1)
            ybar_pop = Y.mean(axis=1)
            del Y, Ys
            sq_classical[lo:hi] = (t.fill_in(sum_ys, ybar_w) - ybar_pop) ** 2
            # One (block, n) buffer for every c: fresh temporaries per c would
            # leave freed blocks in the heap under the next allocation peak.
            overflow = np.empty_like(r)
            for j, c in enumerate(config.c_grid):
                T = weighted_overflow(r, c, wv, out=overflow)[0]
                theta_R = ybar_w - T
                sq_theta[j, lo:hi] = (theta_R - config.theta_true) ** 2
                sq_pop[j, lo:hi] = (t.fill_in(sum_ys, theta_R) - ybar_pop) ** 2
                cross[j, lo:hi] = T**2 - np.square(overflow, out=overflow) @ wv2

    with ThreadPoolExecutor(_workers(len(bounds))) as pool:
        list(pool.map(reduce_block, bounds))  # re-raises a worker's exception
    if not finite.all():  # keep the finite replications, in replication order
        sq_classical, sq_theta, sq_pop, cross = (
            x[..., finite] for x in (sq_classical, sq_theta, sq_pop, cross))
    kept = sq_classical.shape[0]
    if kept < 2:
        raise ModelValidationError("fewer than 2 finite replications")

    with np.errstate(over="ignore", invalid="ignore"):
        cls_mean, se_cls = _mean_se(sq_classical)
        rows = []
        for j, c in enumerate(config.c_grid):
            emp_theta, se_theta = _mean_se(sq_theta[j])
            emp_pop, se_pop = _mean_se(sq_pop[j])
            cross_mean, se_cross = _mean_se(cross[j])
            report = mse_closed_form(t, c)
            theo_theta = 1.0 / t.S_aa + t.sum_w2v2 * report.g_of_c
            row = SimRow(
                c=float(c),
                emp_mse_theta=emp_theta,
                se_theta=se_theta,
                emp_mse_pop=emp_pop,
                se_pop=se_pop,
                theo_mse=report.mse_robust,
                cross_term=cross_mean,
                se_cross=se_cross,
                classical_mse=cls_mean,
                se_classical=se_cls,
                theo_mse_theta=theo_theta,
            )
            if not np.isfinite(astuple(row)).all():
                raise ModelValidationError(f"the empirical risk at c = {c!r} overflows float64")
            rows.append(row)
    return SimResult(rows=tuple(rows), reps=config.reps, seed=int(config.seed), failures=config.reps - kept)


def result_to_dict(result: SimResult) -> dict:
    return {
        "reps": result.reps,
        "seed": result.seed,
        "failures": result.failures,
        "rows": [asdict(row) for row in result.rows],
    }


def write_result_json(result: SimResult, path) -> None:
    """Write the result as indented JSON; a non-finite float raises ``ValueError`` first."""
    text = json.dumps(result_to_dict(result), indent=2, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_result_csv(result: SimResult, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in result.rows:
            writer.writerow([repr(getattr(row, col)) for col in CSV_COLUMNS])
