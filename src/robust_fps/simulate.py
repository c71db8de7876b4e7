"""Monte Carlo harness for the clipped estimator under the model and departures.

Each replication realizes the entire population (sampled and unsampled
units) from the working model, optionally perturbs designated sampled units
(mean shift, variance inflation, or outright substitution), and measures the
squared error of the classical and clipped estimators against the realized
finite population mean.  The harness also measures the cross moment of the
residual overflows that the closed-form MSE treats as zero, so the accuracy
of that formula can be quantified rather than assumed.

Replication r draws from a counter-based substream derived from (seed, r),
so results are bit-identical however replications are scheduled.  The unit
of work is a chunk of ``_CHUNK_REPS`` (1024) consecutive replications, and
one thread per CPU this process may run on (at most one per chunk) takes
whole chunks, so a run of at most 1024 replications uses one thread.  The
thread draws a chunk's populations in blocks of about 1 MiB into a block
buffer, all in place (see ``streams`` for the uniform identity that needs no
array of raw words), and reduces each block at once, while it is still in
cache, into its chunk's buffer of per-replication finite flags, squared
errors and cross moments.  The sampled values are copied into a second
buffer, and the spent block buffer is then the reduction's scratch.  Each
row is reduced as ``robust_estimate`` reduces one frame (C-ordered row sums
and one dot product per row), so a replication's values are bit for bit
those of its own frame.  The thread
then reduces the chunk to a count, a mean and a sum of squared deviations
(M2), numpy's two-pass statistics over its finite replications.  Its
buffers are allocated once per ``empirical_risk`` call and reused for every
chunk it takes.  The chunks are merged in order by the pairwise update of
Chan, Golub & LeVeque (Am. Stat. 1983), so neither the block size nor the
thread count can perturb the output; with at most 1024 replications it is
numpy's two-pass mean and standard error.  Philox, ``ndtri`` and the dot
products of the reduction release the GIL.
"""

from __future__ import annotations

import math
import os
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass
from functools import cached_property

import numpy as np

# The result files are written by dataio.  perfbench/stages.py times the writers
# under these names here, and tests/test_trace_hooks.py checks that they are there.
from .dataio import write_result_csv, write_result_json  # noqa: F401
from .errors import ModelValidationError
from .estimators import weighted_overflow
from .frame import FrameTemplate, _scalar
from .risk import _clipping_excess, mse_closed_form
from .streams import SEEDS, _blocks, batch_rep_uniforms

DEFAULT_REPS = 100_000

#: Target size of one block of realized populations (rows x N float64).
_BLOCK_BYTES = 2**20
#: Replications per chunk, reduced to moments at once; part of the output's definition.
_CHUNK_REPS = 1024

#: Each contamination kind but "none": the parameter field it reads besides its
#: target units, the message and range ``frame._scalar`` checks that field with, and
#: ``perturb(y, mean, sd, value)``, the target units' new values from their drawn
#: values, their model means and sds, and the parameter.
CONTAMINATION_KINDS = {
    "shift": ("delta", "shift contamination needs a finite delta", math.isfinite,
              lambda y, mean, sd, delta: y + delta * sd),
    "variance_inflation": ("factor", "variance inflation needs factor > 1", lambda factor: factor > 1,
                           lambda y, mean, sd, factor: mean + math.sqrt(factor) * (y - mean)),
    "substitution": ("value", "substitution needs a finite value", math.isfinite,
                     lambda y, mean, sd, value: value),
}


def _sequence(values, message: str) -> tuple:
    """``tuple(values)`` of an iterable that is not a str or bytes; else ``ModelValidationError(message)``.

    A string would be read as its characters, so ``"12"`` is refused, not read as 1 and 2.
    """
    if isinstance(values, (str, bytes)):
        raise ModelValidationError(message)
    try:
        return tuple(values)
    except TypeError:
        raise ModelValidationError(message) from None


@dataclass(frozen=True)
class Contamination:
    """Departure applied to designated sampled units after generation."""

    kind: str = "none"    # "none" or a key of CONTAMINATION_KINDS
    units: tuple = ()
    delta: float | None = None    # shift, in multiples of each unit's sigma
    factor: float | None = None   # variance inflation, > 1
    value: float | None = None    # substituted observation

    def __post_init__(self):
        message = f"contamination units must be a list of unit ids, not {self.units!r}"
        object.__setattr__(self, "units", _sequence(self.units, message))
        if self.kind == "none":
            if self.units:
                raise ModelValidationError("contamination 'none' takes no units")
            return
        if not isinstance(self.kind, str) or self.kind not in CONTAMINATION_KINDS:
            raise ModelValidationError(f"unknown contamination kind {self.kind!r}")
        if not self.units:
            raise ModelValidationError(f"contamination {self.kind!r} needs target units")
        try:
            repeated = [u for u, count in Counter(self.units).items() if count > 1]
        except TypeError:  # an unhashable id, which no FrameTemplate can hold
            raise ModelValidationError(message) from None
        if repeated:
            raise ModelValidationError(f"contamination names units {repeated} more than once")
        name, message, ok, _ = CONTAMINATION_KINDS[self.kind]
        object.__setattr__(self, name, _scalar(getattr(self, name), message, ok))


@dataclass(frozen=True)
class SimConfig:
    template: FrameTemplate
    theta_true: float
    contamination: Contamination = Contamination()
    c_grid: tuple = (0.0, 1.0, 2.0, 8.0)
    reps: int = DEFAULT_REPS
    seed: int = 0

    def __post_init__(self):
        self.template.require_prediction("simulation")
        theta_true = _scalar(self.theta_true, "theta_true must be finite")
        object.__setattr__(self, "theta_true", theta_true)
        message = "c_grid must be nonempty with finite c >= 0"
        c_grid = tuple(_scalar(c, message, lambda c: c >= 0) for c in _sequence(self.c_grid, message))
        if not c_grid:
            raise ModelValidationError(message)
        object.__setattr__(self, "c_grid", c_grid)
        # reps and seed are held as Python ints, as ModelSpec holds sigma as a float;
        # a float such as 2048.0 or 1.5 is rejected, not truncated.
        if not isinstance(self.reps, (int, np.integer)) or self.reps < 2:
            raise ModelValidationError("reps must be an integer >= 2")
        if not isinstance(self.seed, (int, np.integer)) or int(self.seed) not in SEEDS:
            raise ModelValidationError("seed must fit in a signed 64-bit integer")
        object.__setattr__(self, "reps", int(self.reps))
        object.__setattr__(self, "seed", int(self.seed))
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
    """Perturb designated sampled units in-place on a (reps, N) or (N,) array by the kind's row."""
    cont = config.contamination
    if cont.kind == "none":
        return y
    idx = config.contaminated_index
    name, _, _, perturb = CONTAMINATION_KINDS[cont.kind]
    y[..., idx] = perturb(y[..., idx], config._model_mean[idx], config._model_sd[idx], getattr(cont, name))
    return y


def ndtri(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The standard normal quantile, ``scipy.special.ndtri``, imported on the first call.

    Only simulation draws normals, so estimation never loads scipy.
    """
    import scipy.special

    return scipy.special.ndtri(u, out=out)


def _workers(n_chunks: int) -> int:
    """Threads for ``n_chunks`` chunks: one per CPU this process may use, at most one per chunk."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, n_chunks)


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
    """Replications per block: about ``_BLOCK_BYTES`` of populations, at least 1."""
    return max(1, _BLOCK_BYTES // (8 * n_units))


def _chunk_moments(values: np.ndarray, finite: np.ndarray):
    """``(count, mean, M2)`` of each row of a chunk over its finite replications, or None if none is.

    ``values`` is C-contiguous with a column per replication, and ``finite``
    flags the columns kept.  The mean is numpy's and ``M2`` the sum of
    squared deviations from it, numpy's two-pass variance before its
    division; ``values`` (or its compressed copy) is overwritten.
    """
    kept = values if finite.all() else np.compress(finite, values, axis=1)
    if kept.shape[1] == 0:
        return None
    mean = kept.mean(axis=1)
    kept -= mean[:, None]
    return kept.shape[1], mean, np.square(kept, out=kept).sum(axis=1)


def _merge_moments(moments: list):
    """Chunk moments merged in order by the pairwise update of Chan, Golub & LeVeque (1983).

    Starts from the first chunk with a finite replication, not from zeros:
    ``0 * inf`` would turn a huge but finite M2 into NaN.  Returns
    ``(0, None, None)`` when no chunk has one.
    """
    moments = [m for m in moments if m is not None]
    if not moments:
        return 0, None, None
    count, mean, m2 = moments[0]
    for count_b, mean_b, m2_b in moments[1:]:
        total = count + count_b
        delta = mean_b - mean
        mean = mean + delta * (count_b / total)
        m2 = m2 + m2_b + delta * delta * (count * count_b / total)
        count = total
    return count, mean, m2


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

    Each chunk of ``_CHUNK_REPS`` replications is drawn in blocks of at most
    ``_block_rows(N)`` rows, reduced and turned into its count, mean and M2
    (``_chunk_moments``) by one worker thread; a replication whose
    population is not finite counts as a failure.  The chunks are merged in
    order (``_merge_moments``), so with ``reps <= _CHUNK_REPS`` (one chunk,
    one thread) every mean and standard error is numpy's two-pass one.
    Memory is O(threads * (block * (N + n) + _CHUNK_REPS * len(c_grid)) + chunks * len(c_grid)).
    """
    t = config.template
    wv = t.w * t.v
    wv2 = wv**2
    n_c, n = len(config.c_grid), t.n_sampled
    n_values = 1 + 3 * n_c  # per replication: sq_classical, then sq_theta, sq_pop and cross per c
    sampled_idx = np.flatnonzero(t.sampled)
    step = _block_rows(t.n_units)
    widest = min(step, _CHUNK_REPS, config.reps)
    moments = [None] * -(-config.reps // _CHUNK_REPS)
    local = threading.local()  # each thread's buffers, reused for every chunk it reduces

    def reduce_chunk(k: int) -> None:
        first = k * _CHUNK_REPS
        last = min(first + _CHUNK_REPS, config.reps)
        if not hasattr(local, "buffer"):
            local.buffer, local.ys = np.empty((widest, 4 * _blocks(t.n_units))), np.empty((widest, n))
            local.values, local.finite = np.empty(n_values * _CHUNK_REPS), np.empty(_CHUNK_REPS, dtype=bool)
        values = local.values[: n_values * (last - first)].reshape(n_values, last - first)
        finite = local.finite[: last - first]
        sq_classical = values[0]
        sq_theta, sq_pop, cross = values[1:].reshape(3, n_c, last - first)
        # errstate is per thread.  Squared errors and their sums can overflow
        # on finite draws; a row with a value outside float64 raises below.
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(first, last, step):
                hi = min(lo + step, last)
                at, m = slice(lo - first, hi - first), hi - lo
                Y = _generate_batch(config, lo, m, local.buffer[:m])
                ybar_pop = Y.mean(axis=1)
                # A row holding an inf or a NaN has no finite mean, and a finite
                # row has one unless its sum overflows: only rows without a
                # finite mean are scanned.
                finite[at] = np.isfinite(ybar_pop)
                for row in np.flatnonzero(~finite[at]).tolist():
                    finite[at.start + row] = np.isfinite(Y[row]).all()
                # No (m, n) array is allocated per block: freed block-sized arrays
                # move glibc's mmap and trim thresholds and cost page faults.  Once
                # the sample is taken the block is spent, so its first m * n floats
                # are the scratch (n <= N <= its row width).
                Ys = local.ys[:m]
                np.take(local.buffer[:m], sampled_idx, axis=1, out=Ys, mode="clip")
                scratch = local.buffer.reshape(-1)[: m * n].reshape(m, n)
                sum_ys = Ys.sum(axis=1)
                ybar_w, r = t.residuals(Ys, out=Ys, scratch=scratch)
                sq_classical[at] = (t.fill_in(sum_ys, ybar_w) - ybar_pop) ** 2
                for j, c in enumerate(config.c_grid):
                    T = weighted_overflow(r, c, wv, out=scratch)[0]
                    theta_R = ybar_w - T
                    sq_theta[j, at] = (theta_R - config.theta_true) ** 2
                    sq_pop[j, at] = (t.fill_in(sum_ys, theta_R) - ybar_pop) ** 2
                    cross[j, at] = T**2 - np.vecdot(np.square(scratch, out=scratch), wv2)
            moments[k] = _chunk_moments(values, finite)

    with ThreadPoolExecutor(_workers(len(moments))) as pool:
        list(pool.map(reduce_chunk, range(len(moments))))  # re-raises a worker's exception
    kept, mean, m2 = _merge_moments(moments)
    if kept < 2:
        raise ModelValidationError("fewer than 2 finite replications")

    with np.errstate(over="ignore", invalid="ignore"):
        se = np.sqrt(m2 / (kept - 1)) / math.sqrt(kept)
        emp_theta, emp_pop, cross_mean = mean[1:].reshape(3, n_c)
        se_theta, se_pop, se_cross = se[1:].reshape(3, n_c)
        rows = []
        for j, c in enumerate(config.c_grid):
            report = mse_closed_form(t, c)
            theo_theta = 1.0 / t.S_aa + _clipping_excess(t, report.g_of_c)
            row = SimRow(
                c=float(c),
                emp_mse_theta=float(emp_theta[j]),
                se_theta=float(se_theta[j]),
                emp_mse_pop=float(emp_pop[j]),
                se_pop=float(se_pop[j]),
                theo_mse=report.mse_robust,
                cross_term=float(cross_mean[j]),
                se_cross=float(se_cross[j]),
                classical_mse=float(mean[0]),
                se_classical=float(se[0]),
                theo_mse_theta=theo_theta,
            )
            if not np.isfinite(astuple(row)).all():
                raise ModelValidationError(f"the empirical risk at c = {c!r} overflows float64")
            rows.append(row)
    return SimResult(rows=tuple(rows), reps=config.reps, seed=config.seed, failures=config.reps - kept)
