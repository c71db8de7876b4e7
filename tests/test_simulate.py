"""Stream determinism, contamination mechanics, and empirical risk agreement."""

import dataclasses
import json
import math
import os
import pathlib
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtri

from robust_fps import (
    Contamination,
    DegenerateFrameError,
    FrameTemplate,
    ModelValidationError,
    RobustConfig,
    SimConfig,
    classical_estimate,
    empirical_risk,
    g_clip,
    robust_estimate,
)
from robust_fps.cli import main
import robust_fps.simulate as sim
from robust_fps.dataio import read_sim_config, result_to_dict, write_result_csv, write_result_json
from robust_fps.risk import mse_closed_form
from robust_fps.simulate import _generate_batch
from robust_fps.streams import SEEDS, _blocks, batch_rep_uniforms

from oracles import (
    batch_uniforms,
    chunked_mean_se,
    covariance_probe,
    mean_se,
    populations,
    raw_words,
    rep_uniforms,
    simulate_once,
    std_normals,
    theta_sq_error_and_cross,
    to_uniform,
    uniforms,
)


def make_template(N=6, n=3, a=None, sigma2=None):
    a = np.ones(N) if a is None else np.asarray(a, dtype=float)
    sigma2 = np.ones(N) if sigma2 is None else np.asarray(sigma2, dtype=float)
    sampled = np.array([True] * n + [False] * (N - n))
    return FrameTemplate(tuple(f"u{i}" for i in range(N)), a, sigma2, sampled)


def make_config(**kwargs):
    defaults = dict(
        template=make_template(),
        theta_true=1.0,
        contamination=Contamination(),
        c_grid=(0.0, 1.0, 8.0),
        reps=20_000,
        seed=12345,
    )
    defaults.update(kwargs)
    return SimConfig(**defaults)


class TestStreams:
    def test_uniforms_open_interval(self):
        u = uniforms(99, 100_000)
        assert u.min() > 0.0 and u.max() < 1.0

    def test_rep_substreams_match_batch(self):
        for n in (3, 4, 7, 20):
            batch = batch_rep_uniforms(777, 50, n)
            for r in (0, 1, 17, 49):
                assert np.array_equal(batch[r], rep_uniforms(777, r, n))

    @pytest.mark.parametrize("n", [1, 3, 4, 5, 1001])
    @pytest.mark.parametrize("first_rep", [0, 5])
    def test_batch_uniforms_bits_with_and_without_out(self, n, first_rep):
        n_reps, width = 7, 4 * -(-n // 4)
        want = batch_uniforms(777, n_reps, n, first_rep)
        assert np.array_equal(batch_rep_uniforms(777, n_reps, n, first_rep).view(np.uint64),
                              want.view(np.uint64))
        # a buffer full of NaN is overwritten; the first n columns are returned
        buf = np.full((n_reps, width), np.nan)
        got = batch_rep_uniforms(777, n_reps, n, first_rep, out=buf)
        assert got.base is buf and np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert not np.isnan(buf).any()
        # the same buffer, reused for other replications
        got = batch_rep_uniforms(777, n_reps, n, first_rep + 3, out=buf)
        assert np.array_equal(got, batch_uniforms(777, n_reps, n, first_rep + 3))
        # a view into a larger array, as a worker's buffer serves a shorter block
        big = np.full((n_reps + 2, width), np.nan)
        got = batch_rep_uniforms(777, n_reps, n, first_rep, out=big[1:-1])
        assert got.base is big and np.array_equal(got, want)
        assert np.isnan(big[[0, -1]]).all()

    def test_uniform_bits_follow_the_formula(self):
        edges = np.array([0, 2**11 - 1, 2**63], dtype=np.uint64)
        words = np.concatenate([raw_words(3, 0, 100_000), edges])
        k = (words >> np.uint64(11)).astype(np.float64)
        want = ((k + 0.5) * 2.0**-53).view(np.uint64)
        # batch_rep_uniforms adds half an ulp to numpy's k * 2**-53: the same bits
        assert np.array_equal((k * 2.0**-53 + 2.0**-54).view(np.uint64), want)
        assert np.array_equal(to_uniform(words).view(np.uint64), want)

    def test_top_words_stay_below_one(self):
        # the 2048 words whose top 53 bits are all ones round up to 2**53 in
        # the formula, so to 1.0; then 2048 words below them
        words = np.uint64(2**64 - 1) - np.arange(4096, dtype=np.uint64)
        k = (words >> np.uint64(11)).astype(np.float64)
        formula = (k[2048:] + 0.5) * 2.0**-53
        u = to_uniform(words)
        # batch_rep_uniforms adds half an ulp to numpy's k * 2**-53, then caps the same way
        assert np.array_equal(np.minimum(k * 2.0**-53 + 2.0**-54, 1.0 - 2.0**-53), u)
        assert (u[:2048] == 1.0 - 2.0**-53).all()
        assert np.array_equal(u[2048:], formula) and formula.max() < 1.0
        assert np.isfinite(ndtri(u)).all()

    def test_distinct_reps_disjoint(self):
        a = rep_uniforms(5, 0, 8)
        b = rep_uniforms(5, 1, 8)
        assert not np.array_equal(a, b)

    def test_determinism(self):
        assert np.array_equal(uniforms(3, 64), uniforms(3, 64))

    def test_seeds_across_the_range_name_distinct_streams(self):
        # numpy rounds a key word of 2**63 or more through float64, so the range stops below it.
        assert (SEEDS.start, SEEDS.stop) == (-(2**63), 2**63)
        seeds = (-1, 0, 2**63 - 1, -(2**63))
        draws = [batch_rep_uniforms(seed, 2, 8) for seed in seeds]
        for i in range(len(seeds)):
            for j in range(i):
                assert not np.array_equal(draws[i], draws[j]), (seeds[i], seeds[j])
        assert np.array_equal(std_normals(3, (16,)), std_normals(3, (16,)))

    def test_normals_moments(self):
        z = std_normals(11, (200_000,))
        assert abs(z.mean()) < 3 / math.sqrt(200_000)
        assert abs(z.std() - 1) < 0.01


class TestSimulateOnce:
    def test_deterministic_and_matches_batch(self):
        config = make_config(reps=50)
        Y = _generate_batch(config)
        for r in (0, 1, 23, 49):
            once = simulate_once(config, r)
            assert np.array_equal(once.y, Y[r])
        again = simulate_once(config, 23)
        assert np.array_equal(again.y, simulate_once(config, 23).y)

    def test_model_mean(self):
        config = make_config(theta_true=0.0, reps=100_000)
        Y = _generate_batch(config)
        se = 1.0 / math.sqrt(config.reps)
        assert abs(Y[:, 0].mean()) <= 3 * se

    def test_substitution_overrides_every_rep(self):
        config = make_config(
            contamination=Contamination("substitution", units=("u2",), value=100.0),
            reps=200,
        )
        Y = _generate_batch(config)
        assert np.all(Y[:, 2] == 100.0)
        assert simulate_once(config, 7).y[2] == 100.0

    def test_variance_inflation(self):
        factor = 9.0
        config = make_config(
            contamination=Contamination("variance_inflation", units=("u0",), factor=factor),
            reps=100_000,
        )
        Y = _generate_batch(config)
        var = Y[:, 0].var(ddof=1)
        se_var = factor * math.sqrt(2.0 / (config.reps - 1))
        assert abs(var - factor) <= 3 * se_var

    def test_shift_in_sigma_units(self):
        config = make_config(
            template=make_template(sigma2=[4.0] * 6),
            contamination=Contamination("shift", units=("u1",), delta=2.0),
            reps=50_000,
        )
        Y = _generate_batch(config)
        # mean = theta * a + delta * sigma = 1 + 2*2
        se = 2.0 / math.sqrt(config.reps)
        assert abs(Y[:, 1].mean() - 5.0) <= 3 * se

    def test_contaminating_unsampled_unit_rejected(self):
        with pytest.raises(ModelValidationError):
            make_config(contamination=Contamination("substitution", units=("u5",), value=1.0))

    def test_repeated_contamination_unit_rejected(self):
        # A repeated unit would be perturbed once: the populations of naming it once.
        for kind, param in (("shift", {"delta": 2.0}), ("substitution", {"value": 1.0})):
            with pytest.raises(ModelValidationError, match=r"\['u1'\] more than once"):
                Contamination(kind, units=("u1", "u2", "u1"), **param)

    def test_reps_below_two_rejected(self):
        with pytest.raises(ModelValidationError):
            make_config(reps=1)

    def test_census_template_rejected(self):
        # Census and single-unit layouts are valid templates; simulation rejects them.
        for n in (4, 1):
            template = make_template(N=4, n=n)
            with pytest.raises(DegenerateFrameError):
                make_config(template=template)

    def test_dominated_precision_rejected(self):
        # S_aa = 1e16 + 1 rounds to 1e16: unit u0's v^2 is 0, so no SimConfig can be built
        with pytest.raises(DegenerateFrameError, match="S_aa - h_k <= 0 for unit 'u0'"):
            make_config(template=make_template(N=3, n=2, a=[1e8, 1, 1]))


def _cpus(monkeypatch, k):
    """Make this process appear to run on k CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)


def _contamination(kind, unit):
    return {
        "none": Contamination(),
        "shift": Contamination("shift", units=(unit,), delta=6.0),
        "variance_inflation": Contamination("variance_inflation", units=(unit,), factor=9.0),
        "substitution": Contamination("substitution", units=(unit,), value=-40.0),
    }[kind]


class TestGeneration:
    """A block of rows from any first replication equals the whole-block formula bit for bit."""

    @pytest.mark.parametrize("kind", ["none", "shift", "variance_inflation", "substitution"])
    @pytest.mark.parametrize("N", [6, 7, 1001])
    @pytest.mark.parametrize("overflow", [False, True], ids=["finite", "overflow"])
    def test_matches_the_whole_block_formula(self, N, kind, overflow):
        rng = np.random.default_rng(N)
        a, sigma2 = rng.uniform(0.5, 2.0, N), rng.uniform(0.5, 2.0, N)
        theta = 1.3
        if overflow:
            # theta_true * a leaves float64 at the sampled u0, where variance
            # inflation gives inf - inf, and at the last (unsampled) unit
            a[[0, -1]], sigma2[[0, -1]], theta = 1e150, 1e300, 1e200
        first_rep, n_reps = 3, sim._block_rows(N) + 5
        config = make_config(
            template=make_template(N=N, n=4, a=a, sigma2=sigma2), theta_true=theta,
            contamination=_contamination(kind, "u0" if overflow else "u1"),
            reps=first_rep + n_reps,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Y = _generate_batch(config, first_rep, n_reps)
        want = populations(config, first_rep, n_reps)
        assert Y.shape == (n_reps, N)
        assert np.array_equal(Y.view(np.uint64), want.view(np.uint64))
        assert overflow == (not np.isfinite(Y).all())


class TestEmpiricalRisk:
    def test_large_c_matches_baseline(self):
        config = make_config(c_grid=(8.0,), reps=40_000)
        res = empirical_risk(config)
        row = res.rows[0]
        from robust_fps import mse_closed_form

        baseline = mse_closed_form(config.template, 8.0).mse_baseline
        assert abs(row.emp_mse_pop - baseline) <= 3 * row.se_pop
        # location level: with nothing clipped the MSE is the variance 1/S_aa
        t = config.template
        S_aa = (t.a[t.sampled] ** 2 / t.sigma2[t.sampled]).sum()
        assert abs(row.emp_mse_theta - 1.0 / S_aa) <= 3 * row.se_theta

    def test_c_zero_identity_and_formula_gap(self):
        config = make_config(c_grid=(0.0,), reps=60_000)
        res = empirical_risk(config)
        row = res.rows[0]
        t = config.template
        s = t.sampled
        prec = t.a[s] ** 2 / t.sigma2[s]
        S_aa = prec.sum()
        w = prec / S_aa
        v2 = t.sigma2[s] / t.a[s] ** 2 - 1.0 / S_aa
        sum_w2v2 = float((w**2 * v2).sum())
        # clipping everything to zero reproduces the weighted mean exactly
        assert abs(row.emp_mse_theta - 1.0 / S_aa) <= 3 * row.se_theta
        # while the closed-form location MSE sits sum(w^2 v^2) higher
        assert row.theo_mse_theta == pytest.approx(1.0 / S_aa + sum_w2v2, rel=1e-12)
        gap = row.theo_mse_theta - row.emp_mse_theta
        assert abs(gap - sum_w2v2) <= 3 * row.se_theta

    def test_cross_term_explains_gap(self):
        # E[(theta_R - theta)^2] = theo_theta + E[cross], so the centered
        # statistic sq_theta - cross - theo_theta has mean zero
        config = make_config(c_grid=(1.0,), reps=60_000)
        res = empirical_risk(config)
        row = res.rows[0]
        sq_theta, cross = theta_sq_error_and_cross(config, 1.0)
        d = sq_theta - cross - row.theo_mse_theta
        se_d = d.std(ddof=1) / math.sqrt(d.shape[0])
        assert abs(d.mean()) <= 3 * se_d

    def test_overflow_second_moment_matches_g(self):
        config = make_config(c_grid=(1.0,), reps=60_000)
        t = config.template
        Y = _generate_batch(config)
        s = t.sampled
        prec = t.a[s] ** 2 / t.sigma2[s]
        S_aa = prec.sum()
        v = np.sqrt(t.sigma2[s] / t.a[s] ** 2 - 1.0 / S_aa)
        ybar_w = Y[:, s] @ (t.a[s] / t.sigma2[s]) / S_aa
        r = (Y[:, s] / t.a[s] - ybar_w[:, None]) / v
        c = 1.0
        overflow = r - np.clip(r, -c, c)
        want = g_clip(c)
        for j in range(r.shape[1]):
            sq = overflow[:, j] ** 2
            se = sq.std(ddof=1) / math.sqrt(sq.shape[0])
            assert abs(sq.mean() - want) <= 3 * se

    def test_substitution_ordering(self):
        # outlier far beyond the residual scale: clipping must win at c = 1
        t = make_template()
        prec = t.a[t.sampled] ** 2 / t.sigma2[t.sampled]
        S_aa = prec.sum()
        v0 = math.sqrt(t.sigma2[0] / t.a[0] ** 2 - 1.0 / S_aa)
        value = 1.0 * t.a[0] + 10.0 * v0 * t.a[0]
        config = make_config(
            contamination=Contamination("substitution", units=("u0",), value=value),
            c_grid=(1.0,),
            reps=30_000,
        )
        res = empirical_risk(config)
        row = res.rows[0]
        assert row.emp_mse_pop < row.classical_mse

    def test_accuracy_profile_shrinks_with_c(self):
        config = make_config(c_grid=(2.0, 3.0, 4.0), reps=50_000)
        res = empirical_risk(config)
        gaps = [abs(r.theo_mse_theta - r.emp_mse_theta) for r in res.rows]
        ses = [r.se_theta for r in res.rows]
        assert gaps[1] <= gaps[0] + 3 * (ses[0] + ses[1])
        assert gaps[2] <= gaps[1] + 3 * (ses[1] + ses[2])

    def test_determinism_bitwise(self):
        config = make_config(reps=5_000)
        r1 = empirical_risk(config)
        r2 = empirical_risk(config)
        assert r1.rows == r2.rows

    def test_nonfinite_replications_counted(self, monkeypatch):
        config = make_config(reps=100)
        real = sim._generate_batch
        poison = {3: (0, np.inf), 11: (2, np.nan)}  # in the first and second block of 8

        def poisoned(cfg, first_rep, n_reps, out=None):
            Y = real(cfg, first_rep, n_reps, out)
            for rep, (unit, value) in poison.items():
                if first_rep <= rep < first_rep + n_reps:
                    Y[rep - first_rep, unit] = value
            return Y

        monkeypatch.setattr(sim, "_block_rows", lambda n_units: 8)
        monkeypatch.setattr(sim, "_generate_batch", poisoned)
        res = sim.empirical_risk(config)
        assert res.failures == 2

    def test_classical_mse_columns(self):
        config = make_config(c_grid=(1.0, 2.0), reps=5_000)
        res = empirical_risk(config)
        assert res.rows[0].classical_mse == res.rows[1].classical_mse


class TestBlocks:
    """Replications run in blocks; the block size must not change a bit of the result."""

    # At 1025 reps the last replication is a chunk of its own, one row at
    # every block size; at 129 it is a block of its own at 1, 8 and 64 rows.
    @pytest.mark.parametrize("config_kw", [
        {"reps": 1024},
        {"reps": 128, "template": make_template(N=60, n=40, a=np.linspace(0.5, 2.0, 60),
                                                sigma2=np.linspace(2.0, 0.5, 60)),
         "contamination": Contamination("shift", units=("u1", "u4"), delta=6.0),
         "c_grid": (0.0, 0.5, 1.0, 2.0)},
    ], ids=["plain", "shift"])
    @pytest.mark.parametrize("extra_rep", [0, 1])
    def test_block_size_does_not_change_the_result(self, monkeypatch, config_kw, extra_rep):
        config = make_config(**dict(config_kw, reps=config_kw["reps"] + extra_rep))
        results = []
        for rows in (1, 7, 8, 13, 64, 2048):
            monkeypatch.setattr(sim, "_block_rows", lambda n_units, rows=rows: rows)
            results.append(empirical_risk(config))
        for res in results[1:]:
            assert (res.rows, res.failures) == (results[0].rows, results[0].failures)

    @pytest.mark.parametrize("c_grid", [(0.5, 1.0, 2.0), (1.0,)], ids=["three_c", "one_c"])
    @pytest.mark.parametrize("rows", [1, 7, 13])
    def test_each_replication_is_reduced_as_robust_estimate_reduces_its_frame(self, monkeypatch, rows, c_grid):
        # 300 reps leave a last block of 6 rows at 7 and of 1 row at 13.
        # n = 150 takes numpy's pairwise sums past their 128-element leaf.
        rng = np.random.default_rng(21)
        N = 200
        template = make_template(N=N, n=150, a=rng.uniform(0.5, 2.0, N), sigma2=rng.uniform(0.5, 2.0, N))
        config = make_config(template=template, contamination=Contamination("shift", units=("u1", "u9"), delta=8.0),
                             c_grid=c_grid, reps=300)
        Y = _generate_batch(config)
        frames = [template.with_y(y[template.sampled]) for y in Y]
        ybar_pop = Y.mean(axis=1)
        sq_classical = np.square([classical_estimate(fr) for fr in frames] - ybar_pop)
        monkeypatch.setattr(sim, "_block_rows", lambda n_units: rows)
        res = empirical_risk(config)
        for row in res.rows:
            ests = [robust_estimate(fr, RobustConfig(c=row.c)) for fr in frames]
            sq_theta = np.square([e.theta_hat_R - config.theta_true for e in ests])
            sq_pop = np.square([e.ybar_P_R for e in ests] - ybar_pop)
            assert np.array_equal(theta_sq_error_and_cross(config, row.c)[0], sq_theta)
            assert row.emp_mse_theta == sq_theta.mean()
            assert row.emp_mse_pop == sq_pop.mean()
            assert row.classical_mse == sq_classical.mean()

    # One chunk of 1000 replications; then two whole chunks and a chunk of 9.
    @pytest.mark.parametrize("reps", [1000, 2 * sim._CHUNK_REPS + 9], ids=["one_chunk", "three_chunks"])
    def test_worker_count_does_not_change_the_result(self, monkeypatch, reps):
        rng = np.random.default_rng(5)
        N = 1000
        template = make_template(N=N, n=100, a=rng.uniform(0.5, 2.0, N), sigma2=rng.uniform(0.5, 2.0, N))
        chunks = -(-reps // sim._CHUNK_REPS)
        config = make_config(template=template, contamination=Contamination("shift", units=("u1",), delta=6.0),
                             c_grid=(0.0, 1.0, 2.0), reps=reps)
        pools = []  # [max_workers, tasks] of each pool started

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append([max_workers, 0])
                super().__init__(max_workers)

            def submit(self, *args, **kwargs):
                pools[-1][1] += 1
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(sim, "ThreadPoolExecutor", Recording)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            for cpus in (1, 2, 3, 4):
                _cpus(monkeypatch, cpus)
                del pools[:]
                results.append(empirical_risk(config))
                # one pool per call, one thread per CPU and at most one per chunk
                assert pools == [[min(cpus, chunks), chunks]]
        finally:
            sys.setswitchinterval(interval)
        for res in results[1:]:
            assert (res.rows, res.failures) == (results[0].rows, results[0].failures)

    def test_failed_replications_in_any_block_on_any_thread_count(self, monkeypatch):
        config = make_config(reps=100, c_grid=(0.5, 1.0))
        real = sim._generate_batch
        poison = {3: (0, np.inf), 50: (2, np.nan), 98: (5, -np.inf)}  # blocks 0-8, 48-56 and 96-100

        def poisoned(cfg, first_rep, n_reps, out=None):
            Y = real(cfg, first_rep, n_reps, out)
            for rep, (unit, value) in poison.items():
                if first_rep <= rep < first_rep + n_reps:
                    Y[rep - first_rep, unit] = value
            return Y

        monkeypatch.setattr(sim, "_block_rows", lambda n_units: 8)
        monkeypatch.setattr(sim, "_generate_batch", poisoned)
        results = []
        for cpus in (1, 2, 3):
            _cpus(monkeypatch, cpus)
            results.append(empirical_risk(config))
        assert results[0].failures == 3
        for res in results[1:]:
            assert (res.rows, res.failures) == (results[0].rows, results[0].failures)
        # the finite replications, in order, are what the means are taken over
        keep = np.ones(config.reps, dtype=bool)
        keep[list(poison)] = False
        for row in results[0].rows:
            sq_theta = theta_sq_error_and_cross(config, row.c)[0][keep]
            assert (row.emp_mse_theta, row.se_theta) == mean_se(sq_theta)

    @pytest.mark.parametrize("N", [7, 1001])
    def test_reused_block_buffers_leak_nothing_between_blocks(self, monkeypatch, N):
        # Blocks of 8, 8 and 9 rows: a thread draws each of its blocks into
        # one buffer, whose rows are padded to whole Philox counter blocks at
        # these N.  The poison written into one block must not reach another.
        rng = np.random.default_rng(N)
        template = make_template(N=N, n=5, a=rng.uniform(0.5, 2.0, N), sigma2=rng.uniform(0.5, 2.0, N))
        config = make_config(template=template, contamination=Contamination("shift", units=("u1",), delta=6.0),
                             c_grid=(0.5, 1.0, 2.0), reps=2 * 8 + 9)
        real = sim._generate_batch
        poison = {7: (0, np.nan), 8: (N - 1, np.inf), 24: (3, -np.inf)}  # one in each block

        def poisoned(cfg, first_rep, n_reps, out=None):
            Y = real(cfg, first_rep, n_reps, out)
            for rep, (unit, value) in poison.items():
                if first_rep <= rep < first_rep + n_reps:
                    Y[rep - first_rep, unit] = value
            return Y

        monkeypatch.setattr(sim, "_block_rows", lambda n_units: 8)
        monkeypatch.setattr(sim, "_generate_batch", poisoned)
        results = []
        for cpus in (1, 2, 3, 4):
            _cpus(monkeypatch, cpus)
            results.append(empirical_risk(config))
        assert results[0].failures == 3
        for res in results[1:]:
            assert (res.rows, res.failures) == (results[0].rows, results[0].failures)
        keep = np.ones(config.reps, dtype=bool)
        keep[list(poison)] = False
        for row in results[0].rows:
            sq_theta, cross = theta_sq_error_and_cross(config, row.c)
            assert (row.emp_mse_theta, row.se_theta) == mean_se(sq_theta[keep])
            assert (row.cross_term, row.se_cross) == mean_se(cross[keep])

    @pytest.mark.parametrize("rows", [8, 64, 2048])
    def test_chunks_match_the_chunked_oracle(self, monkeypatch, rows):
        # Three chunks of 1024, 1024 and 9 replications, with failed ones in
        # the first and the last; blocks of 2048 rows stop at each chunk.
        rng = np.random.default_rng(rows)
        N = 7
        template = make_template(N=N, n=4, a=rng.uniform(0.5, 2.0, N), sigma2=rng.uniform(0.5, 2.0, N))
        config = make_config(template=template, contamination=Contamination("shift", units=("u1",), delta=6.0),
                             c_grid=(0.5, 1.0, 2.0), reps=2 * sim._CHUNK_REPS + 9)
        real = sim._generate_batch
        poison = {5: (0, np.nan), 700: (N - 1, np.inf), 2050: (3, -np.inf)}

        def poisoned(cfg, first_rep, n_reps, out=None):
            Y = real(cfg, first_rep, n_reps, out)
            for rep, (unit, value) in poison.items():
                if first_rep <= rep < first_rep + n_reps:
                    Y[rep - first_rep, unit] = value
            return Y

        monkeypatch.setattr(sim, "_block_rows", lambda n_units: rows)
        monkeypatch.setattr(sim, "_generate_batch", poisoned)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 2, 3, 4):
                _cpus(monkeypatch, cpus)
                results.append(empirical_risk(config))
        finally:
            sys.setswitchinterval(interval)
        assert results[0].failures == 3
        for res in results[1:]:
            assert (res.rows, res.failures) == (results[0].rows, results[0].failures)
        keep = np.ones(config.reps, dtype=bool)
        keep[list(poison)] = False
        for row in results[0].rows:
            sq_theta, cross = theta_sq_error_and_cross(config, row.c)
            assert (row.emp_mse_theta, row.se_theta) == chunked_mean_se(sq_theta, keep, sim._CHUNK_REPS)
            assert (row.cross_term, row.se_cross) == chunked_mean_se(cross, keep, sim._CHUNK_REPS)

    def test_merged_moments_match_an_exact_two_pass(self):
        # three chunks whose means differ, so the merge's delta term counts
        rng = np.random.default_rng(9)
        chunks = [rng.chisquare(1, 1024) * 1e-3, rng.chisquare(1, 1024) * 1e-3 + 0.01,
                  rng.chisquare(1, 500) * 1e-3 + 0.002]
        moments = [sim._chunk_moments(x.reshape(1, -1).copy(), np.ones(x.size, dtype=bool)) for x in chunks]
        n, mean, m2 = sim._merge_moments(moments)
        se = math.sqrt(m2[0] / (n - 1)) / math.sqrt(n)
        exact = [Fraction(float(x)) for x in np.concatenate(chunks)]
        exact_mean = sum(exact) / len(exact)
        exact_m2 = sum((x - exact_mean) ** 2 for x in exact)
        exact_se = math.sqrt(exact_m2 / (len(exact) - 1) / len(exact))
        assert n == len(exact)
        assert abs(mean[0] - float(exact_mean)) <= 1e-14 * float(exact_mean)
        assert abs(se - exact_se) <= 1e-14 * exact_se

    def test_worker_exception_propagates(self, monkeypatch):
        real = sim._generate_batch

        def failing(cfg, first_rep, n_reps, out=None):
            if first_rep == 16:
                raise RuntimeError("block at 16 failed")
            return real(cfg, first_rep, n_reps, out)

        monkeypatch.setattr(sim, "_block_rows", lambda n_units: 8)
        monkeypatch.setattr(sim, "_generate_batch", failing)
        _cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="block at 16 failed"):
            empirical_risk(make_config(reps=40))

    def test_peak_memory_bounded(self, monkeypatch):
        # each thread holds one block buffer of about 1 MiB, so fix the thread count
        _cpus(monkeypatch, 2)
        rng = np.random.default_rng(3)
        N, n = 1000, 100
        template = make_template(N=N, n=n, a=rng.uniform(0.5, 2.0, N), sigma2=rng.uniform(0.5, 2.0, N))
        config = make_config(template=template, c_grid=(0.0, 1.0, 2.0, 8.0), reps=20_000)
        tracemalloc.start()
        try:
            empirical_risk(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (reps, N) float64 matrix alone is 153 MiB; each thread holds one
        # block buffer of 1 MiB, which is also the reduction's scratch, one
        # (block, n) buffer of the sample, its reduction's temporaries and one
        # chunk's values
        assert peak <= 4 * 2**20

    @pytest.mark.parametrize("n_c, growth_counts_moments", [(16, False), (200, True)], ids=["16", "200"])
    def test_peak_memory_does_not_grow_with_reps(self, monkeypatch, n_c, growth_counts_moments):
        # Each thread holds its block buffer, the block's sample and one chunk's
        # values and finite flags; past those, only the moments of each
        # 1024-replication chunk outlive it.  4 times the reps add a few hundred
        # bytes per chunk and c, where keeping 3 values per replication and c
        # would add 1.37 MiB per c.  At 16 c the 59 more chunks' moments (45 KiB)
        # fit in the flat 0.5 MiB; at 200 c (0.54 MiB) they are allowed on top.
        threads, N, n = 2, 200, 150
        _cpus(monkeypatch, threads)
        rng = np.random.default_rng(4)
        template = make_template(N=N, n=n, a=rng.uniform(0.5, 2.0, N), sigma2=rng.uniform(0.5, 2.0, N))
        rows, n_values = min(sim._block_rows(N), sim._CHUNK_REPS), 1 + 3 * n_c
        held = threads * (8 * rows * (4 * _blocks(N) + n) + (8 * n_values + 1) * sim._CHUNK_REPS)
        # each block's per-row statistics, numpy's ufunc buffers and the pool
        slack = threads * 2**19
        peaks, moments = [], []
        for reps in (20_000, 80_000):
            config = make_config(template=template, c_grid=tuple(np.linspace(0.0, 3.0, n_c)), reps=reps)
            moments.append(-(-reps // sim._CHUNK_REPS) * 2 * 8 * n_values)  # a mean and an M2 per chunk
            tracemalloc.start()
            try:
                empirical_risk(config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert peaks[-1] <= held + moments[-1] + slack
        assert peaks[1] - peaks[0] < 0.5 * 2**20 + (moments[1] - moments[0] if growth_counts_moments else 0)


class TestCovarianceProbe:
    def test_two_unit_residuals_are_exact_negatives(self):
        config = make_config(template=make_template(N=3, n=2), reps=2_000)
        t = config.template
        Y = _generate_batch(config)
        s = t.sampled
        prec = t.a[s] ** 2 / t.sigma2[s]
        S_aa = prec.sum()
        v = np.sqrt(t.sigma2[s] / t.a[s] ** 2 - 1.0 / S_aa)
        ybar_w = Y[:, s] @ (t.a[s] / t.sigma2[s]) / S_aa
        r = (Y[:, s] / t.a[s] - ybar_w[:, None]) / v
        assert np.allclose(r[:, 0], -r[:, 1], atol=1e-12)
        probe = covariance_probe(config)
        assert probe.corr_analytic[0, 1] == pytest.approx(-1.0)
        assert probe.corr_empirical[0, 1] == pytest.approx(-1.0, abs=1e-10)

    def test_three_unit_symmetric_correlation(self):
        config = make_config(template=make_template(N=4, n=3), reps=60_000)
        probe = covariance_probe(config)
        # S_aa = 3, v^2 = 2/3 -> corr = -(1/3)/(2/3) = -1/2
        assert probe.corr_analytic[0, 1] == pytest.approx(-0.5)
        for i in range(3):
            for k in range(i + 1, 3):
                diff = abs(probe.corr_empirical[i, k] - probe.corr_analytic[i, k])
                assert diff <= 3 * probe.corr_se[i, k] + 1e-3

    def test_residuals_uncorrelated_with_weighted_mean(self):
        config = make_config(
            template=make_template(N=7, n=4, a=[1, 2, 0.5, 1.5, 1, 1, 1],
                                   sigma2=[1, 0.5, 2, 1, 1, 1, 1]),
            reps=60_000,
        )
        probe = covariance_probe(config)
        for cov, se in zip(probe.cov_resid_ybar, probe.cov_resid_ybar_se):
            assert abs(cov) <= 3 * se


class TestWriters:
    def test_csv_columns_and_determinism(self, tmp_path):
        config = make_config(reps=2_000)
        res = empirical_risk(config)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_result_csv(res, p1)
        write_result_csv(empirical_risk(config), p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == (
            "c,emp_mse_theta,se_theta,emp_mse_pop,se_pop,theo_mse,"
            "cross_term,se_cross,classical_mse,se_classical"
        )

    def test_json_round_trip(self, tmp_path):
        config = make_config(reps=2_000)
        res = empirical_risk(config)
        path = tmp_path / "out.json"
        write_result_json(res, path)
        doc = json.loads(path.read_text())
        assert doc["reps"] == 2_000
        assert doc["seed"] == 12345
        assert doc["rows"][0]["c"] == 0.0
        assert doc["rows"][0]["emp_mse_theta"] == res.rows[0].emp_mse_theta
        assert path.read_text(encoding="utf-8") == json.dumps(
            result_to_dict(res), indent=2, allow_nan=False) + "\n"

    def test_json_with_a_nan_raises_and_leaves_no_file(self, tmp_path):
        res = empirical_risk(make_config(reps=100))
        bad = dataclasses.replace(res, rows=(dataclasses.replace(res.rows[0], se_cross=math.nan),))
        path = tmp_path / "out.json"
        with pytest.raises(ValueError):
            write_result_json(bad, path)
        assert not path.exists()

    def test_simulate_re_exports_the_dataio_writers(self):
        assert sim.write_result_json is write_result_json
        assert sim.write_result_csv is write_result_csv


@pytest.mark.parametrize("name", ["sim_clean.json", "sim_shift.json"])
def test_the_two_theory_columns_are_one_model(name):
    """``theo_mse`` is the closed form, and ``theo_mse_theta`` composes to it."""
    config = read_sim_config(pathlib.Path(__file__).parent / "data" / "golden" / name)
    t = config.template
    for row in empirical_risk(config).rows:
        assert row.theo_mse == mse_closed_form(t, row.c).mse_robust
        composed = (t.sum_u_sigma2 + t.sum_u_a**2 * row.theo_mse_theta) / t.n_units**2
        assert abs(composed - row.theo_mse) <= 1e-14 * row.theo_mse


_SEED_RANGE = "seed must fit in a signed 64-bit integer"

#: The CLI form of ``make_config(reps=100, seed=1)``.
_CLI_CONFIG = {
    "frame": {"unit_id": [f"u{i}" for i in range(6)], "a": [1] * 6, "sigma2": [1] * 6,
              "sampled": [True] * 3 + [False] * 3},
    "theta_true": 1.0, "c_grid": [0.0, 1.0, 8.0], "reps": 100, "seed": 1,
}


@pytest.mark.parametrize("build, message, overrides", [
    (lambda: Contamination(kind="none", units=("u0",)), "contamination 'none' takes no units",
     None),
    (lambda: Contamination(kind="drift", units=("u0",)), "unknown contamination kind 'drift'",
     None),
    (lambda: Contamination(kind=["shift"], units=("u0",), delta=1.0),
     "unknown contamination kind ['shift']", None),
    (lambda: Contamination(kind={}), "unknown contamination kind {}", None),
    (lambda: Contamination(kind="shift", delta=1.0), "contamination 'shift' needs target units",
     {"contamination": {"kind": "shift", "units": [], "delta": 1.0}}),
    (lambda: Contamination(kind="shift", units=("u0",)), "shift contamination needs a finite delta",
     None),
    (lambda: Contamination(kind="shift", units=("u0",), delta=math.nan),
     "shift contamination needs a finite delta",
     {"contamination": {"kind": "shift", "units": ["u0"], "delta": math.nan}}),
    (lambda: Contamination(kind="variance_inflation", units=("u0",), factor=1.0),
     "variance inflation needs factor > 1",
     {"contamination": {"kind": "variance_inflation", "units": ["u0"], "factor": 1.0}}),
    (lambda: Contamination(kind="substitution", units=("u0",), value=math.inf),
     "substitution needs a finite value",
     {"contamination": {"kind": "substitution", "units": ["u0"], "value": math.inf}}),
    (lambda: make_config(theta_true=math.nan), "theta_true must be finite",
     {"theta_true": math.nan}),
    (lambda: make_config(c_grid=()), "c_grid must be nonempty with finite c >= 0",
     {"c_grid": []}),
    (lambda: make_config(c_grid=(1.0, -0.5)), "c_grid must be nonempty with finite c >= 0",
     {"c_grid": [1.0, -0.5]}),
    # The config schema takes only arrays for units and c_grid, and string or integer
    # ids, so these have no CLI form.
    (lambda: Contamination(units=5), "contamination units must be a list of unit ids, not 5", None),
    (lambda: Contamination("shift", units=(["a"],), delta=1.0),
     "contamination units must be a list of unit ids, not (['a'],)", None),
    (lambda: Contamination("shift", units="ab", delta=1.0),
     "contamination units must be a list of unit ids, not 'ab'", None),
    (lambda: Contamination("shift", units=b"u0", delta=1.0),
     "contamination units must be a list of unit ids, not b'u0'", None),
    (lambda: make_config(c_grid=5), "c_grid must be nonempty with finite c >= 0", None),
    (lambda: make_config(c_grid="12"), "c_grid must be nonempty with finite c >= 0", None),
    (lambda: make_config(seed=2**64), _SEED_RANGE, {"seed": 2**64}),
    (lambda: make_config(seed=-(2**63) - 1), _SEED_RANGE, {"seed": -(2**63) - 1}),
    (lambda: make_config(seed=2**63), _SEED_RANGE, {"seed": 2**63}),
    (lambda: make_config(seed=2**64 - 1), _SEED_RANGE, {"seed": 2**64 - 1}),
    # The config schema takes only JSON integers for reps and seed, so these have no CLI form.
    (lambda: make_config(reps=2048.0), "reps must be an integer >= 2", None),
    (lambda: make_config(seed=1.5), _SEED_RANGE, None),
    (lambda: make_config(seed=1.0), _SEED_RANGE, None),
    # A bool is no integer, as in the config schema: seed=True would run seed 1.
    (lambda: make_config(seed=True), _SEED_RANGE, None),
    (lambda: make_config(seed=False), _SEED_RANGE, None),
    (lambda: make_config(reps=True), "reps must be an integer >= 2", None),
    # A parameter field the kind does not read; the config schema refuses it with exit 2.
    (lambda: Contamination("none", delta=5.0, value="x"),
     "contamination 'none' does not read field(s) ['delta', 'value']", None),
    (lambda: Contamination("shift", units=("u0",), delta=1.0, factor=2.0),
     "contamination 'shift' does not read field(s) ['factor']", None),
], ids=["units_on_none", "unknown_kind", "list_kind", "dict_kind", "no_units", "no_delta",
        "nan_delta", "factor_one", "infinite_value", "nan_theta", "empty_grid", "negative_c",
        "int_units", "unhashable_unit", "str_units", "bytes_units", "int_grid", "str_grid",
        "seed_too_large", "seed_too_small", "seed_2_63", "seed_2_64_minus_1", "float_reps",
        "fractional_seed", "float_seed", "true_seed", "false_seed", "true_reps",
        "param_on_none", "other_kinds_param"])
def test_invalid_simulation_inputs_exit_3(build, message, overrides, tmp_path, capsys):
    # The config schema rejects a units field on "none" and an unknown kind first, with exit 2.
    with pytest.raises(ModelValidationError) as info:
        build()
    assert str(info.value) == message
    if overrides is None:
        return
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**_CLI_CONFIG, **overrides}))
    assert main(["simulate", "--config", str(cfg), "--out-prefix", str(tmp_path / "s")]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.glob("s.*")) == []


def test_numpy_integer_reps_and_seed_are_held_as_python_ints(tmp_path):
    config = make_config(reps=np.int64(50), seed=np.uint64(3))
    assert (type(config.reps), type(config.seed)) == (int, int)
    result = empirical_risk(config)
    assert (type(result.reps), type(result.seed)) == (int, int)
    write_result_json(result, tmp_path / "out.json")
    assert json.loads((tmp_path / "out.json").read_text())["reps"] == 50
    assert result == empirical_risk(make_config(reps=50, seed=3))


@pytest.mark.parametrize("seed", [2**63, 2**64 - 1, -(2**63) - 1])
def test_seed_flag_outside_the_signed_64_bit_range_exit_3(seed, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_CLI_CONFIG))
    argv = ["simulate", "--config", str(cfg), "--out-prefix", str(tmp_path / "s"), f"--seed={seed}"]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {_SEED_RANGE}\n"
    assert list(tmp_path.glob("s.*")) == []
