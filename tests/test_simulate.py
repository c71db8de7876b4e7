"""Stream determinism, contamination mechanics, and empirical risk agreement."""

import math

import numpy as np
import pytest

from robust_fps import (
    Contamination,
    DegenerateFrameError,
    FrameTemplate,
    ModelValidationError,
    SimConfig,
    empirical_risk,
    g_clip,
)
from robust_fps.simulate import _generate_batch, write_result_csv, write_result_json
from robust_fps.streams import batch_rep_uniforms

from oracles import (
    covariance_probe,
    rep_uniforms,
    simulate_once,
    std_normals,
    theta_sq_error_and_cross,
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

    def test_distinct_reps_disjoint(self):
        a = rep_uniforms(5, 0, 8)
        b = rep_uniforms(5, 1, 8)
        assert not np.array_equal(a, b)

    def test_determinism(self):
        assert np.array_equal(uniforms(3, 64), uniforms(3, 64))
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
        import robust_fps.simulate as sim

        config = make_config(reps=100)
        real = _generate_batch(config)

        def poisoned(cfg):
            Y = real.copy()
            Y[3, 0] = np.inf
            Y[7, 2] = np.nan
            return Y

        monkeypatch.setattr(sim, "_generate_batch", poisoned)
        res = sim.empirical_risk(config)
        assert res.failures == 2

    def test_classical_mse_columns(self):
        config = make_config(c_grid=(1.0, 2.0), reps=5_000)
        res = empirical_risk(config)
        assert res.rows[0].classical_mse == res.rows[1].classical_mse


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
        import json

        config = make_config(reps=2_000)
        res = empirical_risk(config)
        path = tmp_path / "out.json"
        write_result_json(res, path)
        doc = json.loads(path.read_text())
        assert doc["reps"] == 2_000
        assert doc["seed"] == 12345
        assert doc["rows"][0]["c"] == 0.0
        assert doc["rows"][0]["emp_mse_theta"] == res.rows[0].emp_mse_theta
