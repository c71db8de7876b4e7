"""Closed-form divergence versus oracles, and delete-one influence."""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_fps import (
    DegenerateFrameError,
    DivergenceUndefinedError,
    GaussianSpec,
    ModelSpec,
    PopulationFrame,
    build_model,
    divergence,
    influence,
    symmetrized_divergence,
)
from robust_fps.cli import main

from conftest import random_frame
from oracles import divergence_mc_oracle, gaussian_log_pdf, posterior_predictive

HELLINGER_SHIFT2 = 4.0 * (1.0 - math.exp(-0.5))  # unit variances, mean shift 2


def hellinger_order_value_1d(mu1, s1, mu2, s2):
    """Twice squared Hellinger distance from the scalar-normal affinity."""
    bc = math.sqrt(2 * s1 * s2 / (s1**2 + s2**2)) * math.exp(
        -((mu1 - mu2) ** 2) / (4 * (s1**2 + s2**2))
    )
    return 4.0 * (1.0 - bc)


def _spec(mu, cov):
    return GaussianSpec(np.atleast_1d(mu), np.atleast_2d(cov))


class TestGaussianSpec:
    def test_asymmetric_cov_rejected(self):
        with pytest.raises(DivergenceUndefinedError):
            GaussianSpec([0, 0], [[1, 0.2], [0.1, 1]])

    def test_non_pd_rejected(self):
        with pytest.raises(DivergenceUndefinedError):
            GaussianSpec([0, 0], [[1, 2], [2, 1]])

    def test_log_pdf_matches_scipy(self):
        from scipy.stats import multivariate_normal

        rng = np.random.default_rng(0)
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        g = _spec([1.0, -1.0], cov)
        x = rng.normal(size=(5, 2))
        ref = multivariate_normal(mean=g.mu, cov=cov).logpdf(x)
        assert np.allclose(gaussian_log_pdf(g, x), ref, rtol=1e-12)


class TestClosedForm:
    def test_identical_densities_zero(self):
        rng = np.random.default_rng(1)
        for lam in (-0.9, -0.5, -0.1, 0.0, -1.0, 0.25, 1.0, 2.0):
            for p in (1, 2, 4):
                A = rng.normal(size=(p, p))
                cov = A @ A.T + p * np.eye(p)
                f = _spec(rng.normal(size=p), cov)
                assert divergence(f, f, lam) == 0.0

    def test_hellinger_shift_two(self):
        f1, f2 = _spec(0, 1), _spec(2, 1)
        assert divergence(f1, f2, -0.5) == pytest.approx(HELLINGER_SHIFT2, rel=1e-12)
        assert divergence(f1, f2, -0.5) == pytest.approx(1.573877, abs=5e-7)

    def test_hellinger_identity_general_scalars(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            mu1, mu2 = rng.normal(0, 2, 2)
            s1, s2 = rng.uniform(0.4, 3.0, 2)
            f1, f2 = _spec(mu1, s1**2), _spec(mu2, s2**2)
            want = hellinger_order_value_1d(mu1, s1, mu2, s2)
            assert divergence(f1, f2, -0.5) == pytest.approx(want, rel=1e-10)

    def test_kl_limits(self):
        f1, f2 = _spec(0, 1), _spec(1, 1)
        assert divergence(f1, f2, 0.0) == pytest.approx(0.5, rel=1e-14)
        assert divergence(f1, f2, -1.0) == pytest.approx(0.5, rel=1e-14)
        # asymmetric covariances make the two orientations differ
        g1, g2 = _spec(0, 1), _spec(0, 2)
        kl_12 = 0.5 * (1 / 2 + 0 - 1 + math.log(2))
        kl_21 = 0.5 * (2 + 0 - 1 + math.log(1 / 2))
        assert divergence(g1, g2, 0.0) == pytest.approx(kl_12, rel=1e-12)
        assert divergence(g2, g1, 0.0) == pytest.approx(kl_21, rel=1e-12)
        assert divergence(g1, g2, -1.0) == pytest.approx(kl_21, rel=1e-12)

    def test_kl_limit_continuity(self):
        pairs = [
            (_spec(0, 1), _spec(1, 1)),
            (_spec([0, 0], np.eye(2)), _spec([0.5, -0.5], [[1.5, 0.2], [0.2, 0.8]])),
        ]
        for f1, f2 in pairs:
            kl = divergence(f1, f2, 0.0)
            for lam in (1e-4, -1e-4):
                assert abs(divergence(f1, f2, lam) - kl) <= 1e-3

    def test_variance_dominant_positive_order(self):
        # Cross-checked against direct integration: the defining expectation is
        # an f-divergence with convex generator, so the value must be positive.
        f1, f2 = _spec(0, 1), _spec(0, 2)
        val = divergence(f1, f2, 1.0)
        assert val == pytest.approx((2 / math.sqrt(3) - 1) / 2, rel=1e-12)
        assert val > 0

    def test_non_pd_mixture_raises(self):
        f1, f2 = _spec(0, 4), _spec(0, 1)
        with pytest.raises(DivergenceUndefinedError, match="lam"):
            divergence(f1, f2, 5.0)  # 6*1 - 5*4 < 0

    def test_overflow_raises_typed_error(self):
        # log E = 3 * 30^2 = 2700: exp overflows float64
        with pytest.raises(DivergenceUndefinedError, match="overflows"):
            divergence(_spec(0, 1), _spec(30, 1), 2.0)
        # log E is finite but expm1(log E) / (lam (lam + 1)) is not
        with pytest.raises(DivergenceUndefinedError, match="overflows"):
            divergence(_spec(0, 1), _spec(math.sqrt(709.5 / 0.15625), 1), 0.25)

    def test_dimension_mismatch(self):
        with pytest.raises(DivergenceUndefinedError):
            divergence(_spec(0, 1), _spec([0, 0], np.eye(2)), 0.5)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(-2, 2, allow_nan=False),
        st.floats(0.5, 2.0),
        st.floats(0.5, 2.0),
        st.sampled_from([-0.5, -0.25, 0.25, 0.5]),
    )
    def test_nonnegative_where_defined(self, shift, s1, s2, lam):
        f1, f2 = _spec(0, s1**2), _spec(shift, s2**2)
        try:
            val = divergence(f1, f2, lam)
        except DivergenceUndefinedError:
            return
        assert val >= -1e-12

    def test_symmetrized_is_symmetric(self):
        f1 = _spec([0, 0], [[1, 0.1], [0.1, 2]])
        f2 = _spec([1, -1], [[1.5, -0.2], [-0.2, 0.7]])
        for lam in (-0.5, 0.0, 0.3):
            assert symmetrized_divergence(f1, f2, lam) == pytest.approx(
                symmetrized_divergence(f2, f1, lam), rel=1e-14
            )
        assert symmetrized_divergence(f1, f1, 0.3) == 0.0

    def test_symmetrized_kl_shift_one(self):
        f1, f2 = _spec(0, 1), _spec(1, 1)
        assert symmetrized_divergence(f1, f2, 0.0) == pytest.approx(0.5, rel=1e-14)


class TestMCOracle:
    def test_identical_densities(self):
        f = _spec([0.5], [[1.3]])
        res = divergence_mc_oracle(f, f, -0.5, draws=20_000, seed=42)
        assert res.estimate == pytest.approx(0.0, abs=1e-12)
        assert res.n_nonfinite == 0

    def test_hellinger_case_within_three_se(self):
        f1, f2 = _spec(0, 1), _spec(2, 1)
        res = divergence_mc_oracle(f1, f2, -0.5, draws=1_000_000, seed=7)
        assert abs(res.estimate - HELLINGER_SHIFT2) <= 3 * res.std_error

    def test_determinism(self):
        f1, f2 = _spec(0, 1), _spec(1, 2)
        a = divergence_mc_oracle(f1, f2, 0.5, draws=50_000, seed=11)
        b = divergence_mc_oracle(f1, f2, 0.5, draws=50_000, seed=11)
        assert a == b

    def test_rejects_kl_orders(self):
        f = _spec(0, 1)
        with pytest.raises(ValueError):
            divergence_mc_oracle(f, f, 0.0, draws=100, seed=0)

    def test_printed_exponent_variant_fails_oracle(self):
        # Documentation of a formula-transcription pitfall: determinant
        # exponents (-lam/2, -(lam+1)/2, +1/2) yield -0.0669873 for
        # lam=1, N(0,1) vs N(0,2), which the sampling oracle rejects;
        # the implemented exponents (-lam/2, +(lam+1)/2, -1/2) agree with it.
        lam = 1.0
        s1, s2 = 1.0, 2.0
        mix = (1 + lam) * s2 - lam * s1
        printed = (s1 ** (-lam / 2) * s2 ** (-(lam + 1) / 2) * mix**0.5 - 1) / (lam * (lam + 1))
        assert printed == pytest.approx(-0.066987, abs=5e-7)
        f1, f2 = _spec(0, s1), _spec(0, s2)
        res = divergence_mc_oracle(f1, f2, lam, draws=400_000, seed=3)
        implemented = divergence(f1, f2, lam)
        assert abs(res.estimate - implemented) <= 3 * res.std_error
        assert abs(res.estimate - printed) > 10 * res.std_error


class TestInfluence:
    def test_two_unit_example(self):
        fr = build_model(
            ["1", "2", "3"], ModelSpec("custom"),
            a=[1, 1, 1], sigma2=[1, 1, 1], sampled=[True, True, False],
            y_sampled=[0, 2],
        )
        recs = influence(fr)
        assert recs[0]["delta_k"] == pytest.approx(-1.0, rel=1e-12)
        # from-scratch check: removing unit 1 leaves ybar_w = 2
        assert recs[0]["delta_k"] == pytest.approx(1.0 - 2.0, rel=1e-12)
        assert abs(recs[0]["delta_k"]) == pytest.approx(abs(recs[1]["delta_k"]))

    def test_zero_residual_unit_has_zero_shift(self):
        # equal units with y = (0, 2, 1): the third sits exactly at ybar_w = 1
        fr = build_model(
            ["1", "2", "3", "4"], ModelSpec("custom"),
            a=[1, 1, 1, 1], sigma2=[1, 1, 1, 1], sampled=[True, True, True, False],
            y_sampled=[0.0, 2.0, 1.0],
        )
        recs = influence(fr)
        assert recs[2]["r_k"] == pytest.approx(0.0, abs=1e-14)
        assert recs[2]["delta_k"] == pytest.approx(0.0, abs=1e-14)

    def test_closed_form_matches_recomputation(self):
        from robust_fps import PopulationFrame

        rng = np.random.default_rng(21)
        for _ in range(60):
            fr = random_frame(rng)
            recs = influence(fr)
            s_idx = np.flatnonzero(fr.sampled)
            for k, rec in enumerate(recs):
                sampled2 = fr.sampled.copy()
                sampled2[s_idx[k]] = False
                y2 = np.where(sampled2, fr.y, np.nan)
                fr2 = PopulationFrame(fr.unit_id, fr.a, fr.sigma2, sampled2, y2)
                delta_direct = fr.fit()[0] - fr2.fit()[0]
                assert rec["delta_k"] == pytest.approx(delta_direct, rel=1e-10, abs=1e-12)

    def test_divergence_monotone_in_squared_residual(self):
        base = build_model(
            ["1", "2", "3", "4", "5"], ModelSpec("custom"),
            a=[1, 1.5, 2, 1, 1], sigma2=[1, 2, 1.5, 1, 1],
            sampled=[True, True, True, False, False],
            y_sampled=[1.0, 3.0, 4.0],
        )
        sq_resid = []
        div_k = []
        for yk in np.linspace(-6, 8, 29):
            fr = base.with_y(np.array([yk, 3.0, 4.0]))
            rec = influence(fr)[0]
            sq_resid.append((yk / fr.a[0] - fr.fit()[0]) ** 2)
            div_k.append(rec["divergence_k"])
        order = np.argsort(sq_resid)
        sorted_div = np.array(div_k)[order]
        assert np.all(np.diff(sorted_div) >= -1e-12)

    def test_mean_and_cov_structure(self):
        rng = np.random.default_rng(5)
        fr = random_frame(rng, n_min=3, n_max=5, extra_max=3)
        full = posterior_predictive(fr)
        a_u = fr.a[~fr.sampled]
        recs = influence(fr)
        s_idx = np.flatnonzero(fr.sampled)
        for k, rec in enumerate(recs):
            from robust_fps import PopulationFrame

            # delete-k stats recomputed from scratch; prediction target stays
            # the original unsampled set
            sampled2 = fr.sampled.copy()
            sampled2[s_idx[k]] = False
            fr2 = PopulationFrame(
                fr.unit_id, fr.a, fr.sigma2, sampled2, np.where(sampled2, fr.y, np.nan)
            )
            reduced_mu = fr2.fit()[0] * a_u
            reduced_cov = np.diag(fr.sigma2[~fr.sampled]) + np.outer(a_u, a_u) / fr2.S_aa
            assert np.allclose(full.mu - reduced_mu, rec["delta_k"] * a_u, atol=1e-12)
            gap = reduced_cov - full.cov
            want = (1.0 / fr2.S_aa - 1.0 / fr.S_aa) * np.outer(a_u, a_u)
            assert np.allclose(gap, want, atol=1e-12)


LAMBDAS = (-0.5, 0.0, -1.0, 0.7, -1.6)


def _mp_influence(fr, lam):
    """Delete-one divergences from the dense M-dimensional closed form at 60 digits.

    Returns one ``(value, cond)`` per sampled unit, or None when some mixture
    ``(1+lam) cov2 - lam cov1`` is not positive definite.  ``cond`` is
    ``|log E| * |(1+lam) x| / t`` with ``t = 1 + (1+lam) x``: near the
    positive-definite boundary a relative error e in x moves log E by about
    ``cond * e``, so float64 cannot do better than a few ulp of x times cond.
    """
    with mp.workdps(60):
        s = fr.sampled
        a, s2, y = ([mp.mpf(float(v)) for v in arr[s]] for arr in (fr.a, fr.sigma2, fr.y))
        a_u = mp.matrix([mp.mpf(float(v)) for v in fr.a[~s]])
        D = mp.diag([mp.mpf(float(v)) for v in fr.sigma2[~s]])
        M = a_u.rows
        S = mp.fsum(ai**2 / si for ai, si in zip(a, s2))
        S_ay = mp.fsum(ai * yi / si for ai, si, yi in zip(a, s2, y))
        q = mp.fsum(a_u[j] ** 2 / D[j, j] for j in range(M))
        cov1 = D + a_u * a_u.T / S
        lam_ = mp.mpf(lam)
        out = []
        for k in range(len(a)):
            S_k = S - a[k] ** 2 / s2[k]
            d = (S_ay / S - (S_ay - a[k] * y[k] / s2[k]) / S_k) * a_u
            cov2 = D + a_u * a_u.T / S_k
            if lam in (0.0, -1.0):
                f1, f2 = (cov1, cov2) if lam == 0.0 else (cov2, cov1)
                trace = mp.fsum((mp.lu_solve(f2, f1[:, j]))[j] for j in range(M))
                maha = (d.T * mp.lu_solve(f2, d))[0]
                out.append(((trace + maha - M + mp.log(mp.det(f2) / mp.det(f1))) / 2, 0))
                continue
            mix = (1 + lam_) * cov2 - lam_ * cov1
            if mp.det(mix) <= 0:
                return None
            coef = lam_ * (lam_ + 1)
            log_e = (coef / 2 * (d.T * mp.lu_solve(mix, d))[0] - lam_ / 2 * mp.log(mp.det(cov1))
                     + (lam_ + 1) / 2 * mp.log(mp.det(cov2)) - mp.log(mp.det(mix)) / 2)
            bx = (1 + lam_) * q * (1 / S_k - 1 / S) / (1 + q / S)
            out.append((mp.expm1(log_e) / coef, abs(log_e) * abs(bx) / (1 + bx)))
        return out


def _dense_influence(fr, lam):
    """Delete-one divergences through ``divergence`` on M x M predictive normals."""
    s = fr.sampled
    a, y, sigma2 = fr.a[s], fr.y[s], fr.sigma2[s]
    full = posterior_predictive(fr)
    a_u = fr.a[~fr.sampled]
    S_ay = float((a * y / sigma2).sum())
    out = []
    for k in range(fr.n_sampled):
        S_aa_k = fr.S_aa - a[k] ** 2 / sigma2[k]
        ybar_w_k = (S_ay - a[k] * y[k] / sigma2[k]) / S_aa_k
        cov = np.diag(fr.sigma2[~fr.sampled]) + np.outer(a_u, a_u) / S_aa_k
        out.append(divergence(full, GaussianSpec(ybar_w_k * a_u, cov), lam))
    return out


class TestInfluenceOracles:
    def test_mpmath_oracle(self):
        rng = np.random.default_rng(2024)
        undefined = 0
        for _ in range(40):
            fr = random_frame(rng, n_max=6, extra_max=4)
            for lam in LAMBDAS:
                want = _mp_influence(fr, lam)
                if want is None:
                    undefined += 1
                    with pytest.raises(DivergenceUndefinedError, match="lam"):
                        influence(fr, lam)
                    continue
                for rec, (w, cond) in zip(influence(fr, lam), want):
                    rel = float(abs(rec["divergence_k"] - w) / abs(w))
                    assert rel <= 1e-12 + 1e-15 * float(cond), (lam, rec["unit_id"])
        assert undefined > 0

    def test_dense_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            fr = random_frame(rng, n_max=8, extra_max=12)
            for lam in LAMBDAS + (2.0,):
                try:
                    want = _dense_influence(fr, lam)
                except DivergenceUndefinedError:
                    with pytest.raises(DivergenceUndefinedError):
                        influence(fr, lam)
                    continue
                got = [rec["divergence_k"] for rec in influence(fr, lam)]
                assert np.allclose(got, want, rtol=1e-6, atol=1e-11)

    def test_non_pd_mixture_raises_like_dense_path(self):
        # x = q h_k / (S_aa S_aa_k v1) = 300 / 302 for both units, so
        # 1 + (1 + lam) x < 0 at lam = -3
        fr = build_model(
            ["1", "2", "3", "4", "5"], ModelSpec("custom"),
            a=[1, 1, 1, 1, 1], sigma2=[1, 1, 0.01, 0.01, 0.01],
            sampled=[True, True, False, False, False], y_sampled=[0.0, 1.0],
        )
        with pytest.raises(DivergenceUndefinedError, match=r"\(1\+lam\)\*cov2 - lam\*cov1"):
            _dense_influence(fr, -3.0)
        with pytest.raises(DivergenceUndefinedError, match=r"\(1\+lam\)\*cov2 - lam\*cov1"):
            influence(fr, -3.0)
        assert len(influence(fr, -1.6)) == 2

    def test_degenerate_frames_rejected(self):
        single = build_model(
            ["1", "2"], ModelSpec("custom"), a=[1, 1], sigma2=[1, 1],
            sampled=[True, False], y_sampled=[1.0],
        )
        census = build_model(
            ["1", "2"], ModelSpec("custom"), a=[1, 1], sigma2=[1, 1],
            sampled=[True, True], y_sampled=[1.0, 2.0],
        )
        with pytest.raises(DegenerateFrameError, match="at least 2 sampled"):
            influence(single)
        with pytest.raises(DegenerateFrameError, match="census frame has no unsampled units"):
            influence(census)

    def test_dominated_precision_raises(self):
        # S_aa = 1e16 + 1 rounds to 1e16, so deleting unit 1 leaves S_aa - h_k = 0
        with pytest.raises(DegenerateFrameError, match="S_aa - h_k <= 0 for unit '1'"):
            build_model(
                ["1", "2", "3"], ModelSpec("custom"), a=[1e8, 1, 1], sigma2=[1, 1, 1],
                sampled=[True, True, False], y_sampled=[1e8, 1.0],
            )

    def test_overflow_raises(self):
        fr = build_model(
            ["1", "2", "3", "4", "5"], ModelSpec("custom"), a=[1] * 5, sigma2=[1] * 5,
            sampled=[True, True, True, False, False], y_sampled=[0.0, 1.0, 2000.0],
        )
        assert all(math.isfinite(r["divergence_k"]) for r in influence(fr, -0.5))
        with pytest.raises(DivergenceUndefinedError, match="overflows"):
            influence(fr, 2.0)

    def test_large_frame_is_finite_and_fast(self):
        rng = np.random.default_rng(5)
        N, n = 100_000, 40_000
        sampled = np.zeros(N, dtype=bool)
        sampled[rng.permutation(N)[:n]] = True
        a = rng.uniform(0.2, 5.0, N)
        sigma2 = rng.uniform(0.1, 4.0, N)
        y = np.where(sampled, 2.0 * a + np.sqrt(sigma2) * rng.standard_normal(N), np.nan)
        fr = PopulationFrame(tuple(range(N)), a, sigma2, sampled, y)
        for lam in LAMBDAS:
            t0 = time.perf_counter()
            recs = influence(fr, lam)
            elapsed = time.perf_counter() - t0
            assert len(recs) == n
            assert all(math.isfinite(r["divergence_k"]) and r["divergence_k"] >= 0 for r in recs)
            assert elapsed < 1.0


_SPEC_1D = GaussianSpec(np.zeros(1), np.eye(1))


@pytest.mark.parametrize("call, message, argv", [
    (lambda: GaussianSpec(np.zeros(2), np.eye(1)), "cov shape (1, 1) does not match mean length 2",
     ["--mu1", "0,0", "--cov1", "1", "--mu2", "0,0", "--cov2", "1,0;0,1", "--lambda", "0.5"]),
    (lambda: GaussianSpec(np.array([math.nan]), np.eye(1)), "mu or cov has nonfinite entries",
     ["--mu1", "nan", "--cov1", "1", "--mu2", "0", "--cov2", "1", "--lambda", "0.5"]),
    (lambda: GaussianSpec(np.zeros(1), np.array([[math.inf]])), "mu or cov has nonfinite entries",
     ["--mu1", "0", "--cov1", "1", "--mu2", "0", "--cov2", "inf", "--lambda", "0.5"]),
    (lambda: divergence(_SPEC_1D, _SPEC_1D, math.nan), "order lam must be finite, got nan",
     ["--mu1", "0", "--cov1", "1", "--mu2", "0", "--cov2", "1", "--lambda", "nan"]),
    (lambda: symmetrized_divergence(_SPEC_1D, _SPEC_1D, -math.inf),
     "order lam must be finite, got -inf",
     ["--mu1", "0", "--cov1", "1", "--mu2", "0", "--cov2", "1", "--lambda=-inf",
      "--symmetrized"]),
], ids=["cov_shape", "nonfinite_mu", "nonfinite_cov", "nan_order", "infinite_order"])
def test_undefined_divergence_errors_exit_3(call, message, argv, capsys):
    with pytest.raises(DivergenceUndefinedError) as info:
        call()
    assert str(info.value) == message
    assert main(["divergence", *argv]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")
