"""Clipping, the two algebraic forms, and the named special cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_fps import (
    DegenerateFrameWarning,
    ModelSpec,
    ModelValidationError,
    RobustConfig,
    build_model,
    chambers_variant_theta,
    classical_estimate,
    psi_clip,
    robust_estimate,
    robust_theta,
    sufficient_stats,
)

from conftest import frames, random_frame

# a = (1,1,1), sigma2 = 1, y = (0,0,3), c = 1:
# ybar_w = 1, v = sqrt(2/3), r = (-1,-1,2)/v, clipped sum = -1/3 * v
THREE_UNIT_THETA = 1.0 - np.sqrt(2.0 / 3.0) / 3.0


def _three_unit_frame(n_extra=0):
    N = 3 + n_extra
    return build_model(
        [str(i) for i in range(N)], ModelSpec("custom"),
        a=[1.0] * N, sigma2=[1.0] * N,
        sampled=[True] * 3 + [False] * n_extra, y_sampled=[0.0, 0.0, 3.0],
    )


class TestPsiClip:
    def test_examples(self):
        assert psi_clip(0.5, 1.0) == 0.5
        assert psi_clip(2.5, 1.0) == 1.0
        assert psi_clip(-3.0, 1.0) == -1.0

    def test_boundary_is_inside_band(self):
        assert psi_clip(1.0, 1.0) == 1.0
        assert psi_clip(-1.0, 1.0) == -1.0

    def test_negative_band_rejected(self):
        with pytest.raises(ValueError):
            psi_clip(0.5, -1.0)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(-100, 100, allow_nan=False), st.floats(0, 50, allow_nan=False))
    def test_odd_and_bounded(self, r, c):
        val = float(psi_clip(r, c))
        assert abs(val) <= c
        assert float(psi_clip(-r, c)) == -val

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
        st.floats(0, 5, allow_nan=False),
    )
    def test_nondecreasing(self, r1, r2, c):
        lo, hi = min(r1, r2), max(r1, r2)
        assert psi_clip(lo, c) <= psi_clip(hi, c)


class TestRobustTheta:
    def test_three_unit_example(self):
        stats = sufficient_stats(_three_unit_frame())
        theta = robust_theta(stats, RobustConfig(c=1.0))
        assert theta == pytest.approx(THREE_UNIT_THETA, rel=1e-14)
        assert theta == pytest.approx(0.727834, abs=5e-7)

    def test_large_c_recovers_weighted_mean(self):
        stats = sufficient_stats(_three_unit_frame())
        c_big = float(np.abs(stats.r).max())
        assert robust_theta(stats, RobustConfig(c=c_big)) == stats.ybar_w
        assert robust_theta(stats, RobustConfig(c=100.0)) == stats.ybar_w

    def test_c_zero_recovers_weighted_mean(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            stats = sufficient_stats(random_frame(rng))
            theta = robust_theta(stats, RobustConfig(c=0.0))
            assert theta == pytest.approx(stats.ybar_w, rel=1e-12, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(frames(), st.floats(0, 3, allow_nan=False))
    def test_both_forms_agree_on_random_frames(self, fr, c):
        stats = sufficient_stats(fr)
        wv = stats.w * stats.v
        direct = stats.ybar_w + float(wv @ np.clip(stats.r, -c, c))
        theta = robust_theta(stats, RobustConfig(c=c))
        scale = max(abs(stats.ybar_w), abs(direct), abs(theta), float(wv @ np.abs(stats.r)), 1e-300)
        assert abs(direct - theta) <= 1e-12 * scale

    def test_single_unit_sample_warns_and_falls_back(self):
        fr = build_model(
            ["1", "2"], ModelSpec("custom"), a=[1, 1], sigma2=[1, 1],
            sampled=[True, False], y_sampled=[5.0],
        )
        stats = sufficient_stats(fr)
        with pytest.warns(DegenerateFrameWarning):
            assert robust_theta(stats, RobustConfig(c=1.0)) == 5.0

    def test_unresolved_budget_rejected(self):
        stats = sufficient_stats(_three_unit_frame())
        with pytest.raises(ModelValidationError, match="unresolved"):
            robust_theta(stats, RobustConfig(max_excess=0.1))

    def test_plain_float_accepted(self):
        stats = sufficient_stats(_three_unit_frame())
        assert robust_theta(stats, 1.0) == robust_theta(stats, RobustConfig(c=1.0))

    @settings(max_examples=40, deadline=None)
    @given(frames(), st.floats(0, 4, allow_nan=False), st.floats(-3, 3, allow_nan=False))
    def test_location_equivariance(self, fr, c, shift):
        stats0 = sufficient_stats(fr)
        stats1 = sufficient_stats(fr.with_y(fr.y[fr.sampled] + shift * fr.a[fr.sampled]))
        t0 = robust_theta(stats0, RobustConfig(c=c))
        t1 = robust_theta(stats1, RobustConfig(c=c))
        assert t1 == pytest.approx(t0 + shift, abs=1e-8 * (1 + abs(t0) + abs(shift)))

    def test_influence_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            stats = sufficient_stats(random_frame(rng))
            c = float(rng.uniform(0, 2.5))
            theta = robust_theta(stats, RobustConfig(c=c))
            wv = stats.w * stats.v
            bound = float(wv @ np.abs(np.clip(stats.r, -c, c)))
            assert abs(theta - stats.ybar_w) <= bound + 1e-12
            assert bound <= c * float(wv.sum()) + 1e-12

    def test_piecewise_linear_in_c_with_breakpoints_at_residuals(self):
        stats = sufficient_stats(_three_unit_frame(n_extra=2))
        breaks = np.unique(np.abs(stats.r))
        grid_edges = np.concatenate([[0.0], breaks, [breaks.max() + 1.0]])
        for lo, hi in zip(grid_edges[:-1], grid_edges[1:]):
            c1, c2, c3 = np.linspace(lo, hi, 5)[1:4]
            t1, t2, t3 = (
                robust_theta(stats, RobustConfig(c=float(c)))
                for c in (c1, c2, c3)
            )
            # midpoint of a linear segment
            assert t2 == pytest.approx(0.5 * (t1 + t3), abs=1e-12)
        # continuity across breakpoints
        for b in breaks:
            left = robust_theta(stats, RobustConfig(c=float(b) - 1e-9))
            right = robust_theta(stats, RobustConfig(c=float(b) + 1e-9))
            assert left == pytest.approx(right, abs=1e-7)

    def test_outlier_saturation(self):
        # c chosen so only the outlying third unit is clipped; its slope in y_3
        # is then damped by the clipped-weight fraction relative to ybar_w
        base = _three_unit_frame(n_extra=1)
        c = 2.6

        def theta_at(yk):
            fr = base.with_y(np.array([0.0, 0.0, yk]))
            return robust_theta(sufficient_stats(fr), RobustConfig(c=c))

        def ybar_at(yk):
            fr = base.with_y(np.array([0.0, 0.0, yk]))
            return sufficient_stats(fr).ybar_w

        stats6 = sufficient_stats(base.with_y(np.array([0.0, 0.0, 6.0])))
        assert np.abs(stats6.r[2]) > c > np.abs(stats6.r[0])
        h = 1e-4
        slope_robust = (theta_at(6 + h) - theta_at(6 - h)) / (2 * h)
        slope_plain = (ybar_at(6 + h) - ybar_at(6 - h)) / (2 * h)
        assert abs(slope_robust) < abs(slope_plain)
        # the clipped unit's contribution saturates at c * w_k * v_k
        est = robust_estimate(base.with_y(np.array([0.0, 0.0, 1e9])), RobustConfig(c=c))
        sat = c * stats6.w[2] * stats6.v[2]
        assert est.contributions[2] == pytest.approx(sat, rel=1e-12)


class TestRobustEstimate:
    def test_five_unit_example(self):
        fr = _three_unit_frame(n_extra=2)
        est = robust_estimate(fr, RobustConfig(c=1.0))
        want = (3.0 + THREE_UNIT_THETA * 2.0) / 5.0
        assert est.ybar_P_R == pytest.approx(want, rel=1e-14)
        assert est.ybar_P_R == pytest.approx(0.891134, abs=5e-7)
        assert est.c_used == 1.0

    def test_large_c_recovers_classical(self):
        fr = _three_unit_frame(n_extra=2)
        est = robust_estimate(fr, RobustConfig(c=1e6))
        assert est.ybar_P_R == pytest.approx(classical_estimate(fr), rel=1e-14)
        assert est.ybar_P_R == pytest.approx(1.0)
        assert est.clipped_units == ()

    def test_population_identity_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            fr = random_frame(rng)
            c = float(rng.uniform(0, 3))
            est = robust_estimate(fr, RobustConfig(c=c))
            s = fr.sampled
            want = (fr.y[s].sum() + est.theta_hat_R * fr.a[~s].sum()) / fr.n_units
            assert est.ybar_P_R == want

    def test_clipped_units_strict_threshold(self):
        fr = _three_unit_frame(n_extra=1)
        stats = sufficient_stats(fr)
        r_abs = np.abs(stats.r)
        est = robust_estimate(fr, RobustConfig(c=float(r_abs[0])))
        # ties sit inside the closed band
        assert est.clipped_units == tuple(
            u for u, ra in zip(stats.unit_id, r_abs) if ra > r_abs[0]
        )

    def test_no_clipping_implies_weighted_mean(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            fr = random_frame(rng)
            stats = sufficient_stats(fr)
            est = robust_estimate(fr, RobustConfig(c=float(np.abs(stats.r).max() + 0.1)))
            assert est.clipped_units == ()
            assert est.theta_hat_R == stats.ybar_w

    def test_c_zero_estimate_equals_weighted_mean_with_clipped_units(self):
        fr = _three_unit_frame(n_extra=1)
        stats = sufficient_stats(fr)
        est = robust_estimate(fr, RobustConfig(c=0.0))
        assert est.theta_hat_R == pytest.approx(stats.ybar_w, abs=1e-15)
        assert len(est.clipped_units) == 3  # every nonzero residual exceeds c = 0

    def test_ht_special_case_weights(self):
        fr = build_model(
            list("abcd"), ModelSpec("horvitz_thompson"),
            pi=[0.5] * 4, sampled=[True, True, False, False], y_sampled=[1.0, 3.0],
        )
        stats = sufficient_stats(fr)
        one_minus = 1.0 - 0.5
        assert np.allclose(stats.w, one_minus / (2 * one_minus))
        assert np.allclose(stats.v**2, 1.0 / one_minus - 1.0 / (2 * one_minus))
        assert np.allclose(stats.v**2, 1.0)

    def test_budget_mode_resolves_and_records_c(self):
        from robust_fps import excess_risk

        fr = _three_unit_frame(n_extra=2)
        target = excess_risk(fr, 1.0)
        est = robust_estimate(fr, RobustConfig(max_excess=target))
        assert est.c_used == pytest.approx(1.0, abs=1e-8)

    def test_census_returns_exact_mean(self):
        fr = build_model(
            ["1", "2", "3"], ModelSpec("custom"), a=[1, 1, 1], sigma2=[1, 1, 1],
            sampled=[True] * 3, y_sampled=[1.0, 2.0, 3.0],
        )
        est = robust_estimate(fr, RobustConfig(c=0.5))
        assert est.ybar_P_R == pytest.approx(2.0)


class TestChambersVariant:
    def test_ratio_scaling_difference(self):
        fr = build_model(
            ["1", "2", "3"], ModelSpec("ratio", sigma=1.0),
            x=[1, 3, 2], sampled=[True, True, False], y_sampled=[2.0, 4.0],
        )
        stats = sufficient_stats(fr)
        assert stats.v[0] == pytest.approx(np.sqrt(1.0 - 0.25))
        assert stats.v[0] == pytest.approx(0.866025, abs=5e-7)
        chambers_scale = np.sqrt(stats.sigma2[0]) / stats.a[0]
        assert chambers_scale == pytest.approx(1.0)

    def test_large_c_recovers_weighted_mean(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            stats = sufficient_stats(random_frame(rng))
            theta = chambers_variant_theta(stats, 1e9)
            assert theta == pytest.approx(stats.ybar_w, rel=1e-12, abs=1e-12)

    def test_symmetric_two_unit_frame_matches(self):
        fr = build_model(
            ["1", "2", "3"], ModelSpec("custom"), a=[1, 1, 1], sigma2=[1, 1, 1],
            sampled=[True, True, False], y_sampled=[0.0, 2.0],
        )
        stats = sufficient_stats(fr)
        assert chambers_variant_theta(stats, 0.7) == pytest.approx(1.0)
        assert robust_theta(stats, RobustConfig(c=0.7)) == pytest.approx(1.0)

    def test_differs_from_paper_scaling_on_asymmetric_frame(self):
        fr = build_model(
            ["1", "2", "3", "4"], ModelSpec("ratio", sigma=1.0),
            x=[1, 3, 2, 2], sampled=[True, True, True, False],
            y_sampled=[2.0, 9.5, 3.0],
        )
        stats = sufficient_stats(fr)
        a = chambers_variant_theta(stats, 0.8)
        b = robust_theta(stats, RobustConfig(c=0.8))
        assert a != pytest.approx(b, rel=1e-6)

    def test_config_scaling_dispatch(self):
        fr = _three_unit_frame(n_extra=1)
        stats = sufficient_stats(fr)
        via_config = robust_theta(stats, RobustConfig(c=1.0, scaling="chambers_sigma"))
        assert via_config == chambers_variant_theta(stats, 1.0)

    def test_budget_with_chambers_scaling_rejected(self):
        with pytest.raises(ModelValidationError):
            RobustConfig(max_excess=0.1, scaling="chambers_sigma")


class TestRobustConfig:
    def test_exactly_one_mode(self):
        with pytest.raises(ModelValidationError):
            RobustConfig()
        with pytest.raises(ModelValidationError):
            RobustConfig(c=1.0, max_excess=0.5)

    def test_negative_c_rejected(self):
        with pytest.raises(ModelValidationError):
            RobustConfig(c=-0.5)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ModelValidationError):
            RobustConfig(max_excess=0.0)
