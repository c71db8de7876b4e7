"""Clipping, the two algebraic forms, and the named special cases."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_fps import (
    DegenerateFrameWarning,
    EstimationError,
    FrameTemplate,
    ModelSpec,
    ModelValidationError,
    PopulationFrame,
    RobustConfig,
    build_model,
    classical_estimate,
    psi_clip,
    robust_estimate,
)

from conftest import frames, large_layouts, random_frame
from oracles import clipped_theta

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


def _theta(fr, c, scaling="paper_v"):
    return robust_estimate(fr, RobustConfig(c=c, scaling=scaling)).theta_hat_R


class TestPsiClip:
    def test_examples(self):
        assert psi_clip(0.5, 1.0) == 0.5
        assert psi_clip(2.5, 1.0) == 1.0
        assert psi_clip(-3.0, 1.0) == -1.0

    def test_boundary_is_inside_band(self):
        assert psi_clip(1.0, 1.0) == 1.0
        assert psi_clip(-1.0, 1.0) == -1.0

    def test_negative_band_rejected(self):
        for c in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="must be finite and >= 0"):
                psi_clip(0.5, c)

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
        theta = _theta(_three_unit_frame(), 1.0)
        assert theta == pytest.approx(THREE_UNIT_THETA, rel=1e-14)
        assert theta == pytest.approx(0.727834, abs=5e-7)

    def test_large_c_recovers_weighted_mean(self):
        fr = _three_unit_frame()
        ybar_w, r = fr.fit()
        c_big = float(np.abs(r).max())
        assert _theta(fr, c_big) == ybar_w
        assert _theta(fr, 100.0) == ybar_w

    def test_c_zero_recovers_weighted_mean(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            fr = random_frame(rng)
            theta = _theta(fr, 0.0)
            assert theta == pytest.approx(fr.fit()[0], rel=1e-12, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(frames(), st.floats(0, 3, allow_nan=False))
    def test_both_forms_agree_on_random_frames(self, fr, c):
        ybar_w, r = fr.fit()
        wv = fr.w * fr.v
        direct = ybar_w + float(wv @ np.clip(r, -c, c))
        theta = _theta(fr, c)
        scale = max(abs(ybar_w), abs(direct), abs(theta), float(wv @ np.abs(r)), 1e-300)
        assert abs(direct - theta) <= 1e-12 * scale

    def test_single_unit_sample_warns_and_falls_back(self):
        fr = build_model(
            ["1", "2"], ModelSpec("custom"), a=[1, 1], sigma2=[1, 1],
            sampled=[True, False], y_sampled=[5.0],
        )
        with pytest.warns(DegenerateFrameWarning):
            assert _theta(fr, 1.0) == 5.0

    @settings(max_examples=40, deadline=None)
    @given(frames(), st.floats(0, 4, allow_nan=False), st.floats(-3, 3, allow_nan=False))
    def test_location_equivariance(self, fr, c, shift):
        t0 = _theta(fr, c)
        t1 = _theta(fr.with_y(fr.y[fr.sampled] + shift * fr.a[fr.sampled]), c)
        assert t1 == pytest.approx(t0 + shift, abs=1e-8 * (1 + abs(t0) + abs(shift)))

    def test_influence_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            fr = random_frame(rng)
            ybar_w, r = fr.fit()
            c = float(rng.uniform(0, 2.5))
            theta = _theta(fr, c)
            wv = fr.w * fr.v
            bound = float(wv @ np.abs(np.clip(r, -c, c)))
            assert abs(theta - ybar_w) <= bound + 1e-12
            assert bound <= c * float(wv.sum()) + 1e-12

    def test_piecewise_linear_in_c_with_breakpoints_at_residuals(self):
        fr = _three_unit_frame(n_extra=2)
        breaks = np.unique(np.abs(fr.fit()[1]))
        grid_edges = np.concatenate([[0.0], breaks, [breaks.max() + 1.0]])
        for lo, hi in zip(grid_edges[:-1], grid_edges[1:]):
            c1, c2, c3 = np.linspace(lo, hi, 5)[1:4]
            t1, t2, t3 = (_theta(fr, float(c)) for c in (c1, c2, c3))
            # midpoint of a linear segment
            assert t2 == pytest.approx(0.5 * (t1 + t3), abs=1e-12)
        # continuity across breakpoints
        for b in breaks:
            left = _theta(fr, float(b) - 1e-9)
            right = _theta(fr, float(b) + 1e-9)
            assert left == pytest.approx(right, abs=1e-7)

    def test_outlier_saturation(self):
        # c chosen so only the outlying third unit is clipped; its slope in y_3
        # is then damped by the clipped-weight fraction relative to ybar_w
        base = _three_unit_frame(n_extra=1)
        c = 2.6

        def theta_at(yk):
            return _theta(base.with_y(np.array([0.0, 0.0, yk])), c)

        def ybar_at(yk):
            return base.with_y(np.array([0.0, 0.0, yk])).fit()[0]

        r6 = base.with_y(np.array([0.0, 0.0, 6.0])).fit()[1]
        assert np.abs(r6[2]) > c > np.abs(r6[0])
        h = 1e-4
        slope_robust = (theta_at(6 + h) - theta_at(6 - h)) / (2 * h)
        slope_plain = (ybar_at(6 + h) - ybar_at(6 - h)) / (2 * h)
        assert abs(slope_robust) < abs(slope_plain)


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
        r_abs = np.abs(fr.fit()[1])
        est = robust_estimate(fr, RobustConfig(c=float(r_abs[0])))
        # ties sit inside the closed band
        assert est.clipped_units == tuple(
            u for u, ra in zip(fr.sampled_ids, r_abs) if ra > r_abs[0]
        )

    def test_no_clipping_implies_weighted_mean(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            fr = random_frame(rng)
            ybar_w, r = fr.fit()
            est = robust_estimate(fr, RobustConfig(c=float(np.abs(r).max() + 0.1)))
            assert est.clipped_units == ()
            assert est.theta_hat_R == ybar_w

    def test_c_zero_estimate_equals_weighted_mean_with_clipped_units(self):
        fr = _three_unit_frame(n_extra=1)
        est = robust_estimate(fr, RobustConfig(c=0.0))
        assert est.theta_hat_R == pytest.approx(fr.fit()[0], abs=1e-15)
        assert len(est.clipped_units) == 3  # every nonzero residual exceeds c = 0

    def test_ht_special_case_weights(self):
        fr = build_model(
            list("abcd"), ModelSpec("horvitz_thompson"),
            pi=[0.5] * 4, sampled=[True, True, False, False], y_sampled=[1.0, 3.0],
        )
        one_minus = 1.0 - 0.5
        assert np.allclose(fr.w, one_minus / (2 * one_minus))
        assert np.allclose(fr.v**2, 1.0 / one_minus - 1.0 / (2 * one_minus))
        assert np.allclose(fr.v**2, 1.0)

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

    @pytest.mark.parametrize("c", [1.0, 1.5, 2.0])
    def test_one_gross_outlier_clips_every_unit(self, c):
        # The band is centred on the contaminated ybar_w, so a single +1e4
        # outlier pushes every residual out of it; theta_R then stays within
        # c * sum_s w v of ybar_w, which the outlier has already moved.
        rng = np.random.default_rng(8)
        N, n = 40, 20
        y = 500.0 + rng.normal(0.0, 1.0, n)
        y[7] += 1e4
        t = FrameTemplate(tuple(range(N)), np.ones(N), np.ones(N), np.arange(N) < n)
        fr = t.with_y(y)
        est = robust_estimate(fr, RobustConfig(c=c))
        assert est.clipped_units == t.sampled_ids
        assert abs(est.theta_hat_R - fr.fit()[0]) <= c * float(fr.w @ fr.v)
        assert est.ybar_P_R > 900.0


    @pytest.mark.parametrize("scaling", ["paper_v", "chambers_sigma"])
    def test_overflowing_residuals_raise_typed_error(self, scaling):
        # finite y whose h * y/a leaves float64: no inf estimate, no RuntimeWarning
        fr = build_model(
            ["1", "2", "3"], ModelSpec("custom"), a=[1e10, 1e10, 1], sigma2=[1e-10, 1e-10, 1],
            sampled=[True, True, False], y_sampled=[1e300, 1.0],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelValidationError, match="overflows float64"):
                robust_estimate(fr, RobustConfig(c=1.0, scaling=scaling))
            with pytest.raises(ModelValidationError, match="overflows float64"):
                classical_estimate(fr)

    @settings(max_examples=60, deadline=None)
    @given(large_layouts(), st.floats(0.0, 4.0))
    def test_matches_the_written_out_clip_bit_for_bit(self, layout, c):
        try:
            fr = PopulationFrame(*layout)
        except EstimationError:
            return
        if fr.n_sampled < 2:
            return
        for scaling in ("paper_v", "chambers_sigma"):
            est = robust_estimate(fr, RobustConfig(c=c, scaling=scaling))
            assert (est.theta_hat_R, est.clipped_units) == clipped_theta(fr, c, scaling)


class TestChambersVariant:
    def test_ratio_scaling_difference(self):
        fr = build_model(
            ["1", "2", "3"], ModelSpec("ratio", sigma=1.0),
            x=[1, 3, 2], sampled=[True, True, False], y_sampled=[2.0, 4.0],
        )
        assert fr.v[0] == pytest.approx(np.sqrt(1.0 - 0.25))
        assert fr.v[0] == pytest.approx(0.866025, abs=5e-7)
        chambers_scale = np.sqrt(fr.sigma2[0]) / fr.a[0]
        assert chambers_scale == pytest.approx(1.0)

    def test_large_c_recovers_weighted_mean(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            fr = random_frame(rng)
            theta = _theta(fr, 1e9, "chambers_sigma")
            assert theta == pytest.approx(fr.fit()[0], rel=1e-12, abs=1e-12)

    def test_symmetric_two_unit_frame_matches(self):
        fr = build_model(
            ["1", "2", "3"], ModelSpec("custom"), a=[1, 1, 1], sigma2=[1, 1, 1],
            sampled=[True, True, False], y_sampled=[0.0, 2.0],
        )
        assert _theta(fr, 0.7, "chambers_sigma") == pytest.approx(1.0)
        assert _theta(fr, 0.7) == pytest.approx(1.0)

    def test_differs_from_paper_scaling_on_asymmetric_frame(self):
        fr = build_model(
            ["1", "2", "3", "4"], ModelSpec("ratio", sigma=1.0),
            x=[1, 3, 2, 2], sampled=[True, True, True, False],
            y_sampled=[2.0, 9.5, 3.0],
        )
        a = _theta(fr, 0.8, "chambers_sigma")
        b = _theta(fr, 0.8)
        assert a != pytest.approx(b, rel=1e-6)

    @pytest.mark.parametrize("scaling", ["paper_v", "chambers_sigma"])
    def test_nothing_clipped_returns_ybar_w_exactly(self, scaling):
        # Both scalings subtract the weighted overflow, which is exactly zero
        # at c = max|resid|, for n from 2 to 1e5.
        rng = np.random.default_rng(83)
        for n in np.unique(np.geomspace(2, 1e5, 83).round().astype(int)):
            N = n + int(rng.integers(1, 5))
            t = FrameTemplate(tuple(range(N)), rng.uniform(0.2, 5.0, N),
                              rng.uniform(0.1, 4.0, N), np.arange(N) < n)
            fr = t.with_y(rng.normal(3.0, 2.0, n))
            ybar_w, resid = fr.fit()
            if scaling == "chambers_sigma":
                a, y = fr.a[fr.sampled], fr.y[fr.sampled]
                resid = (y / a - ybar_w) / (np.sqrt(fr.sigma2[fr.sampled]) / a)
            assert _theta(fr, float(np.abs(resid).max()), scaling) == ybar_w

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


@pytest.mark.parametrize("scaling", ["paper", "chambers", "PAPER_V", "", ["paper_v"]])
def test_unknown_scaling_rejected_by_name(scaling):
    # The CLI maps its --scaling choices to these names, so only the library can pass another.
    with pytest.raises(ModelValidationError) as info:
        RobustConfig(c=1.0, scaling=scaling)
    assert str(info.value) == f"unknown scaling {scaling!r}"
