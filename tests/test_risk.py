"""Tail moment g, MSE decomposition, and budget inversion."""

import math
import sys
import warnings
from operator import attrgetter

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from robust_fps import (
    DegenerateFrameError,
    EstimationError,
    FrameTemplate,
    ModelSpec,
    ModelValidationError,
    PopulationFrame,
    RobustConfig,
    build_model,
    calibrate_c,
    classical_estimate,
    excess_risk,
    g_clip,
    influence,
    max_excess_risk,
    mse_closed_form,
    robust_estimate,
)

from robust_fps.risk import C_MAX, C_NORMAL

from conftest import large_layouts, random_frame


def g_quadrature(c: float) -> float:
    """Independent oracle: 2 * integral over (c, inf) of (r - c)^2 phi(r) dr."""
    val, _ = integrate.quad(
        lambda r: (r - c) ** 2 * math.exp(-0.5 * r * r) / math.sqrt(2 * math.pi),
        c, np.inf, epsabs=1e-10, epsrel=1e-10,
    )
    return 2.0 * val


def _five_unit_frame():
    return build_model(
        [str(i) for i in range(5)], ModelSpec("custom"),
        a=[1.0] * 5, sigma2=[1.0] * 5,
        sampled=[True] * 3 + [False] * 2, y_sampled=[0.0, 0.0, 3.0],
    )


class TestGClip:
    def test_at_zero(self):
        assert g_clip(0.0) == pytest.approx(1.0, rel=1e-14)

    def test_at_one_against_quadrature(self):
        want = g_quadrature(1.0)
        assert want == pytest.approx(0.150680, abs=5e-7)
        assert g_clip(1.0) == pytest.approx(want, abs=1e-10)

    def test_far_tail(self):
        assert 0.0 < g_clip(8.0) < 1e-13

    def test_quadrature_oracle_grid(self):
        for c in np.arange(0.0, 4.01, 0.25):
            assert abs(g_clip(float(c)) - g_quadrature(float(c))) <= 1e-8

    def test_bounds_and_monotonicity(self):
        grid = np.arange(0.0, 6.01, 0.1)
        vals = np.array([g_clip(float(c)) for c in grid])
        assert np.all(vals > 0)
        assert vals[0] == pytest.approx(1.0)
        assert np.all(vals <= 1.0)
        assert np.all(np.diff(vals) < 0)

    def test_mpmath_oracle_through_the_tail(self):
        # 1e-12 is above what rounding z = c/sqrt(2) allows (about c^2 * 1.1e-16)
        grid = np.concatenate([np.linspace(0.0, 37.5, 1501), np.linspace(1.99, 2.01, 41)])
        with mp.workdps(60):
            for c in map(float, grid):
                cm = mp.mpf(c)
                want = 2 * ((cm * cm + 1) * mp.ncdf(-cm) - cm * mp.npdf(cm))
                assert float(abs(g_clip(c) - want) / want) <= 1e-12, c

    def test_nonnegative_and_nonincreasing_for_every_c(self):
        grid = [float(c) for c in np.linspace(0.0, 40.0, 4001)] + [C_MAX, 100.0, 1e300]
        vals = np.array([g_clip(c) for c in sorted(grid)])
        assert np.all(vals >= 0)
        assert np.all(np.diff(vals) <= 0)

    def test_c_max_is_last_positive(self):
        assert g_clip(C_MAX) > 0
        assert g_clip(math.nextafter(C_MAX, math.inf)) == 0.0

    def test_c_normal_is_last_normal(self):
        assert g_clip(C_NORMAL) >= sys.float_info.min > g_clip(math.nextafter(C_NORMAL, math.inf))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            g_clip(-0.1)

    def test_sign_flip_variant_goes_negative(self):
        # A nearby formula with a doubled density term turns negative past
        # c ~ 0.85, impossible for a second moment; recorded as the reason
        # the implemented form is gated on the quadrature oracle.
        from scipy.special import erfc

        def variant(c):
            Phi_neg = 0.5 * erfc(c / math.sqrt(2))
            phi = math.exp(-0.5 * c * c) / math.sqrt(2 * math.pi)
            return 2.0 * ((c * c + 1.0) * Phi_neg - 2.0 * c * phi)

        assert variant(1.0) == pytest.approx(-0.333262, abs=5e-7)
        assert variant(1.0) < 0 < g_quadrature(1.0)


class TestMseTheorem:
    def test_baseline_example(self):
        rep = mse_closed_form(_five_unit_frame(), 1.0)
        assert rep.mse_baseline == pytest.approx((2.0 + 4.0 / 3.0) / 25.0, rel=1e-14)
        assert rep.mse_baseline == pytest.approx(0.133333, abs=5e-7)

    def test_excess_hand_recomposition(self):
        # independent recomposition: w_i = 1/3, v_i^2 = 2/3, summed over the
        # 3 sampled units, times the quadrature value of g(1), (sum_u a)^2 = 4
        frame = _five_unit_frame()
        rep = mse_closed_form(frame, 1.0)
        sum_w2v2 = 3.0 * (1.0 / 9.0) * (2.0 / 3.0)
        want_excess = sum_w2v2 * g_quadrature(1.0) * 4.0 / 25.0
        assert rep.excess == pytest.approx(want_excess, rel=1e-9)
        assert rep.mse_robust == pytest.approx(rep.mse_baseline + want_excess, rel=1e-9)

    def test_large_c_collapses_to_baseline(self):
        rep = mse_closed_form(_five_unit_frame(), 40.0)
        assert rep.mse_robust == pytest.approx(rep.mse_baseline, rel=1e-14)

    def test_components_sum(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            fr = random_frame(rng)
            rep = mse_closed_form(fr, float(rng.uniform(0, 4)))
            total = rep.unseen_variance + rep.estimation_variance + rep.clipping_penalty
            assert rep.mse_robust == pytest.approx(total, rel=1e-12)
            assert rep.excess >= 0
            assert rep.mse_robust >= rep.mse_baseline

    def test_degenerate_frames_rejected(self):
        census = build_model(
            ["1", "2"], ModelSpec("custom"), a=[1, 1], sigma2=[1, 1],
            sampled=[True, True], y_sampled=[1.0, 2.0],
        )
        with pytest.raises(DegenerateFrameError):
            mse_closed_form(census, 1.0)
        single = build_model(
            ["1", "2"], ModelSpec("custom"), a=[1, 1], sigma2=[1, 1],
            sampled=[True, False], y_sampled=[1.0],
        )
        with pytest.raises(DegenerateFrameError):
            mse_closed_form(single, 1.0)


class TestCalibrateC:
    def test_round_trip_through_c_one(self):
        frame = _five_unit_frame()
        target = excess_risk(frame, 1.0)
        assert calibrate_c(frame, target) == pytest.approx(1.0, abs=1e-8)

    def test_generous_budget_returns_zero(self):
        frame = _five_unit_frame()
        assert calibrate_c(frame, 10.0 * max_excess_risk(frame)) == 0.0

    def test_half_budget_matches_scan(self):
        # reference root from an independent fine-grid scan of g
        frame = _five_unit_frame()
        target = 0.5 * max_excess_risk(frame)
        grid = np.arange(0.0, 2.0, 1e-6)
        vals = np.array([g_clip(float(c)) for c in grid[::1000]])  # coarse bracket
        lo_idx = int(np.searchsorted(-vals, -0.5))
        lo = grid[::1000][lo_idx - 1]
        fine = np.arange(lo, lo + 1e-3 + 1e-6, 1e-6)
        fine_vals = np.array([g_clip(float(c)) for c in fine])
        scan_root = float(fine[np.argmin(np.abs(fine_vals - 0.5))])
        c_star = calibrate_c(frame, target)
        assert c_star == pytest.approx(scan_root, abs=2e-6)
        assert g_clip(c_star) == pytest.approx(0.5, rel=1e-10)
        assert c_star == pytest.approx(0.4052338, abs=1e-6)

    def test_antitone_in_budget(self):
        frame = _five_unit_frame()
        e0 = max_excess_risk(frame)
        budgets = np.geomspace(1e-5, 0.99, 25) * e0
        cs = [calibrate_c(frame, float(m)) for m in budgets]
        assert all(c1 >= c2 for c1, c2 in zip(cs, cs[1:]))

    def test_budget_below_the_first_bracket(self):
        # 3 of 6 equal units: excess0 = 1/18; the excess at c = 10 is 1.6e-26
        frame = build_model(
            [str(i) for i in range(6)], ModelSpec("custom"), a=[1.0] * 6, sigma2=[1.0] * 6,
            sampled=[True] * 3 + [False] * 3, y_sampled=[0.0, 1.0, 2.0],
        )
        budget = 5.6e-32
        assert excess_risk(frame, 10.0) > budget
        c = calibrate_c(frame, budget)
        assert 10.0 < c < C_MAX
        assert excess_risk(frame, c) == pytest.approx(budget, rel=1e-12)

    def test_unattainable_budget_raises(self):
        # a huge excess0 keeps excess0 * g(C_MAX) above a tiny budget
        frame = build_model(
            [str(i) for i in range(6)], ModelSpec("custom"), a=[1.0] * 6, sigma2=[1e300] * 6,
            sampled=[True] * 3 + [False] * 3, y_sampled=[0.0, 1.0, 2.0],
        )
        assert excess_risk(frame, C_MAX) > 1e-300
        with pytest.raises(ModelValidationError, match="smallest attainable excess"):
            calibrate_c(frame, 1e-300)

    def test_within_budget_by_mpmath_where_g_is_tiny(self):
        # g is subnormal past C_NORMAL, where a budget of 3e-25 or 1e-22 on
        # this frame would fall: either a typed error, or a c whose exact
        # excess is within the budget
        frame = build_model(
            [str(i) for i in range(6)], ModelSpec("custom"), a=[1.0] * 6, sigma2=[1e300] * 6,
            sampled=[True] * 3 + [False] * 3, y_sampled=[0.0, 1.0, 2.0],
        )
        attainable = 1.5 * excess_risk(frame, C_NORMAL)
        outcomes = []
        with mp.workdps(60):
            scale = mp.mpf(frame.sum_w2v2) * mp.mpf(frame.sum_u_a) ** 2 / frame.n_units**2
            for budget in (3e-25, 1e-22, attainable):
                try:
                    c = calibrate_c(frame, budget)
                except ModelValidationError as exc:
                    assert "smallest attainable excess" in str(exc)
                    outcomes.append("raised")
                    continue
                cm = mp.mpf(c)
                g = 2 * ((cm * cm + 1) * mp.ncdf(-cm) - cm * mp.npdf(cm))
                assert scale * g <= budget * (1 + mp.mpf(1e-12)), budget
                outcomes.append("within")
        assert outcomes[-1] == "within"

    @pytest.mark.parametrize("a, sigma2, budgets", [
        (1.0, 1e-280, (1e-321, 1e-318, 1e-300)),   # the excess itself is subnormal
        (1e100, 1e-100, (1e-150, 1e-120, 1e-100)),  # sum_w2v2 * g is, under a normal excess
    ])
    def test_within_budget_by_mpmath_where_the_excess_is_subnormal(self, a, sigma2, budgets):
        # Either a typed error, or a c whose exact excess is within the budget;
        # the largest budget of each frame is attainable.
        frame = build_model(
            [str(i) for i in range(6)], ModelSpec("custom"), a=[a] * 6, sigma2=[sigma2] * 6,
            sampled=[True] * 3 + [False] * 3, y_sampled=[0.0, 1e-140 * a, 2e-140 * a],
        )
        outcomes = []
        with mp.workdps(60):
            scale = mp.mpf(frame.sum_w2v2) * mp.mpf(frame.sum_u_a) ** 2 / frame.n_units**2
            for budget in budgets:
                try:
                    c = calibrate_c(frame, budget)
                except ModelValidationError as exc:
                    assert "smallest attainable excess" in str(exc)
                    outcomes.append("raised")
                    continue
                cm = mp.mpf(c)
                g = 2 * ((cm * cm + 1) * mp.ncdf(-cm) - cm * mp.npdf(cm))
                assert scale * g <= budget * (1 + mp.mpf(1e-12)), budget
                outcomes.append("within")
        assert outcomes == ["raised", "raised", "within"]

    def test_invalid_budget_rejected(self):
        frame = _five_unit_frame()
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                calibrate_c(frame, bad)

    def test_never_over_budget(self):
        # the returned c is the in-budget end of the bracket, checked through
        # the excess exactly as excess_risk computes it
        rng = np.random.default_rng(11)
        for _ in range(200):
            frame = random_frame(rng)
            e0 = max_excess_risk(frame)
            for m in np.geomspace(1e-30, 0.999, 40) * e0:
                m = float(m)
                assert excess_risk(frame, calibrate_c(frame, m)) <= m

    def test_round_trip_relative_accuracy(self):
        frame = _five_unit_frame()
        e0 = max_excess_risk(frame)
        for m in np.geomspace(1e-6, 0.999, 20) * e0:
            c = calibrate_c(frame, float(m))
            assert excess_risk(frame, c) == pytest.approx(float(m), rel=1e-10)


class TestExtremeLayouts:
    @pytest.mark.parametrize("a, sigma2", [
        ([1, 1, 1e200], [1, 1, 1]),             # (sum_u a)^2 overflows
        ([1, 1, 1, 1], [1, 1, 1e308, 1e308]),   # sum_u sigma2 overflows
    ])
    def test_overflowing_unsampled_sums_raise_typed_error(self, a, sigma2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = FrameTemplate(tuple(range(len(a))), a, sigma2, np.arange(len(a)) < 2)
            with pytest.raises(ModelValidationError, match="overflows float64"):
                mse_closed_form(t, 1.0)

    def test_finite_or_typed_error_across_the_float_range(self):
        # a and sigma2 log-uniform over 1e-150 .. 1e150: every layout either
        # raises a typed error or gives finite risks and a finite c, and no
        # step emits a RuntimeWarning.
        rng = np.random.default_rng(2026)
        finite = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(3000):
                N = int(rng.integers(3, 13))
                n = int(rng.integers(2, N))
                a = 10.0 ** rng.uniform(-150, 150, N)
                sigma2 = 10.0 ** rng.uniform(-150, 150, N)
                sampled = np.zeros(N, dtype=bool)
                sampled[rng.choice(N, n, replace=False)] = True
                try:
                    t = FrameTemplate(tuple(range(N)), a, sigma2, sampled)
                    report = mse_closed_form(t, 1.0)
                    e0 = max_excess_risk(t)
                    values = [report.mse_robust, report.mse_baseline, e0]
                    # half of a subnormal e0 can round to 0, not a valid budget
                    if 0.5 * e0 > 0:
                        values.append(calibrate_c(t, 0.5 * e0))
                except EstimationError:
                    continue
                assert all(math.isfinite(x) for x in values)
                finite += 1
        assert finite > 100

    @pytest.mark.filterwarnings("ignore::robust_fps.DegenerateFrameWarning")
    @settings(max_examples=60, deadline=None)
    @given(large_layouts(), st.floats(0.0, 4.0), st.floats(0.01, 2.0))
    def test_finite_or_typed_error_up_to_n_1e5(self, layout, c, budget_share):
        # Each call returns finite values or raises a typed error, and none
        # emits a RuntimeWarning; the frame itself may be rejected.
        def finite(call):
            try:
                return all(math.isfinite(x) for x in call())
            except EstimationError:
                return True

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                fr = PopulationFrame(*layout)
            except EstimationError:
                return
            assert finite(lambda: [classical_estimate(fr)])
            numbers = attrgetter("theta_hat_R", "ybar_P_R")
            for scaling in ("paper_v", "chambers_sigma"):
                config = RobustConfig(c=c, scaling=scaling)
                assert finite(lambda: np.hstack(numbers(robust_estimate(fr, config))))
            assert finite(lambda: vars(mse_closed_form(fr, c)).values())
            assert finite(lambda: [calibrate_c(fr, budget_share * max_excess_risk(fr))])
            keys = ("delta_k", "r_k", "v_k", "divergence_k")
            assert finite(lambda: [rec[k] for rec in influence(fr) for k in keys])
