"""Model mappings, the frame's model sums and residuals, and the baseline estimator."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robust_fps import (
    DegenerateFrameError,
    FrameTemplate,
    ModelSpec,
    ModelValidationError,
    PopulationFrame,
    build_model,
    classical_estimate,
)

from conftest import frames, random_frame
from oracles import posterior_predictive


class TestBuildModel:
    def test_ratio_mapping(self):
        fr = build_model(
            ["1", "2"], ModelSpec("ratio", sigma=1.0),
            x=[1, 3], sampled=[True, False], y_sampled=[2.0],
        )
        assert np.allclose(fr.a, [1, 3])
        assert np.allclose(fr.sigma2, [1, 3])

    def test_ratio_sigma_scales_variance(self):
        fr = build_model(
            ["1", "2"], ModelSpec("ratio", sigma=2.0),
            x=[1, 3], sampled=[True, False], y_sampled=[2.0],
        )
        assert np.allclose(fr.sigma2, [4, 12])

    def test_royall_mapping(self):
        fr = build_model(
            ["1", "2"], ModelSpec("royall"),
            x=[2, 5], sampled=[True, False], y_sampled=[1.0],
        )
        assert np.allclose(fr.a, [2, 5])
        assert np.allclose(fr.sigma2, [4, 25])

    def test_ht_mapping(self):
        fr = build_model(
            list("abcd"), ModelSpec("horvitz_thompson"),
            pi=[0.5, 0.5, 0.5, 0.5], sampled=[True, True, False, False],
            y_sampled=[1.0, 3.0],
        )
        assert np.allclose(fr.a, 0.5)
        assert np.allclose(fr.sigma2, 0.5)  # pi^2 / (1 - pi) at pi = 1/2

    def test_ht_pi_sum_must_match_sample_size(self):
        with pytest.raises(ModelValidationError, match="sum of pi"):
            build_model(
                list("abcd"), ModelSpec("horvitz_thompson"),
                pi=[0.3, 0.3, 0.3, 0.3], sampled=[True, True, False, False],
                y_sampled=[1.0, 3.0],
            )

    def test_ht_pi_sum_tolerance_absorbs_rounding(self):
        pi = [0.5, 0.5, 0.5, 0.5 + 5e-10]
        fr = build_model(
            list("abcd"), ModelSpec("horvitz_thompson"),
            pi=pi, sampled=[True, True, False, False], y_sampled=[1.0, 3.0],
        )
        assert fr.n_sampled == 2

    def test_ht_pi_out_of_range(self):
        for bad in ([0.0, 1.0], [1.0, 1.0], [-0.5, 2.5]):
            with pytest.raises(ModelValidationError):
                build_model(
                    ["1", "2"], ModelSpec("horvitz_thompson"),
                    pi=bad, sampled=[True, False], y_sampled=[1.0],
                )

    def test_nonpositive_x_rejected(self):
        with pytest.raises(ModelValidationError):
            build_model(
                ["1", "2"], ModelSpec("ratio"),
                x=[1, -3], sampled=[True, False], y_sampled=[2.0],
            )

    def test_missing_y_rejected(self):
        with pytest.raises(ModelValidationError):
            build_model(
                ["1", "2"], ModelSpec("ratio"),
                x=[1, 3], sampled=[True, True], y_sampled=[2.0],
            )

    def test_custom_passthrough(self):
        fr = build_model(
            ["1", "2"], ModelSpec("custom"),
            a=[1.5, 2.5], sigma2=[0.5, 0.7], sampled=[True, False], y_sampled=[2.0],
        )
        assert np.allclose(fr.a, [1.5, 2.5])
        assert np.allclose(fr.sigma2, [0.5, 0.7])


def _outlier_at_first(N=1005, n=1000):
    rng = np.random.default_rng(12)
    a, sigma2 = rng.uniform(0.2, 5.0, N), rng.uniform(0.1, 4.0, N)
    y = np.where(np.arange(N) < n, 2.0 * a + np.sqrt(sigma2) * rng.standard_normal(N), np.nan)
    y[0] = 1e8
    return PopulationFrame(tuple(range(N)), a, sigma2, np.arange(N) < n, y)


# Every y/a equal: the residuals are all rounding, and must still sum to zero.
_EQUAL_RATIOS = PopulationFrame(("u0", "u1", "u2"), np.array([1.5, 1.5, 1.0]),
                                np.array([1.0, 2.5, 1.0]), np.array([True, True, False]),
                                np.array([1.0, 1.0, np.nan]))
_OUTLIER_AT_FIRST = _outlier_at_first()


class TestSufficientStats:
    def test_equal_weight_symmetry(self):
        fr = _custom(a=[1, 1, 1], sigma2=[1, 1, 1], sampled=[1, 1, 0], y=[2, 4])
        assert fr.fit()[0] == pytest.approx(3.0)
        assert fr.S_aa == pytest.approx(2.0)
        assert np.allclose(fr.w, 0.5)

    def test_ratio_closed_form(self):
        fr = build_model(
            ["1", "2", "3"], ModelSpec("ratio", sigma=1.0),
            x=[1, 3, 2], sampled=[True, True, False], y_sampled=[2, 4],
        )
        assert fr.fit()[0] == pytest.approx(6 / 4)

    def test_residual_example(self):
        fr = _custom(a=[1, 1, 1], sigma2=[1, 1, 1], sampled=[1, 1, 0], y=[0, 2])
        r = fr.fit()[1]
        assert fr.v[0] ** 2 == pytest.approx(0.5)
        assert r[0] == pytest.approx((0 - 1) / np.sqrt(0.5))
        assert r[0] == pytest.approx(-1.414214, abs=5e-7)

    def test_single_unit_sample_has_no_residuals(self):
        fr = _custom(a=[1, 1], sigma2=[1, 1], sampled=[1, 0], y=[5])
        ybar_w, r = fr.fit()
        assert r is None
        assert ybar_w == pytest.approx(5.0)

    def test_empty_sample_rejected(self):
        with pytest.raises(DegenerateFrameError):
            PopulationFrame(
                ("1", "2"), np.array([1.0, 1.0]), np.array([1.0, 1.0]),
                np.array([False, False]), np.array([np.nan, np.nan]),
            )

    @settings(max_examples=60, deadline=None)
    @given(frames())
    def test_weights_normalize(self, fr):
        assert abs(fr.w.sum() - 1.0) <= 1e-12
        assert np.all(fr.w > 0)

    @settings(max_examples=60, deadline=None)
    @given(frames())
    @example(_EQUAL_RATIOS)
    @example(_OUTLIER_AT_FIRST)
    def test_weighted_residuals_sum_to_zero(self, fr):
        r = fr.fit()[1]
        scale = float((fr.w * fr.v * np.abs(r)).sum())
        total = float((fr.w * fr.v * r).sum())
        assert abs(total) <= 1e-10 * max(scale, 1e-300)


class TestFrameTemplate:
    def test_residuals_of_a_stack_equal_its_rows_bitwise(self):
        rng = np.random.default_rng(5)
        for n in (2, 7, 9, 100, 300):
            N = n + 5
            sampled = np.zeros(N, dtype=bool)
            sampled[rng.permutation(N)[:n]] = True
            t = FrameTemplate(tuple(range(N)), rng.uniform(0.2, 5, N), rng.uniform(0.1, 4, N), sampled)
            Ys = rng.normal(0, 3, (50, n))
            ybar_w, r = t.residuals(Ys)
            for k in range(Ys.shape[0]):
                ybar_k, r_k = t.residuals(Ys[k])
                assert ybar_w[k] == ybar_k
                assert np.array_equal(r[k], r_k)

    @pytest.mark.parametrize("a, sigma2", [
        ([1e-170, 1e-170, 1.0], [1.0, 1.0, 1.0]),   # every a^2 underflows: S_aa = 0
        ([1e160, 1.0, 1.0], [1.0, 1.0, 1.0]),       # a^2 overflows: h = inf
        ([1e-170, 1.0, 1.0], [1.0, 1.0, 1.0]),      # h = 0, sigma2/a^2 = inf
        ([1e-160, 1.0, 1.0], [1e-8, 1.0, 1.0]),     # h subnormal, sigma2/a^2 = inf
    ])
    def test_extreme_layouts_name_the_unit(self, a, sigma2):
        with pytest.raises(ModelValidationError, match="sampled unit 'u1' is out of float64 range"):
            FrameTemplate(("u1", "u2", "u3"), a, sigma2, [True, True, False])

    @pytest.mark.parametrize("a1, sigma2_1", [
        # v_1^2 rounds to 3.1e-33 > 0 (50 digits: v_1 = 2.1e-17), S_aa - h_1 to 0
        (304163979.3970095, 1.9321969772920644),
        # v_1^2 rounds to 0, S_aa - h_1 to 1
        (95733985.9774, 1.1139),
    ])
    def test_near_dominated_layouts_name_the_unit(self, a1, sigma2_1):
        with pytest.raises(DegenerateFrameError, match="S_aa - h_k <= 0 for unit '1'"):
            FrameTemplate(("1", "2", "3"), [a1, 1, 1], [sigma2_1, 1, 1], [True, True, False])

    def test_prediction_needs_two_sampled_and_one_unsampled_unit(self):
        def layout(*sampled):
            return FrameTemplate(tuple(range(len(sampled))), [1] * len(sampled),
                                 [1] * len(sampled), sampled)

        layout(True, True, False).require_prediction("x")
        with pytest.raises(DegenerateFrameError, match="^x needs at least 2 sampled units$"):
            layout(True, False).require_prediction("x")
        with pytest.raises(DegenerateFrameError, match="^census frame has no unsampled units for x$"):
            layout(True, True).require_prediction("x")


class TestClassicalEstimate:
    def test_ratio_example(self):
        fr = build_model(
            ["1", "2", "3"], ModelSpec("ratio", sigma=1.0),
            x=[1, 3, 2], sampled=[True, True, False], y_sampled=[2, 4],
        )
        est = classical_estimate(fr)
        assert est == pytest.approx(3.0)
        # agrees with the textbook ratio form (ybar_s / xbar_s) * xbar_P
        assert est == pytest.approx((3.0 / 2.0) * 2.0)

    def test_ht_example(self):
        fr = build_model(
            list("abcd"), ModelSpec("horvitz_thompson"),
            pi=[0.5] * 4, sampled=[True, True, False, False], y_sampled=[1, 3],
        )
        est = classical_estimate(fr)
        assert est == pytest.approx(2.0)
        assert est == pytest.approx((1 / 0.5 + 3 / 0.5) / 4)

    def test_census_returns_exact_mean(self):
        fr = _custom(a=[1, 2, 1], sigma2=[1, 1, 2], sampled=[1, 1, 1], y=[1, 2, 3])
        assert classical_estimate(fr) == pytest.approx(2.0)

    def test_royall_closed_form(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0.5, 4, 6)
        y_s = rng.normal(2 * x[:4], x[:4])
        fr = build_model(
            [str(i) for i in range(6)], ModelSpec("royall"),
            x=x, sampled=[True] * 4 + [False] * 2, y_sampled=y_s,
        )
        expected = (y_s.sum() + (y_s / x[:4]).mean() * x[4:].sum()) / 6
        assert classical_estimate(fr) == pytest.approx(expected, rel=1e-13)

    def test_ratio_closed_form_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            N = int(rng.integers(3, 9))
            n = int(rng.integers(2, N))
            x = rng.uniform(0.5, 4, N)
            y_s = rng.normal(x[:n], np.sqrt(x[:n]))
            fr = build_model(
                [str(i) for i in range(N)], ModelSpec("ratio", sigma=float(rng.uniform(0.5, 2))),
                x=x, sampled=[True] * n + [False] * (N - n), y_sampled=y_s,
            )
            expected = y_s.mean() / x[:n].mean() * x.mean()
            assert classical_estimate(fr) == pytest.approx(expected, rel=1e-13)

    def test_ht_closed_form_random(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            N = int(rng.integers(4, 10))
            n = int(rng.integers(2, N - 1))
            raw = rng.uniform(0.2, 1.0, N)
            pi = raw * n / raw.sum()
            if np.any(pi >= 1):
                continue
            y_s = rng.normal(pi[:n], 0.3)
            fr = build_model(
                [str(i) for i in range(N)], ModelSpec("horvitz_thompson"),
                pi=pi, sampled=[True] * n + [False] * (N - n), y_sampled=y_s,
            )
            expected = (y_s / pi[:n]).sum() / N
            assert classical_estimate(fr) == pytest.approx(expected, rel=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(frames(), st.floats(-3, 3, allow_nan=False))
    def test_location_equivariance(self, fr, c):
        shifted = fr.with_y(fr.y[fr.sampled] + c * fr.a[fr.sampled])
        (ybar0, r0), (ybar1, r1) = fr.fit(), shifted.fit()
        assert ybar1 == pytest.approx(ybar0 + c, abs=1e-9 * (1 + abs(ybar0) + abs(c)))
        assert np.allclose(r1, r0, atol=1e-8)
        lhs = classical_estimate(shifted)
        rhs = classical_estimate(fr) + c * fr.a.sum() / fr.n_units
        assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(rhs)))

    @settings(max_examples=40, deadline=None)
    @given(frames(), st.floats(0.25, 4, allow_nan=False), st.booleans())
    def test_scale_equivariance(self, fr, mag, flip):
        c = -mag if flip else mag
        scaled = PopulationFrame(
            fr.unit_id, fr.a, c**2 * fr.sigma2, fr.sampled,
            np.where(fr.sampled, c * fr.y, np.nan),
        )
        (ybar0, r0), (ybar1, r1) = fr.fit(), scaled.fit()
        assert ybar1 == pytest.approx(c * ybar0, rel=1e-10, abs=1e-12)
        assert np.allclose(scaled.v, abs(c) * fr.v, rtol=1e-10)
        assert np.allclose(r1, np.sign(c) * r0, rtol=1e-8, atol=1e-10)


class TestPosteriorPredictive:
    def test_two_unit_example(self):
        fr = _custom(a=[1, 1], sigma2=[1, 1], sampled=[1, 0], y=[5])
        g = posterior_predictive(fr)
        assert g.mu == pytest.approx([5.0])
        assert np.allclose(g.cov, [[2.0]])

    def test_three_unit_example(self):
        fr = _custom(a=[1, 1, 1], sigma2=[1, 1, 1], sampled=[1, 1, 0], y=[0, 2])
        g = posterior_predictive(fr)
        assert g.mu == pytest.approx([1.0])
        assert np.allclose(g.cov, [[1.5]])

    def test_census_raises(self):
        fr = _custom(a=[1, 1], sigma2=[1, 1], sampled=[1, 1], y=[1, 2])
        with pytest.raises(DegenerateFrameError):
            posterior_predictive(fr)

    def test_rank_one_structure(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            fr = random_frame(rng, n_min=2, n_max=5, extra_max=4)
            g = posterior_predictive(fr)
            gap = g.cov - np.diag(fr.sigma2[~fr.sampled])
            assert np.linalg.matrix_rank(gap, tol=1e-10) <= 1


def _custom(a, sigma2, sampled, y):
    sampled = [bool(s) for s in sampled]
    return build_model(
        [str(i) for i in range(len(a))], ModelSpec("custom"),
        a=a, sigma2=sigma2, sampled=sampled, y_sampled=y,
    )
