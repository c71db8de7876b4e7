"""Model mappings, the frame's model sums and residuals, the baseline estimator, and the
one rule by which every number a caller passes is read."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robust_fps import (
    Contamination,
    DegenerateFrameError,
    DivergenceUndefinedError,
    FrameTemplate,
    GaussianSpec,
    ModelSpec,
    ModelValidationError,
    PopulationFrame,
    RobustConfig,
    SimConfig,
    build_model,
    calibrate_c,
    classical_estimate,
    divergence,
    g_clip,
    influence,
    max_excess_risk,
    mse_closed_form,
    psi_clip,
    robust_estimate,
)
from robust_fps.frame import FAMILIES
from robust_fps.risk import C_NORMAL

from conftest import frames, random_frame
from oracles import posterior_predictive


#: Auxiliaries of a two-unit frame with one unit sampled, for each family.
_AUX = {"ratio": {"x": [1, 3]}, "royall": {"x": [1, 3]}, "horvitz_thompson": {"pi": [0.5, 0.5]},
        "custom": {"a": [1, 3], "sigma2": [1, 3]}}


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

    @pytest.mark.parametrize("family, sigma", [
        pytest.param(family, sigma, id=str(sigma) if family == "ratio" else f"{family}-{sigma}")
        for family in FAMILIES for sigma in [1e200, 1.5e154, -1.0, 0.0, np.nan, np.inf, 1e-200]
    ])
    def test_ratio_sigma_without_a_finite_square_rejected(self, family, sigma):
        with pytest.raises(ModelValidationError) as info:
            build_model(
                ["1", "2"], ModelSpec(family, sigma=sigma), sampled=[True, False], y_sampled=[2.0],
                **_AUX[family],
            )
        assert str(info.value) == f"{family} family needs sigma > 0 with a finite, nonzero square"

    @pytest.mark.parametrize("sigma", [10**200, 10**400, -(10**400), "two", None],
                             ids=["int_1e200", "int_1e400", "int_-1e400", "str", "None"])
    def test_sigma_that_is_no_finite_float_rejected(self, sigma):
        # 10**200 is held as 1e200, whose square is inf; 10**400 has no float at all
        with pytest.raises(ModelValidationError) as info:
            ModelSpec("ratio", sigma=sigma)
        assert str(info.value) == "ratio family needs sigma > 0 with a finite, nonzero square"

    def test_int_sigma_builds_the_float_sigma_bits(self):
        frames = [build_model(["1", "2", "3"], ModelSpec("ratio", sigma=s), x=[1.5, 2.0, 3.0],
                              sampled=[True, True, False], y_sampled=[2.0, 3.5])
                  for s in (2, 2.0)]
        assert type(ModelSpec("ratio", sigma=2).sigma) is float
        assert frames[0].sigma2.tobytes() == frames[1].sigma2.tobytes()
        assert frames[0].a.tobytes() == frames[1].a.tobytes()

    @pytest.mark.parametrize("family, column", [
        (family, column) for family in FAMILIES for column in ("x", "pi", "a", "sigma2")
        if column not in FAMILIES[family][0]
    ])
    def test_a_column_the_family_does_not_read_is_rejected(self, family, column):
        with pytest.raises(ModelValidationError) as info:
            build_model(["1", "2"], ModelSpec(family), sampled=[True, False], y_sampled=[2.0],
                        **_AUX[family], **{column: [9.0, 9.0]})
        assert str(info.value) == f"{family} family does not read column(s) [{column!r}]"
        # None stands for a column not given.
        fr = build_model(["1", "2"], ModelSpec(family), sampled=[True, False], y_sampled=[2.0],
                         **_AUX[family], **{column: None})
        assert fr.n_units == 2

    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_missing_column_fails_its_shape_check(self, family):
        columns = FAMILIES[family][0]
        kept = {c: v for c, v in _AUX[family].items() if c != columns[-1]}
        with pytest.raises(ModelValidationError) as info:
            build_model(["1", "2"], ModelSpec(family), sampled=[True, False], y_sampled=[2.0],
                        **kept)
        assert str(info.value) == f"field {columns[-1]!r} has shape (), expected (2,)"

    def test_the_signature_names_no_column(self):
        params = inspect.signature(build_model).parameters
        assert not {c for columns, *_ in FAMILIES.values() for c in columns} & set(params)

    def test_custom_passthrough(self):
        fr = build_model(
            ["1", "2"], ModelSpec("custom"),
            a=[1.5, 2.5], sigma2=[0.5, 0.7], sampled=[True, False], y_sampled=[2.0],
        )
        assert np.allclose(fr.a, [1.5, 2.5])
        assert np.allclose(fr.sigma2, [0.5, 0.7])


def _family_layout(family, N=40, n=15, seed=26):
    """Unit ids, auxiliaries, sampled flags and sampled ``y`` for ``family``; two units are outliers."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.5, 3.0, N)
    sampled = np.arange(N) < n
    if family == "horvitz_thompson":
        x = n * x / x.sum()
        aux = {"pi": x}
    elif family == "custom":
        aux = {"a": x, "sigma2": rng.uniform(0.2, 2.0, N)}
    else:
        aux = {"x": x}
    y = 2.0 * x[sampled] + 0.3 * rng.standard_normal(n)
    y[:2] += [4.0, -3.0]
    return [f"u{i}" for i in range(N)], aux, sampled, y


#: ``(a, sigma2)`` of each family before ``sigma2 = sigma**2 * base`` was applied to every family.
_OLD_MAPS = {
    "ratio": lambda sigma, x: (x, sigma**2 * x),
    "royall": lambda sigma, x: (x, x**2),
    "horvitz_thompson": lambda sigma, pi: (pi, pi**2 / (1.0 - pi)),
    "custom": lambda sigma, a, sigma2: (a, sigma2),
}


class TestScaleFactor:
    """``sigma2 = sigma**2 * base`` for every family: a power-of-two scale moves no bit."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_sigma_one_keeps_the_old_bits(self, family):
        ids, aux, sampled, y = _family_layout(family)
        fr = build_model(ids, ModelSpec(family), sampled=sampled, y_sampled=y, **aux)
        a, sigma2 = _OLD_MAPS[family](1.0, *(np.asarray(aux[c]) for c in FAMILIES[family][0]))
        assert fr.a.tobytes() == np.asarray(a, dtype=float).tobytes()
        assert fr.sigma2.tobytes() == np.asarray(sigma2, dtype=float).tobytes()

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_y_and_sigma_times_a_power_of_two(self, family):
        ids, aux, sampled, y = _family_layout(family)
        c = 1.2

        def answers(j):
            s = 2.0**j
            fr = build_model(ids, ModelSpec(family, sigma=s), sampled=sampled, y_sampled=s * y,
                             **aux)
            robust = robust_estimate(fr, RobustConfig(c=c))
            return fr, robust, classical_estimate(fr), mse_closed_form(fr, c)

        fr0, robust0, classical0, risk0 = answers(0)
        assert 0 < len(robust0.clipped_units) < fr0.n_sampled
        budget = 0.3 * max_excess_risk(fr0)
        c0 = calibrate_c(fr0, budget)
        assert 0 < c0 < C_NORMAL
        for j in range(-3, 4):
            fr, robust, classical, risk = answers(j)
            s, s2 = 2.0**j, 4.0**j
            assert robust.theta_hat_R == s * robust0.theta_hat_R
            assert robust.ybar_P_R == s * robust0.ybar_P_R
            assert robust.clipped_units == robust0.clipped_units
            assert classical == s * classical0
            for name in ("mse_robust", "mse_baseline", "excess", "unseen_variance",
                         "estimation_variance", "clipping_penalty"):
                assert getattr(risk, name) == s2 * getattr(risk0, name), name
            assert (risk.g_of_c, risk.c) == (risk0.g_of_c, risk0.c)
            assert calibrate_c(fr, s2 * budget) == c0


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

    @pytest.mark.parametrize("ids", [(1, 1.0, 2), (1, True, 2), (0.0, -0.0, 2)])
    def test_ids_that_compare_equal_across_types_are_duplicates(self, ids):
        with pytest.raises(ModelValidationError, match="^duplicate unit_id$"):
            FrameTemplate(ids, [1, 1, 1], [1, 1, 1], [True, True, False])

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


_IDS3, _ONES3, _TWO_OF_3 = ("u1", "u2", "u3"), np.ones(3), np.array([True, True, False])
_THREE_SAMPLED = FrameTemplate(("u1", "u2", "u3", "u4"), np.ones(4), np.ones(4),
                               np.array([True, True, True, False]))


@pytest.mark.parametrize("build, message", [
    (lambda: FrameTemplate(_IDS3, np.ones(2), _ONES3, _TWO_OF_3),
     "field 'a' has shape (2,), expected (3,)"),
    (lambda: FrameTemplate(_IDS3, _ONES3, _ONES3, [True, False]),
     "field 'sampled' has shape (2,), expected (3,)"),
    (lambda: PopulationFrame(_IDS3, _ONES3, _ONES3, _TWO_OF_3, np.array([1.0, 2.0])),
     "field 'y' has shape (2,), expected (3,)"),
    (lambda: PopulationFrame(_IDS3, _ONES3, _ONES3, _TWO_OF_3, np.array([1.0, 2.0, 3.0])),
     "y given for unsampled unit(s) ['u3']"),
    (lambda: ModelSpec("linear"), "unknown family 'linear'"),
    (lambda: ModelSpec(["ratio"]), "unknown family ['ratio']"),
    (lambda: build_model(_IDS3, ModelSpec("royall"), x=_ONES3, sampled=[True, False],
                         y_sampled=[1.0]), "sampled flags must align with unit_id"),
    (lambda: _THREE_SAMPLED.with_y([5.0]), "expected 3 sampled y values, got (1,)"),
    (lambda: _THREE_SAMPLED.with_y([1.0, 2.0]), "expected 3 sampled y values, got (2,)"),
    (lambda: _THREE_SAMPLED.with_y(np.ones((3, 1))), "expected 3 sampled y values, got (3, 1)"),
], ids=["aux_shape", "sampled_shape", "y_shape", "y_on_unsampled", "unknown_family",
        "list_family", "flags_misaligned", "with_y_one_value", "with_y_too_few", "with_y_column"])
def test_model_validation_errors_name_their_cause(build, message):
    with pytest.raises(ModelValidationError) as info:
        build()
    assert str(info.value) == message


_UNIT_1 = ("u1",)
_FRAME_3 = _THREE_SAMPLED.with_y([1.0, 2.0, 4.0])
_SPEC_1 = GaussianSpec([0.0], [[1.0]])
#: Every entry point that reads a number a caller passes: the call, its error and its message.
_SCALAR_ENTRY_POINTS = {
    "ModelSpec": (lambda v: ModelSpec("ratio", sigma=v), ModelValidationError,
                  "ratio family needs sigma > 0 with a finite, nonzero square"),
    "RobustConfig_c": (lambda v: RobustConfig(c=v), ModelValidationError,
                       "c must be finite and >= 0"),
    "RobustConfig_max_excess": (lambda v: RobustConfig(max_excess=v), ModelValidationError,
                                "max_excess must be finite and > 0"),
    "psi_clip": (lambda v: psi_clip(np.ones(2), v), ModelValidationError,
                 "clipping constant must be finite and >= 0"),
    "g_clip": (g_clip, ModelValidationError, "clipping constant must be finite and >= 0"),
    "calibrate_c": (lambda v: calibrate_c(_FRAME_3, v), ModelValidationError,
                    "max_excess must be finite and > 0"),
    "SimConfig_theta_true": (lambda v: SimConfig(_THREE_SAMPLED, v), ModelValidationError,
                             "theta_true must be finite"),
    "SimConfig_c_grid": (lambda v: SimConfig(_THREE_SAMPLED, 0.0, c_grid=(1.0, v)),
                         ModelValidationError, "c_grid must be nonempty with finite c >= 0"),
    "shift": (lambda v: Contamination("shift", _UNIT_1, delta=v), ModelValidationError,
              "shift contamination needs a finite delta"),
    "variance_inflation": (lambda v: Contamination("variance_inflation", _UNIT_1, factor=v),
                           ModelValidationError, "variance inflation needs factor > 1"),
    "substitution": (lambda v: Contamination("substitution", _UNIT_1, value=v),
                     ModelValidationError, "substitution needs a finite value"),
    "divergence": (lambda v: divergence(_SPEC_1, _SPEC_1, v), DivergenceUndefinedError,
                   "order lam must be finite, got {!r}"),
    "influence": (lambda v: influence(_FRAME_3, v), DivergenceUndefinedError,
                  "order lam must be finite, got {!r}"),
}
_NO_FINITE_FLOAT = {"int_1e400": 10**400, "int_-1e400": -(10**400), "None": None, "str": "x",
                    "object": object(), "nan": math.nan, "inf": math.inf}


@pytest.mark.parametrize("entry", list(_SCALAR_ENTRY_POINTS))
@pytest.mark.parametrize("value", list(_NO_FINITE_FLOAT.values()), ids=list(_NO_FINITE_FLOAT))
def test_every_scalar_entry_point_rejects_a_value_with_no_finite_float(entry, value):
    call, error, message = _SCALAR_ENTRY_POINTS[entry]
    if value is None and entry.startswith("RobustConfig"):
        message = "exactly one of c and max_excess must be given"  # None leaves the field out
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value) == message.format(value)


def test_a_scalar_is_held_as_the_float_of_the_value_given():
    held = [RobustConfig(c=2).c, RobustConfig(max_excess=10**300).max_excess,
            SimConfig(_THREE_SAMPLED, 3).theta_true, *SimConfig(_THREE_SAMPLED, 0, c_grid=[1]).c_grid,
            Contamination("shift", _UNIT_1, delta=2).delta, RobustConfig(c=10**300).c]
    assert [type(x) for x in held] == [float] * 6
    assert held == [2.0, 1e300, 3.0, 1.0, 2.0, 1e300]


@pytest.mark.parametrize("call, error, message", [
    (lambda: build_model(["a", "b"], ModelSpec("ratio"), sampled=[True, False],
                         y_sampled=[10**400], x=[1, 1]),
     ModelValidationError, "y values must be numbers that fit in a float64"),
    (lambda: _THREE_SAMPLED.with_y([10**400, 1, 1]), ModelValidationError,
     "y values must be numbers that fit in a float64"),
    (lambda: _THREE_SAMPLED.with_y(["x", 1, 1]), ModelValidationError,
     "y values must be numbers that fit in a float64"),
    (lambda: PopulationFrame(_IDS3, _ONES3, _ONES3, _TWO_OF_3, [1, -(10**400), None]),
     ModelValidationError, "y values must be numbers that fit in a float64"),
    (lambda: build_model(["a", "b"], ModelSpec("ratio"), sampled=[True, False],
                         y_sampled=[1.0], x=[1, 10**400]),
     ModelValidationError, "x must be finite and > 0 for every unit"),
    (lambda: FrameTemplate(_IDS3, _ONES3, [1, "x", 1], _TWO_OF_3), ModelValidationError,
     "sigma2 must be finite and > 0 for every unit"),
    (lambda: GaussianSpec([10**400], [[1.0]]), DivergenceUndefinedError,
     "mu or cov has nonfinite entries"),
    (lambda: GaussianSpec([0.0], [[object()]]), DivergenceUndefinedError,
     "mu or cov has nonfinite entries"),
], ids=["build_model_y", "with_y_huge", "with_y_str", "frame_y", "build_model_x", "template_str",
        "gaussian_mu", "gaussian_cov"])
def test_an_array_entry_with_no_float_gets_the_typed_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
