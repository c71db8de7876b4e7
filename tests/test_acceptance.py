"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erfc

from robust_fps import (
    GaussianSpec,
    ModelSpec,
    RobustConfig,
    build_model,
    calibrate_c,
    classical_estimate,
    divergence,
    excess_risk,
    g_clip,
    influence,
    max_excess_risk,
    robust_estimate,
)
from robust_fps.cli import main
from robust_fps.simulate import (
    Contamination,
    FrameTemplate,
    SimConfig,
    _generate_batch,
    empirical_risk,
)

from conftest import random_frame
from oracles import divergence_mc_oracle, simulate_once, theta_sq_error_and_cross


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _phi(r):
    return math.exp(-0.5 * r * r) / math.sqrt(2 * math.pi)


def _theta(fr, c):
    return robust_estimate(fr, RobustConfig(c=c)).theta_hat_R


def test_criterion_1_g_oracle():
    t0 = time.time()
    worst = 0.0
    for c in np.arange(0.0, 4.01, 0.25):
        c = float(c)
        quad, _ = integrate.quad(
            lambda r: (r - c) ** 2 * _phi(r), c, np.inf, epsabs=1e-10, epsrel=1e-10
        )
        worst = max(worst, abs(g_clip(c) - 2.0 * quad))
    # the sign-flipped variant at c = 1, recorded to document the defect it
    # would introduce (a negative second moment)
    flipped = 2.0 * (2.0 * 0.5 * erfc(1 / math.sqrt(2)) - 2.0 * _phi(1.0))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and flipped < 0 and elapsed < 1.0
    _verdict(
        1, ok,
        f"g matches quadrature to {worst:.2e} (<=1e-8) on c in 0..4; "
        f"doubled-density variant at c=1 gives {flipped:.6f} (negative, rejected); "
        f"{elapsed:.2f}s",
    )


def _cov3(diag, off):
    m = np.diag(np.asarray(diag, dtype=float))
    m[0, 1] = m[1, 0] = off
    m[1, 2] = m[2, 1] = off / 2
    return m


DIVERGENCE_GRID = [
    (-0.9, [0.0], [[1.0]], [0.8], [[1.5]]),
    (-0.9, [0, 0, 0], _cov3([1, 1, 1], 0.1), [0.5, 0, -0.5], _cov3([1.4, 1.2, 1.3], 0.15)),
    (-0.5, [0.0], [[1.0]], [2.0], [[1.0]]),
    (-0.5, [0, 0, 0], _cov3([1, 2, 1], 0.2), [1, 0, 1], _cov3([2, 1, 1.5], 0.1)),
    (-0.1, [0.0], [[1.0]], [1.0], [[2.0]]),
    (-0.1, [0, 0, 0], _cov3([1, 1, 2], 0.15), [0.5, 0.5, 0.5], _cov3([1.5, 1, 1], 0.2)),
    (0.25, [0.0], [[1.5]], [1.0], [[1.0]]),
    (0.25, [0, 0, 0], _cov3([1.5, 1.2, 1], 0.1), [0.6, 0, 0.6], _cov3([1, 1, 1.2], 0.1)),
    (0.5, [0.0], [[1.2]], [0.8], [[1.0]]),
    (0.5, [0, 0, 0], _cov3([1.2, 1, 1.1], 0.1), [0.5, 0.5, 0], _cov3([1, 1.1, 1], 0.05)),
    (1.0, [0.0], [[1.0]], [0.6], [[1.3]]),
    (1.0, [0, 0, 0], _cov3([1, 1, 1], 0.05), [0.4, -0.4, 0.2], _cov3([1.3, 1.25, 1.35], 0.1)),
]


def test_criterion_2_divergence_oracle():
    t0 = time.time()
    worst_z = 0.0
    for i, (lam, m1, c1, m2, c2) in enumerate(DIVERGENCE_GRID):
        f1, f2 = GaussianSpec(m1, c1), GaussianSpec(m2, c2)
        closed = divergence(f1, f2, lam)
        res = divergence_mc_oracle(f1, f2, lam, draws=1_000_000, seed=1000 + i)
        assert res.n_nonfinite == 0
        worst_z = max(worst_z, abs(res.estimate - closed) / res.std_error)

    # KL limit continuity
    pairs = [
        (GaussianSpec([0.0], [[1.0]]), GaussianSpec([1.0], [[1.0]])),
        (GaussianSpec([0, 0], np.eye(2)), GaussianSpec([0.5, -0.5], [[1.5, 0.2], [0.2, 0.8]])),
    ]
    cont_worst = 0.0
    for f1, f2 in pairs:
        kl = divergence(f1, f2, 0.0)
        for eps in (1e-4, -1e-4):
            cont_worst = max(cont_worst, abs(divergence(f1, f2, eps) - kl))

    # Hellinger identity against the scalar-normal affinity closed form
    hell_worst = 0.0
    rng = np.random.default_rng(8)
    for _ in range(10):
        mu1, mu2 = rng.normal(0, 2, 2)
        s1, s2 = rng.uniform(0.4, 3.0, 2)
        bc = math.sqrt(2 * s1 * s2 / (s1**2 + s2**2)) * math.exp(
            -((mu1 - mu2) ** 2) / (4 * (s1**2 + s2**2))
        )
        want = 4.0 * (1.0 - bc)
        got = divergence(GaussianSpec([mu1], [[s1**2]]), GaussianSpec([mu2], [[s2**2]]), -0.5)
        hell_worst = max(hell_worst, abs(got - want) / want)

    elapsed = time.time() - t0
    ok = worst_z <= 3.0 and cont_worst <= 1e-3 and hell_worst <= 1e-10 and elapsed < 60
    _verdict(
        2, ok,
        f"closed form within 3 SE of 1e6-draw oracle on 12 configs (worst z={worst_z:.2f}); "
        f"KL-limit continuity {cont_worst:.2e} (<=1e-3); Hellinger identity rel err "
        f"{hell_worst:.2e} (<=1e-10); {elapsed:.1f}s",
    )


def test_criterion_3_estimator_identities():
    t0 = time.time()
    rng = np.random.default_rng(303)

    worst_rel = 0.0
    for _ in range(10_000):
        fr = random_frame(rng)
        ybar_w, r = fr.fit()
        c = float(rng.uniform(0, 3))
        wv = fr.w * fr.v
        clipped = np.clip(r, -c, c)
        direct = ybar_w + float(wv @ clipped)
        subtract = ybar_w - float(wv @ (r - clipped))
        scale = max(abs(direct), abs(subtract), float(wv @ np.abs(r)), 1e-30)
        worst_rel = max(worst_rel, abs(direct - subtract) / scale)
    forms_ok = worst_rel <= 1e-12

    ends_ok = True
    for _ in range(200):
        fr = random_frame(rng)
        ybar_w, r = fr.fit()
        t_zero = _theta(fr, 0.0)
        t_big = _theta(fr, float(np.abs(r).max()))
        tol = 1e-12 * max(1.0, abs(ybar_w))
        ends_ok &= abs(t_zero - ybar_w) <= tol and t_big == ybar_w

    # named special cases against their closed forms
    special_ok = True
    for _ in range(200):
        N = int(rng.integers(3, 10))
        n = int(rng.integers(2, N))
        x = rng.uniform(0.5, 4, N)
        sig = float(rng.uniform(0.5, 2))
        y_s = rng.normal(x[:n], np.sqrt(x[:n]))
        fr = build_model(
            [str(i) for i in range(N)], ModelSpec("ratio", sigma=sig),
            x=x, sampled=[True] * n + [False] * (N - n), y_sampled=y_s,
        )
        want = y_s.mean() / x[:n].mean() * x.mean()
        special_ok &= math.isclose(classical_estimate(fr), want, rel_tol=1e-13)

        fr_roy = build_model(
            [str(i) for i in range(N)], ModelSpec("royall"),
            x=x, sampled=[True] * n + [False] * (N - n), y_sampled=y_s,
        )
        want_roy = (y_s.sum() + (y_s / x[:n]).mean() * x[n:].sum()) / N
        special_ok &= math.isclose(classical_estimate(fr_roy), want_roy, rel_tol=1e-13)

        raw = rng.uniform(0.2, 1.0, N)
        pi = raw * n / raw.sum()
        if np.all(pi < 1):
            fr_ht = build_model(
                [str(i) for i in range(N)], ModelSpec("horvitz_thompson"),
                pi=pi, sampled=[True] * n + [False] * (N - n), y_sampled=y_s,
            )
            want_ht = float((y_s / pi[:n]).sum() / N)
            special_ok &= math.isclose(classical_estimate(fr_ht), want_ht, rel_tol=1e-13)

    equivariance_ok = True
    for _ in range(300):
        fr = random_frame(rng)
        c = float(rng.uniform(0, 3))
        shift = float(rng.normal(0, 2))
        scale_f = float(rng.uniform(0.3, 3))
        theta0 = _theta(fr, c)
        theta1 = _theta(fr.with_y(fr.y[fr.sampled] + shift * fr.a[fr.sampled]), c)
        equivariance_ok &= abs(theta1 - (theta0 + shift)) <= 1e-10 * max(1.0, abs(theta0) + abs(shift))

        from robust_fps import PopulationFrame

        fr_sc = PopulationFrame(
            fr.unit_id, fr.a, scale_f**2 * fr.sigma2, fr.sampled,
            np.where(fr.sampled, scale_f * fr.y, np.nan),
        )
        theta_sc = _theta(fr_sc, c)
        equivariance_ok &= abs(theta_sc - scale_f * theta0) <= 1e-10 * max(1.0, abs(scale_f * theta0))

    elapsed = time.time() - t0
    ok = forms_ok and ends_ok and special_ok and equivariance_ok and elapsed < 10
    _verdict(
        3, ok,
        f"direct/overflow forms agree on 1e4 frames (worst rel {worst_rel:.2e} <= 1e-12); "
        f"c=0 and c>=max|r| recover ybar_w: {ends_ok}; ratio/HT/royall closed forms: "
        f"{special_ok}; location/scale equivariance to 1e-10: {equivariance_ok}; {elapsed:.1f}s",
    )


def test_criterion_4_influence():
    from robust_fps import PopulationFrame

    t0 = time.time()
    rng = np.random.default_rng(404)
    worst_rel = 0.0
    for _ in range(1000):
        fr = random_frame(rng)
        recs = influence(fr)
        s_idx = np.flatnonzero(fr.sampled)
        for k, rec in enumerate(recs):
            sampled2 = fr.sampled.copy()
            sampled2[s_idx[k]] = False
            fr2 = PopulationFrame(
                fr.unit_id, fr.a, fr.sigma2, sampled2, np.where(sampled2, fr.y, np.nan)
            )
            delta_direct = fr.fit()[0] - fr2.fit()[0]
            denom = max(abs(delta_direct), 1e-12)
            worst_rel = max(worst_rel, abs(rec["delta_k"] - delta_direct) / denom)
    closed_ok = worst_rel <= 1e-10

    base = build_model(
        ["1", "2", "3", "4", "5"], ModelSpec("custom"),
        a=[1, 1.5, 2, 1, 1], sigma2=[1, 2, 1.5, 1, 1],
        sampled=[True, True, True, False, False], y_sampled=[1.0, 3.0, 4.0],
    )
    sq_resid, div_k = [], []
    for yk in np.linspace(-6, 8, 41):
        fr = base.with_y(np.array([yk, 3.0, 4.0]))
        sq_resid.append((yk / fr.a[0] - fr.fit()[0]) ** 2)
        div_k.append(influence(fr)[0]["divergence_k"])
    order = np.argsort(sq_resid)
    monotone_ok = bool(np.all(np.diff(np.array(div_k)[order]) >= -1e-12))

    elapsed = time.time() - t0
    ok = closed_ok and monotone_ok and elapsed < 10
    _verdict(
        4, ok,
        f"delete-one shift closed form matches recomputation on 1e3 frames "
        f"(worst rel {worst_rel:.2e} <= 1e-10); divergence monotone in squared "
        f"residual: {monotone_ok}; {elapsed:.1f}s",
    )


def _profile_template():
    rng = np.random.default_rng(515)
    N, n = 20, 10
    a = rng.uniform(0.5, 2.0, N)
    sigma2 = rng.uniform(0.5, 2.0, N)
    sampled = np.array([True] * n + [False] * (N - n))
    return FrameTemplate(tuple(f"u{i}" for i in range(N)), a, sigma2, sampled)


def test_criterion_5_mse_profile():
    t0 = time.time()
    template = _profile_template()
    config = SimConfig(
        template=template, theta_true=1.0, contamination=Contamination(),
        c_grid=(0.0, 1.0, 2.0, 8.0), reps=100_000, seed=2024,
    )
    res = empirical_risk(config)
    rows = {row.c: (i, row) for i, row in enumerate(res.rows)}

    s = template.sampled
    prec = template.a[s] ** 2 / template.sigma2[s]
    S_aa = float(prec.sum())
    w = prec / S_aa
    v2 = template.sigma2[s] / template.a[s] ** 2 - 1.0 / S_aa
    sum_w2v2 = float((w**2 * v2).sum())

    # c = 8: population-level MSE vs the unclipped baseline closed form
    _, row8 = rows[8.0]
    N = template.n_units
    sum_au = float(template.a[~s].sum())
    baseline = (float(template.sigma2[~s].sum()) + sum_au**2 / S_aa) / N**2
    pass8 = abs(row8.emp_mse_pop - baseline) <= 3 * row8.se_pop

    # c = 0: clipping everything reproduces the weighted mean, so the
    # location MSE is 1/S_aa while the formula predicts sum_w2v2 more
    _, row0 = rows[0.0]
    pass0a = abs(row0.emp_mse_theta - 1.0 / S_aa) <= 3 * row0.se_theta
    gap0 = row0.theo_mse_theta - row0.emp_mse_theta
    pass0b = abs(gap0 - sum_w2v2) <= 3 * row0.se_theta

    # c in {1, 2}: the formula gap equals the measured pairwise overflow term
    cross_ok = True
    details = []
    for c in (1.0, 2.0):
        i, row = rows[c]
        sq_theta, cross = theta_sq_error_and_cross(config, c)
        d = sq_theta - cross - row.theo_mse_theta
        se_d = float(d.std(ddof=1) / math.sqrt(d.shape[0]))
        z = abs(float(d.mean())) / se_d
        cross_ok &= z <= 3.0
        details.append(f"c={c}: z={z:.2f}")

    elapsed = time.time() - t0
    ok = pass8 and pass0a and pass0b and cross_ok and elapsed < 120
    _verdict(
        5, ok,
        f"c=8 pop MSE within 3 SE of baseline: {pass8}; c=0 location MSE = 1/S_aa: "
        f"{pass0a}; c=0 formula gap = sum(w^2 v^2) within 3 SE: {pass0b}; cross-term "
        f"explains gap ({'; '.join(details)}); reps=1e5; {elapsed:.1f}s",
    )


def test_criterion_6_calibration_round_trip():
    t0 = time.time()
    frame = build_model(
        [str(i) for i in range(8)], ModelSpec("custom"),
        a=[1, 2, 0.5, 1.5, 1, 1, 2, 0.8], sigma2=[1, 0.5, 2, 1, 1.2, 0.8, 1, 1],
        sampled=[True] * 5 + [False] * 3, y_sampled=[1.0, 2.0, 0.5, 1.5, 1.0],
    )
    e0 = max_excess_risk(frame)
    budgets = np.geomspace(1e-6, 0.999, 50) * e0
    worst_rel = 0.0
    cs = []
    for m in budgets:
        c = calibrate_c(frame, float(m))
        cs.append(c)
        worst_rel = max(worst_rel, abs(excess_risk(frame, c) - float(m)) / float(m))
    antitone = all(c1 >= c2 for c1, c2 in zip(cs, cs[1:]))
    elapsed = time.time() - t0
    ok = worst_rel <= 1e-10 and antitone and elapsed < 1.0
    _verdict(
        6, ok,
        f"50 log-spaced budgets invert with worst rel err {worst_rel:.2e} (<=1e-10); "
        f"antitone: {antitone}; {elapsed:.2f}s",
    )


def test_criterion_7_robustness_ordering():
    t0 = time.time()
    template = _profile_template()
    s = template.sampled
    prec = template.a[s] ** 2 / template.sigma2[s]
    S_aa = float(prec.sum())
    v0 = math.sqrt(float(template.sigma2[s][0] / template.a[s][0] ** 2 - 1.0 / S_aa))
    target_unit = tuple(np.array(template.unit_id)[s])[0]
    a0 = float(template.a[s][0])
    theta_true = 1.0
    value = theta_true * a0 + 10.0 * v0 * a0
    config = SimConfig(
        template=template, theta_true=theta_true,
        contamination=Contamination("substitution", units=(target_unit,), value=value),
        c_grid=(1.0,), reps=100_000, seed=7070,
    )
    res = empirical_risk(config)
    row = res.rows[0]
    ordered = row.emp_mse_pop < row.classical_mse
    elapsed = time.time() - t0
    ok = ordered and elapsed < 60
    _verdict(
        7, ok,
        f"substituted outlier at {value:.2f} (10 residual scales): robust MSE "
        f"{row.emp_mse_pop:.3e} < classical {row.classical_mse:.3e} over 1e5 reps; "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_determinism(tmp_path):
    config_doc = {
        "frame": {
            "unit_id": [f"u{i}" for i in range(8)],
            "a": [1, 1.5, 0.5, 2, 1, 1, 1, 1],
            "sigma2": [1, 1, 2, 0.5, 1, 1.5, 1, 1],
            "sampled": [True, True, True, True, False, False, False, False],
        },
        "theta_true": 0.5,
        "contamination": {"kind": "shift", "units": ["u1"], "delta": 3.0},
        "c_grid": [0.0, 1.0, 2.0],
        "reps": 20000,
        "seed": 99,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config_doc))
    prefixes = [tmp_path / "run1", tmp_path / "run2"]
    for p in prefixes:
        assert main(["simulate", "--config", str(cfg), "--out-prefix", str(p)]) == 0
    csv_same = (tmp_path / "run1.csv").read_bytes() == (tmp_path / "run2.csv").read_bytes()
    json_same = (tmp_path / "run1.json").read_bytes() == (tmp_path / "run2.json").read_bytes()

    # schedule-independence evidence: every replication owns a counter-based
    # substream, so per-rep regeneration matches the batched run exactly
    from robust_fps.dataio import read_sim_config

    config = read_sim_config(cfg)
    Y = _generate_batch(config)
    slices_match = all(
        np.array_equal(simulate_once(config, r).y, Y[r]) for r in (0, 1, 999, 19_999)
    )
    ok = csv_same and json_same and slices_match
    _verdict(
        8, ok,
        f"repeated runs byte-identical (csv: {csv_same}, json: {json_same}); "
        f"per-replication substreams match the batched schedule: {slices_match}",
    )
