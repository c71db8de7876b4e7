"""Module attributes that a traced run swaps for counting wrappers or calls by name.

A tracer counts the calls package code makes to ``risk.g_clip`` and
``simulate.mse_closed_form`` by replacing those module attributes for one
operation, and times generation and writing through the names below.  A
refactor that calls these functions through another name, or renames them,
would silently zero the counts; these tests pin the names and the call paths.
"""

import importlib

import numpy as np

from robust_fps import FrameTemplate, RobustConfig, robust_estimate

# The package re-exports functions named like some modules (divergence), so
# import the modules by their full names.
dataio, divergence, risk, simulate, streams = (
    importlib.import_module(f"robust_fps.{m}")
    for m in ("dataio", "divergence", "risk", "simulate", "streams")
)


def _counting(monkeypatch, module, attr):
    calls = []
    original = getattr(module, attr)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, wrapper)
    return calls


def _template(N=6, n=3):
    return FrameTemplate(tuple(range(N)), np.ones(N), np.ones(N), np.arange(N) < n)


def test_calibrate_calls_g_clip_through_the_risk_module(monkeypatch):
    calls = _counting(monkeypatch, risk, "g_clip")
    t = _template()
    risk.calibrate_c(t, 0.5 * risk.max_excess_risk(t))
    assert len(calls) > 2


def test_empirical_risk_calls_mse_closed_form_once_per_c(monkeypatch):
    calls = _counting(monkeypatch, simulate, "mse_closed_form")
    config = simulate.SimConfig(template=_template(), theta_true=1.0,
                                c_grid=(0.0, 0.5, 1.0, 2.0, 8.0), reps=50)
    simulate.empirical_risk(config)
    assert [args[1] for args in calls] == list(config.c_grid)


def test_generation_and_writer_names_exist():
    for fn in (simulate.ndtri, streams.batch_rep_uniforms, divergence.divergence,
               simulate.write_result_json, simulate.write_result_csv):
        assert callable(fn)


def test_build_report_takes_the_estimate_call_keywords():
    fr = _template().with_y([0.0, 1.0, 3.0])
    c = 1.0
    report = dataio.build_report(
        model={"family": "custom"}, frame=fr, classical=1.0,
        robust=robust_estimate(fr, RobustConfig(c=c)), risk=risk.mse_closed_form(fr, c),
        diagnostics=divergence.influence(fr, -0.5), flag_c=c,
    )
    assert [d["unit_id"] for d in report["diagnostics"]] == [0, 1, 2]
    assert report["risk"]["c"] == c
