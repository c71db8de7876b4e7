"""The traced run: the CLI's call chains, one public function per span.

Each ``traced_*`` function makes the same calls into the package's modules
that ``robust_fps.cli`` makes for that subcommand, in the same order, and
times each from here.  Calls made inside the package (``g_clip`` during
calibration, ``divergence`` during influence, ``mse_closed_form`` during
simulation) are counted or timed by swapping the module attribute for a
wrapper for the duration of one traced operation; nothing under src/ is
edited.  A traced operation writes the same output files as the CLI, so the
caller can check them byte for byte.
"""

from __future__ import annotations

import contextlib
import importlib
import time

# The package re-exports functions named like some modules (divergence), so
# import the modules by their full names.
dataio, divergence, estimators, frame, risk, simulate, streams = (
    importlib.import_module(f"robust_fps.{m}")
    for m in ("dataio", "divergence", "estimators", "frame", "risk", "simulate", "streams")
)

LAMBDA = -0.5


class Tracer:
    """Per-operation span totals (seconds) and counts, keyed by layer metric name."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, float] = {}

    def call(self, name, fn, *args, **kwargs):
        t = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - t

    @contextlib.contextmanager
    def wrapped(self, module, attr, name, *, timed=False):
        """Count (and optionally time) the calls other package code makes to ``module.attr``."""
        original = getattr(module, attr)
        self.counts.setdefault(name + ".calls", 0)

        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            if timed:
                return self.call(name, original, *args, **kwargs)
            return original(*args, **kwargs)

        setattr(module, attr, wrapper)
        try:
            yield
        finally:
            setattr(module, attr, original)


def traced_estimate(tr: Tracer, inp: dict, out_path: str) -> None:
    """``estimate --model ratio --max-excess B``: the calls of ``cli.cmd_estimate``."""
    fr = tr.call("dataio.read_frame_csv", dataio.read_frame_csv, inp["frame_path"], "ratio", sigma=1.0)
    with tr.wrapped(risk, "g_clip", "risk.g_clip"):
        c = tr.call("risk.calibrate_c", risk.calibrate_c, fr, inp["budget"])
    robust = tr.call("estimators.robust_estimate", estimators.robust_estimate, fr,
                     estimators.RobustConfig(c=c, scaling="paper_v"))
    classical = tr.call("frame.classical_estimate", frame.classical_estimate, fr)
    risk_report = tr.call("risk.mse_closed_form", risk.mse_closed_form, fr, c)
    with tr.wrapped(divergence, "divergence", "divergence.divergence"):
        diagnostics = tr.call("divergence.influence", divergence.influence, fr, LAMBDA)
    report = tr.call("dataio.build_report", dataio.build_report,
                     model={"family": "ratio", "sigma": 1.0}, frame=fr, classical=classical,
                     robust=robust, risk=risk_report, diagnostics=diagnostics, flag_c=c)
    tr.call("dataio.write_report", dataio.write_report, report, out_path)


def traced_calibrate(tr: Tracer, inp: dict) -> str:
    """``calibrate --model ratio --max-excess B``: returns what ``cli.cmd_calibrate`` prints."""
    fr = tr.call("dataio.read_frame_csv", dataio.read_frame_csv, inp["frame_path"], "ratio", sigma=1.0)
    with tr.wrapped(risk, "g_clip", "risk.g_clip"):
        c = tr.call("risk.calibrate_c", risk.calibrate_c, fr, inp["budget"])
    return f"{c:.12g}\n"


def traced_simulate(tr: Tracer, inp: dict, out_prefix: str):
    """``simulate --config F --out-prefix P``: the calls of ``cli.cmd_simulate``.

    Returns the parsed config, for the generation probe.
    """
    config = tr.call("dataio.read_sim_config", dataio.read_sim_config, inp["config_path"], None)
    with tr.wrapped(simulate, "mse_closed_form", "risk.mse_closed_form", timed=True):
        result = tr.call("simulate.empirical_risk", simulate.empirical_risk, config)
    tr.call("simulate.write_result", simulate.write_result_json, result, out_prefix + ".json")
    tr.call("simulate.write_result", simulate.write_result_csv, result, out_prefix + ".csv")
    tr.counts["simulate.failures"] = result.failures
    return config


def generation_probe(tr: Tracer, config) -> None:
    """Time the generation ``empirical_risk`` does first, at the same (reps, N) shape."""
    n_units = config.template.n_units
    u = tr.call("streams.batch_rep_uniforms", streams.batch_rep_uniforms, config.seed, config.reps, n_units)
    z = tr.call("streams.ndtri", simulate.ndtri, u)
    words = config.reps * 4 * -(-n_units // 4)
    tr.counts["streams.bytes_computed"] = 8 * words + u.nbytes + z.nbytes
    del u, z


def influence_gflop(n: int, M: int) -> float:
    """Flops of the dense delete-one path, computed from its shape.

    One M x M Cholesky for the full predictive, then per sampled unit two
    more (the reduced predictive and the divergence's mixed covariance), a
    triangular solve and about five elementwise M x M passes.
    """
    return ((2 * n + 1) * M**3 / 3.0 + n * 6.0 * M**2) / 1e9


def layer_metrics(tr: Tracer, inp: dict) -> dict[str, float]:
    """Per-operation layer numbers from one traced operation's spans and counts."""
    ms = {k: 1e3 * v for k, v in tr.seconds.items()}
    out = {f"{k}.ms": v for k, v in ms.items()}
    out.update(tr.counts)
    if "dataio.read_frame_csv" in tr.seconds:
        out["dataio.rows_per_s"] = inp["N"] / tr.seconds["dataio.read_frame_csv"]
    if "divergence.influence" in tr.seconds:
        out["divergence.influence.gflop_computed"] = influence_gflop(inp["n"], inp["N"] - inp["n"])
    if "simulate.empirical_risk" in tr.seconds:
        out["simulate.reduce_est.ms"] = (ms["simulate.empirical_risk"] - ms["streams.batch_rep_uniforms"]
                                         - ms["streams.ndtri"])
    return out


def traced_op(inp: dict, out: str) -> tuple[dict[str, float], float]:
    """Run one traced operation writing to ``out``.

    Returns its layer metrics and the wall time of the call chain alone
    (without the generation probe), for the tracing overhead.
    """
    tr = Tracer()
    t = time.perf_counter()
    config = None
    if inp["command"] == "estimate":
        traced_estimate(tr, inp, out)
    elif inp["command"] == "calibrate":
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(traced_calibrate(tr, inp))
    else:
        config = traced_simulate(tr, inp, out)
    chain_s = time.perf_counter() - t
    if config is not None:
        generation_probe(tr, config)
    return layer_metrics(tr, inp), chain_s

