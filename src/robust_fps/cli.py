"""Command-line front end.

Subcommands: estimate, calibrate, diagnose, simulate, divergence.  The CLI
is a thin shell over the library; every number it emits is the value the
corresponding library call returns.

Exit codes: 0 success, 2 parse error (malformed CSV/JSON/flags), 3
validation error (model invariants, degenerate frames, non-PD matrices),
4 conflicting clipping flags.

``simulate`` imports the Monte Carlo harness (``numpy.random``, a thread
pool, later ``scipy.special``) in its own body, so the estimation
subcommands start on numpy alone.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import dataio
from .divergence import GaussianSpec, divergence, influence, symmetrized_divergence
from .errors import DegenerateFrameError, EstimationError
from .estimators import RobustConfig, robust_estimate
from .frame import classical_estimate
from .risk import calibrate_c, mse_closed_form

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_FLAG_CONFLICT = 4

#: ``--model`` names of the model families of ``frame.FAMILIES``.
MODEL_NAMES = {"ratio": "ratio", "royall": "royall", "ht": "horvitz_thompson", "custom": "custom"}


def _add_frame_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--frame", required=True, help="frame CSV path")
    parser.add_argument(
        "--model", required=True, choices=sorted(MODEL_NAMES), help="model family"
    )
    parser.add_argument(
        "--sigma", type=float, default=1.0, help="scale for the ratio family (default 1)"
    )


def _load_frame(args):
    """The frame of ``--frame`` under ``--model``, and the report's ``model`` block."""
    family = MODEL_NAMES[args.model]
    model = {"family": family, "sigma": args.sigma} if family == "ratio" else {"family": family}
    return dataio.read_frame_csv(args.frame, family, sigma=args.sigma), model


def cmd_estimate(args) -> int:
    if (args.c is None) == (args.max_excess is None):
        print("error: exactly one of --c and --max-excess is required", file=sys.stderr)
        return EXIT_FLAG_CONFLICT
    scaling = "paper_v" if args.scaling == "paper" else "chambers_sigma"
    config = RobustConfig(c=args.c, max_excess=args.max_excess, scaling=scaling)
    frame, model = _load_frame(args)
    robust = robust_estimate(frame, config)
    c = robust.c_used
    classical = classical_estimate(frame)
    try:
        risk = mse_closed_form(frame, c) if scaling == "paper_v" else None
        diagnostics = influence(frame, args.lam)
    except DegenerateFrameError:
        risk, diagnostics = None, []
    report = dataio.build_report(
        model=model,
        frame=frame,
        classical=classical,
        robust=robust,
        risk=risk,
        diagnostics=diagnostics,
        flag_c=c,
    )
    dataio.write_report(report, args.out)
    return EXIT_OK


def cmd_calibrate(args) -> int:
    config = RobustConfig(max_excess=args.max_excess)
    c = calibrate_c(_load_frame(args)[0], config.max_excess)
    print(f"{c:.12g}")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    flag_c = None if args.c is None else RobustConfig(c=args.c).c
    frame, model = _load_frame(args)
    diagnostics = influence(frame, args.lam)
    report = dataio.build_report(model=model, frame=frame, diagnostics=diagnostics, flag_c=flag_c)
    dataio.write_report(report, args.out or None)
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .simulate import empirical_risk, write_result_csv, write_result_json

    config = dataio.read_sim_config(args.config, args.seed)
    result = empirical_risk(config)
    write_result_json(result, args.out_prefix + ".json")
    write_result_csv(result, args.out_prefix + ".csv")
    return EXIT_OK


def cmd_divergence(args) -> int:
    f1 = GaussianSpec(dataio.parse_vector(args.mu1), dataio.parse_matrix(args.cov1))
    f2 = GaussianSpec(dataio.parse_vector(args.mu2), dataio.parse_matrix(args.cov2))
    if args.symmetrized:
        value = symmetrized_divergence(f1, f2, args.lam)
    else:
        value = divergence(f1, f2, args.lam)
    print(repr(value))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="robust-fps",
        description="Outlier-resistant estimation of finite population means",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="classical + robust estimates with risk and diagnostics")
    _add_frame_flags(p_est)
    p_est.add_argument("--c", type=float, default=None, help="clipping constant")
    p_est.add_argument("--max-excess", type=float, default=None, help="excess-risk budget")
    p_est.add_argument("--scaling", choices=["paper", "chambers"], default="paper")
    p_est.add_argument("--lambda", dest="lam", type=float, default=-0.5, help="divergence order")
    p_est.add_argument("--out", required=True, help="report JSON path")
    p_est.set_defaults(func=cmd_estimate)

    p_cal = sub.add_parser("calibrate", help="solve the clipping constant from an excess budget")
    _add_frame_flags(p_cal)
    p_cal.add_argument("--max-excess", type=float, required=True)
    p_cal.set_defaults(func=cmd_calibrate)

    p_diag = sub.add_parser("diagnose", help="per-unit influence diagnostics")
    _add_frame_flags(p_diag)
    p_diag.add_argument("--lambda", dest="lam", type=float, default=-0.5)
    p_diag.add_argument("--c", type=float, default=None, help="flag units with |r| > c")
    p_diag.add_argument("--out", default=None, help="report JSON path (stdout if omitted)")
    p_diag.set_defaults(func=cmd_diagnose)

    p_sim = sub.add_parser("simulate", help="Monte Carlo risk comparison")
    p_sim.add_argument("--config", required=True, help="sim config JSON path")
    p_sim.add_argument("--out-prefix", required=True, help="output prefix for .json/.csv")
    p_sim.add_argument(
        "--seed", type=int, default=None,
        help="seed; without it the config's seed (0 if it has none)",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_div = sub.add_parser("divergence", help="power divergence between two normals")
    p_div.add_argument("--mu1", required=True, help="mean vector, comma separated or @file")
    p_div.add_argument("--cov1", required=True, help="covariance rows ';' separated or @file")
    p_div.add_argument("--mu2", required=True)
    p_div.add_argument("--cov2", required=True)
    p_div.add_argument("--lambda", dest="lam", type=float, required=True)
    p_div.add_argument("--symmetrized", action="store_true")
    p_div.set_defaults(func=cmd_divergence)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # The parse errors are EstimationErrors too, so their clause must come first.
    except (dataio.CsvFormatError, dataio.ConfigSchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (EstimationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
