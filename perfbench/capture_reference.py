#!/usr/bin/env python3
"""Capture the reference outputs of each workload's warm-up input.

    PYTHONPATH=src python3 perfbench/capture_reference.py [WORKLOAD ...]

Runs the warm-up ("canary") input of each workload through ``cli.main``
once, checks it with oracle.py, and writes the parsed output to
``perfbench/reference/<workload>.json``.  Every benchmark run compares its
warm-up outputs against these files, so recapture them only when a change
is meant to alter the numbers, and say so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import oracle  # noqa: E402
from worker import run_cli  # noqa: E402

from robust_fps.cli import main as cli_main  # noqa: E402


def main(argv: list[str]) -> int:
    workdir = os.path.join(os.getcwd(), ".perfbench_runs", "capture")
    try:
        for workload in argv or inputs.WORKLOADS:
            canary = inputs.make_inputs(workload, inputs.CANARY_SEED, workdir)[0]
            out = run_cli(cli_main, canary)
            problems = oracle.check(canary, out)
            if problems:
                print(f"{workload}: {problems[:5]}", file=sys.stderr)
                return 1
            path = os.path.join(HERE, "reference", workload + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(oracle.parsed_output(canary["command"], out), fh, indent=1)
                fh.write("\n")
            print(f"{workload}: wrote {path}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
