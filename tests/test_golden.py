"""CLI outputs pinned byte for byte against stored files.

Each case runs ``robust_fps.cli.main`` on a frame under ``data/golden`` and
compares what it writes (the report file for ``estimate``, stdout otherwise)
with the stored ``<case>.out``.  After an intentional output change, rerun
this file as a script to recapture: ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import sys
import tempfile

import pytest

from robust_fps.cli import main

DATA = pathlib.Path(__file__).parent / "data" / "golden"

CASES = {
    "estimate_ratio": ["estimate", "--frame", "ratio.csv", "--model", "ratio",
                       "--sigma", "1.5", "--c", "1.5"],
    "estimate_royall": ["estimate", "--frame", "ratio.csv", "--model", "royall", "--c", "1.0"],
    "estimate_ht": ["estimate", "--frame", "ht.csv", "--model", "ht", "--c", "1.2"],
    "estimate_custom": ["estimate", "--frame", "custom.csv", "--model", "custom",
                        "--c", "0.8", "--lambda", "0"],
    "estimate_chambers": ["estimate", "--frame", "ratio.csv", "--model", "ratio",
                          "--c", "1.5", "--scaling", "chambers"],
    "estimate_max_excess": ["estimate", "--frame", "ratio.csv", "--model", "ratio",
                            "--max-excess", "0.002"],
    "estimate_single_unit": ["estimate", "--frame", "single.csv", "--model", "ratio", "--c", "1"],
    "estimate_census": ["estimate", "--frame", "census.csv", "--model", "royall", "--c", "1"],
    "diagnose_ratio": ["diagnose", "--frame", "ratio.csv", "--model", "ratio", "--c", "2"],
    "diagnose_custom": ["diagnose", "--frame", "custom.csv", "--model", "custom",
                        "--lambda", "0.7"],
    "calibrate_ratio": ["calibrate", "--frame", "ratio.csv", "--model", "ratio",
                        "--max-excess", "0.002"],
    "calibrate_ht": ["calibrate", "--frame", "ht.csv", "--model", "ht", "--max-excess", "1e-5"],
    "calibrate_generous": ["calibrate", "--frame", "custom.csv", "--model", "custom",
                           "--max-excess", "1"],
}


def run_case(name: str, workdir: pathlib.Path) -> bytes:
    argv = [str(DATA / a) if a.endswith(".csv") else a for a in CASES[name]]
    out = workdir / f"{name}.json"
    if argv[0] == "estimate":
        argv += ["--out", str(out)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if code != 0:
        raise AssertionError(f"{name}: exit code {code}")
    return out.read_bytes() if argv[0] == "estimate" else stdout.getvalue().encode()


@pytest.mark.filterwarnings("ignore::robust_fps.DegenerateFrameWarning")
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    assert run_case(name, tmp_path) == (DATA / f"{name}.out").read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            (DATA / f"{case}.out").write_bytes(run_case(case, pathlib.Path(tmp)))
            print(f"captured {case}", file=sys.stderr)
