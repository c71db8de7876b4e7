"""CLI outputs pinned byte for byte against stored files.

Each case runs ``robust_fps.cli.main`` on a frame or sim config under
``data/golden`` and compares what it writes with the stored files: the report
file for ``estimate`` and stdout otherwise as ``<case>.out``, and the
``--out-prefix`` JSON and CSV of ``simulate`` as ``<case>.json`` and
``<case>.csv``.  After an intentional output change, rerun
this file as a script to recapture: ``PYTHONPATH=src python tests/test_golden.py``.
It prints, per case, which JSON paths moved (list indices as ``*``) with the
largest ulp and relative distance, then rewrites the ``.out`` files.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import pathlib
import re
import struct
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
    "simulate_clean": ["simulate", "--config", "sim_clean.json"],
    "simulate_shift": ["simulate", "--config", "sim_shift.json"],
}


def run_case(name: str, workdir: pathlib.Path) -> dict[str, bytes]:
    """What case ``name`` writes, by the name of its golden file."""
    argv = [str(DATA / a) if a.endswith((".csv", ".json")) else a for a in CASES[name]]
    out = workdir / name
    if argv[0] == "estimate":
        argv += ["--out", str(out)]
    elif argv[0] == "simulate":
        argv += ["--out-prefix", str(out)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if code != 0:
        raise AssertionError(f"{name}: exit code {code}")
    if argv[0] == "simulate":
        return {f"{name}{ext}": out.with_suffix(ext).read_bytes() for ext in (".json", ".csv")}
    return {f"{name}.out": out.read_bytes() if argv[0] == "estimate" else stdout.getvalue().encode()}


@pytest.mark.filterwarnings("ignore::robust_fps.DegenerateFrameWarning")
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    outputs = run_case(name, tmp_path)
    assert outputs == {file: (DATA / file).read_bytes() for file in outputs}


def moved_values(old, new, path=""):
    """Yield ``(path, old, new)`` for every leaf that differs between two JSON values."""
    if isinstance(old, dict) and isinstance(new, dict) and list(old) == list(new):
        for key in old:
            yield from moved_values(old[key], new[key], f"{path}/{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (o, n) in enumerate(zip(old, new)):
            yield from moved_values(o, n, f"{path}/{i}")
    elif old != new or type(old) is not type(new):
        yield path, old, new


def ulp_distance(a: float, b: float) -> int:
    """Number of doubles between ``a`` and ``b``, counting across zero."""
    def key(x):
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)
    return abs(key(a) - key(b))


def describe_moves(old_bytes: bytes, new_bytes: bytes) -> list[str]:
    """One line per moved JSON path pattern: count, largest ulp and relative distance."""
    if old_bytes == new_bytes:
        return []
    groups: dict[str, list] = {}
    for path, o, n in moved_values(json.loads(old_bytes), json.loads(new_bytes)):
        groups.setdefault(re.sub(r"/\d+(?=/|$)", "/*", path) or "/", []).append((o, n))
    if not groups:
        return ["bytes differ, values equal"]
    lines = []
    for pattern, pairs in groups.items():
        if all(isinstance(v, float) and math.isfinite(v) for pair in pairs for v in pair):
            ulp = max(ulp_distance(o, n) for o, n in pairs)
            rel = max(abs(n - o) / max(abs(o), abs(n)) for o, n in pairs)
            lines.append(f"{pattern}: {len(pairs)} values, max {ulp} ulp, max rel {rel:.2e}")
        else:
            lines.append(f"{pattern}: {len(pairs)} values changed, e.g. {pairs[0][0]!r} -> {pairs[0][1]!r}")
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            for file, new in run_case(case, pathlib.Path(tmp)).items():
                path = DATA / file
                if not path.exists():
                    moves = ["new case"]
                elif file.endswith(".csv"):
                    moves = [] if path.read_bytes() == new else ["bytes differ"]
                else:
                    moves = describe_moves(path.read_bytes(), new)
                print(f"{file}: {'moved' if moves else 'unchanged'}")
                for line in moves:
                    print(f"  {line}")
                path.write_bytes(new)
