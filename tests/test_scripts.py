"""Smoke test: the experiment scripts run against the public API and print their tables."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, header", [
    ("contamination_study.py", "outlier (v units)"),
    ("risk_profile.py", "emp theta"),
])
def test_script_prints_its_table(script, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--reps", "200"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert header in lines[0]
    # a header plus at least one numeric row
    assert any(line.split() and line.split()[0].replace(".", "").isdigit() for line in lines[1:])
