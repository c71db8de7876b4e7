"""The scripts run against the public API and print what they promise."""

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


def test_fault_probe_prints_one_row_per_call():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    config = ROOT / "tests" / "data" / "golden" / "sim_shift.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "fault_probe.py"), str(config), "--processes", "1", "--calls", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["process", "call", "wall_s", "minflt", "maxrss_mib"]
    assert [row.split()[:2] for row in rows] == [["0", "0"], ["0", "1"]]
    for row in rows:
        wall, faults, rss = row.split()[2:]
        assert float(wall) > 0 and int(faults) >= 0 and float(rss) > 0


def test_fault_probe_reps_replaces_the_config_reps(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import fault_probe

    seen = []
    monkeypatch.setattr(fault_probe, "empirical_risk", lambda config: seen.append(config.reps))
    config = str(ROOT / "tests" / "data" / "golden" / "sim_shift.json")
    assert len(fault_probe.probe(config, 2, reps=3000)) == 2
    fault_probe.probe(config, 1)
    assert seen == [3000, 3000, 1000]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, str(ROOT / "scripts" / "fault_probe.py"), config, "--processes", "1", "--calls", "1"]
    proc = subprocess.run(command + ["--reps", "3000"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert [row.split()[:2] for row in proc.stdout.splitlines()[1:]] == [["0", "0"]]
    proc = subprocess.run(command + ["--reps", "1"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2 and "--reps must be >= 2" in proc.stderr


# Code lines: import, class, the two lines of the non-docstring string, def, return.
CODE_LINES_FIXTURE = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment does not hide code


class A:
    """Class docstring."""

    x = """not a
docstring"""

    def f(self):
        """Function docstring."""
        return os.sep
'''


def test_code_lines_counts_a_known_module(tmp_path):
    module = tmp_path / "fixture.py"
    module.write_text(CODE_LINES_FIXTURE)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["     6  fixture", "     6  total"]
