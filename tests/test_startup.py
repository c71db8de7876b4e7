"""What a fresh interpreter loads: the CLI starts on numpy alone.

``estimate``, ``calibrate`` and ``diagnose`` never import scipy or the Monte
Carlo harness (``robust_fps.simulate``, and with it ``numpy.random`` and a
thread pool); only the dense ``divergence`` subcommand (``scipy.linalg``)
and ``simulate`` load them, on first use.  pytest's own process has long
since imported all of these, so each check runs in a new interpreter.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data" / "golden"


def _run(code: str, tmp_path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


#: Modules that only ``simulate`` and ``divergence`` need.
UNLOADED = ("scipy", "robust_fps.simulate", "robust_fps.streams", "numpy.random",
            "concurrent.futures")


def test_estimate_calibrate_and_diagnose_leave_scipy_unloaded(tmp_path):
    # The harness stays out too: no module of UNLOADED, nor a submodule of one, is loaded.
    out = _run(f"""
        import contextlib, io, sys
        import robust_fps.cli
        frame = {str(DATA / "ratio.csv")!r}
        runs = [
            ["estimate", "--frame", frame, "--model", "ratio", "--max-excess", "0.002",
             "--out", "report.json"],
            ["diagnose", "--frame", frame, "--model", "ratio", "--c", "2"],
            ["calibrate", "--frame", frame, "--model", "ratio", "--max-excess", "0.002"],
        ]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert robust_fps.cli.main(argv) == 0, argv
        print(sorted(m for m in sys.modules if m.startswith({UNLOADED!r})))
    """, tmp_path)
    assert out.splitlines()[-1] == "[]"


def test_package_resolves_the_harness_names_on_first_access(tmp_path):
    out = _run("""
        import sys
        import robust_fps
        assert "robust_fps.simulate" not in sys.modules
        from robust_fps import Contamination, SimConfig, SimResult, empirical_risk
        assert robust_fps.empirical_risk is robust_fps.simulate.empirical_risk
        assert (Contamination, SimConfig, SimResult) == (
            robust_fps.simulate.Contamination, robust_fps.simulate.SimConfig,
            robust_fps.simulate.SimResult)
        assert set(robust_fps.__all__) <= set(dir(robust_fps))
    """, tmp_path)
    assert out == ""


def test_simulate_imports_ndtri_in_its_worker_threads(tmp_path):
    # 8-row blocks and 4 CPUs: the first ndtri call, and with it the import of
    # scipy.special, happens in several worker threads at once.
    out = _run(f"""
        import os, sys
        from robust_fps import simulate
        from robust_fps.cli import main
        os.sched_getaffinity = lambda pid: set(range(4))
        simulate._BLOCK_BYTES = 8 * 12 * 8
        assert simulate._workers(125) == 4
        assert "scipy.special" not in sys.modules
        assert main(["simulate", "--config", {str(DATA / "sim_shift.json")!r},
                     "--out-prefix", "sim"]) == 0
    """, tmp_path)
    assert out == ""
    for ext in (".json", ".csv"):
        assert (tmp_path / f"sim{ext}").read_bytes() == (DATA / f"simulate_shift{ext}").read_bytes()
