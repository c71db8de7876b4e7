"""One fresh benchmark process: import the CLI, warm up, then measure or trace.

Started by run.py with ``src`` on PYTHONPATH and BLAS threads pinned; prints
one JSON record as its last line.  Modes:

* ``setup``: import ``robust_fps.cli`` and complete the warm-up operation;
  report the time both took (one ``setup_s`` sample).
* ``measure``: the same, then a closed loop with one client over the input
  pool for ``--seconds``: each operation is one in-process ``cli.main(argv)``
  call, started after the previous one returned and was checked.
* ``trace``: the same warm-up, then pairs of one untraced ``cli.main`` call
  and one traced call chain (stages.py) on the same input.

Nothing heavier than the standard library is imported before the set-up
clock starts, so ``setup_s`` includes importing numpy and scipy as a user
of the CLI would.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback


def rss_mb() -> float:
    """High-water resident set size of this process in MiB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _outputs(inp: dict, dest: str) -> dict:
    if inp["command"] == "estimate":
        with open(dest, "rb") as fh:
            return {"report": fh.read()}
    if inp["command"] == "simulate":
        with open(dest + ".json", "rb") as fh, open(dest + ".csv", "rb") as fc:
            return {"json": fh.read(), "csv": fc.read()}
    return {}


def _clear(inp: dict, dest: str | None) -> None:
    for path in ([dest] if inp["command"] == "estimate" else [dest + ".json", dest + ".csv"]):
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def run_cli(main, inp: dict) -> dict:
    """One operation: ``main(argv)`` in-process, timed; returns exit code and outputs."""
    if inp["command"] != "calibrate":
        _clear(inp, inp["out"])
    stdout, stderr = io.StringIO(), io.StringIO()
    out = {"error": None}
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            out["rc"] = main(inp["argv"])
    except SystemExit as exc:  # argparse rejects the argv
        out["rc"] = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the loop keeps running; the failure is counted and shown
        out["rc"], out["error"] = None, traceback.format_exc()
    out["seconds"] = time.perf_counter() - t
    out["stdout"], out["stderr"] = stdout.getvalue(), stderr.getvalue()
    if out["rc"] == 0 and inp["command"] != "calibrate":
        out.update(_outputs(inp, inp["out"]))
    return out


def digest(out: dict) -> str:
    h = hashlib.sha256()
    for key in ("stdout", "report", "json", "csv"):
        value = out.get(key, b"")
        h.update(value.encode() if isinstance(value, str) else value)
    return h.hexdigest()


class Checker:
    """Counts operations and failures.

    The warm-up output is compared with the stored reference; every other
    output with the first output of the same input in this process.
    """

    def __init__(self, oracle, reference):
        self.oracle, self.reference = oracle, reference
        self.attempted = self.failed = 0
        self.first_digest: dict[str, str] = {}

    def __call__(self, inp: dict, out: dict, *, canary: bool = False) -> bool:
        problems = self.oracle.check(inp, out)
        if not problems and canary:
            got = self.oracle.parsed_output(inp["command"], out)
            problems = self.oracle.compare_reference(got, self.reference)
        elif not problems and self.first_digest.setdefault(inp["id"], digest(out)) != digest(out):
            problems = ["output differs from this input's first output in the run"]
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"[{inp['id']}] FAILED: " + "; ".join(map(str, problems[:5])), file=sys.stderr)
        return not problems


def blas_threads() -> dict:
    """Thread count each bundled OpenBLAS reports (numpy's and scipy's copies)."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(pkg.__file__), os.pardir, pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                         "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[pkg.__name__] = fn()
                    break
    return found


def _loop(seconds: float, cycle: int, step) -> None:
    """Call ``step(i)`` until ``seconds`` have passed and a whole cycle of inputs is done."""
    start = time.perf_counter()
    i = 0
    while True:
        step(i)
        i += 1
        if time.perf_counter() - start >= seconds and i % cycle == 0:
            return


def measure(main, check, pool, cycle, seconds) -> dict:
    times = []

    def step(i):
        inp = pool[i % len(pool)]
        out = run_cli(main, inp)
        if check(inp, out):
            times.append(out["seconds"])

    _loop(seconds, cycle, step)
    return {"op_seconds": times}


def trace(main, check, pool, cycle, seconds) -> dict:
    import stages

    layers: list[dict] = []
    untraced, overhead = [], []

    def step(i):
        inp = pool[i % len(pool)]
        out = run_cli(main, inp)
        if not check(inp, out):
            return
        if inp["command"] == "calibrate":
            dest = os.path.join(os.path.dirname(inp["frame_path"]), "traced.out")
        else:
            dest = inp["out"] + ".traced"
            _clear(inp, dest)
        check.attempted += 1
        try:
            metrics, chain_s = stages.traced_op(inp, dest)
            if inp["command"] == "calibrate":
                with open(dest, encoding="utf-8") as fh:
                    same = fh.read() == out["stdout"]
            else:
                traced = _outputs(inp, dest)
                same = all(traced[k] == out[k] for k in traced)
        except Exception:  # counted as a failed operation
            print(f"[{inp['id']}] traced chain FAILED:\n{traceback.format_exc()}", file=sys.stderr)
            check.failed += 1
            return
        if not same:
            print(f"[{inp['id']}] traced output differs from cli.main's", file=sys.stderr)
            check.failed += 1
            return
        layers.append(metrics)
        untraced.append(out["seconds"])
        overhead.append((chain_s - out["seconds"]) / out["seconds"])

    _loop(seconds, cycle, step)
    names = sorted({k for m in layers for k in m})
    per_layer = {k: statistics.median(m.get(k, 0.0) for m in layers) for k in names}
    if layers:
        per_layer["cli.main.ms"] = 1e3 * statistics.median(untraced)
        per_layer["trace.overhead_frac"] = statistics.median(overhead)
    return {"per_layer": per_layer, "traced_ops": len(layers)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    canary = manifest["canary"]

    t0 = time.perf_counter()
    from robust_fps.cli import main as cli_main

    import_s = time.perf_counter() - t0
    import_rss = rss_mb()
    warm = run_cli(cli_main, canary)
    setup_s = time.perf_counter() - t0

    import numpy
    import scipy

    import oracle

    with open(manifest["reference"], encoding="utf-8") as fh:
        reference = json.load(fh)
    check = Checker(oracle, reference)
    warm_ok = check(canary, warm, canary=True)
    record = {
        "setup_s": setup_s, "import_s": import_s, "import_rss_mb": import_rss,
        "warmup": {"ms": 1e3 * warm["seconds"], "ok": warm_ok},
        "env": {"blas_threads": blas_threads(), "python": sys.version.split()[0],
                "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    steady = {"setup": lambda *a: {}, "measure": measure, "trace": trace}[args.mode]
    record.update(steady(cli_main, check, manifest["pool"], manifest["cycle"], args.seconds))
    record.update(attempted=check.attempted, failed=check.failed, peak_rss_mb=rss_mb())
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
