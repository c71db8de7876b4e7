"""End-to-end CLI behavior: exit codes, file formats, determinism."""

import json
import math
import warnings

import numpy as np
import pytest

from robust_fps import (
    ModelSpec,
    RobustConfig,
    build_model,
    classical_estimate,
    excess_risk,
    max_excess_risk,
    robust_estimate,
)
from robust_fps import dataio
from robust_fps.cli import main

FIVE_UNIT_CSV = """unit_id,x,y
u1,1,0
u2,1,0
u3,1,3
u4,1,
u5,1,NA
"""

SIM_CONFIG = {
    "frame": {
        "unit_id": ["u0", "u1", "u2", "u3", "u4", "u5"],
        "a": [1, 1, 1, 1, 1, 1],
        "sigma2": [1, 1, 1, 1, 1, 1],
        "sampled": [True, True, True, False, False, False],
    },
    "theta_true": 1.0,
    "contamination": {"kind": "none"},
    "c_grid": [0.0, 1.0, 8.0],
    "reps": 2000,
    "seed": 42,
}


# Unit 1 holds all of S_aa = 1e16 + 1 up to rounding, so its v^2 is 0.
DOMINATED_CSV = "unit_id,a,sigma2,y\n1,1e8,1,1e8\n2,1,1,1\n3,1,1,\n"


# Unit 1's v^2 rounds to 3.1e-33 > 0, but S_aa - h_1 rounds to 0.
NEAR_DOMINATED_FRAME = {"unit_id": ["1", "2", "3"], "a": [304163979.3970095, 1, 1],
                        "sigma2": [1.9321969772920644, 1, 1], "sampled": [True, True, False]}
NEAR_DOMINATED_CSV = ("unit_id,a,sigma2,y\n1,304163979.3970095,1.9321969772920644,304163979.0\n"
                      "2,1,1,3.0\n3,1,1,\n")


# a or sigma2 so extreme that a^2/sigma2 or its inverse leaves float64 at unit 1.
EXTREME_CSVS = [
    "unit_id,a,sigma2,y\n1,1e-170,1,1\n2,1e-170,1,1\n3,1,1,\n",
    "unit_id,a,sigma2,y\n1,1e160,1,1\n2,1,1,1\n3,1,1,\n",
    "unit_id,a,sigma2,y\n1,1e-170,1,1\n2,1,1,1\n3,1,1,\n",
]


@pytest.fixture
def frame_csv(tmp_path):
    path = tmp_path / "frame.csv"
    path.write_text(FIVE_UNIT_CSV)
    return path


def five_unit_frame():
    return build_model(
        ["u1", "u2", "u3", "u4", "u5"], ModelSpec("ratio", sigma=1.0),
        x=[1.0] * 5, sampled=[True, True, True, False, False],
        y_sampled=[0.0, 0.0, 3.0],
    )


class TestEstimate:
    def test_five_unit_report(self, frame_csv, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "estimate", "--frame", str(frame_csv), "--model", "ratio",
            "--c", "1", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 3 and doc["N"] == 5
        assert doc["robust"]["ybar_P_R"] == pytest.approx(0.891134, abs=5e-7)
        # bit-for-bit equality with the library
        est = robust_estimate(five_unit_frame(), RobustConfig(c=1.0))
        assert doc["robust"]["ybar_P_R"] == est.ybar_P_R
        assert doc["robust"]["theta_hat_R"] == est.theta_hat_R
        assert doc["classical"] == classical_estimate(five_unit_frame())
        assert doc["risk"]["c"] == 1.0
        assert len(doc["diagnostics"]) == 3
        assert [d["unit_id"] for d in doc["diagnostics"]] == ["u1", "u2", "u3"]

    def test_c_zero_equals_weighted_mean_report(self, frame_csv, tmp_path):
        out = tmp_path / "r0.json"
        assert main([
            "estimate", "--frame", str(frame_csv), "--model", "ratio",
            "--c", "0", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["robust"]["ybar_P_R"] == pytest.approx(doc["classical"], abs=1e-14)
        assert len(doc["robust"]["clipped_units"]) == 3

    def test_flag_conflict_exit_4(self, frame_csv, tmp_path):
        out = tmp_path / "x.json"
        both = main([
            "estimate", "--frame", str(frame_csv), "--model", "ratio",
            "--c", "1", "--max-excess", "0.1", "--out", str(out),
        ])
        neither = main([
            "estimate", "--frame", str(frame_csv), "--model", "ratio",
            "--out", str(out),
        ])
        assert both == 4 and neither == 4

    def test_chambers_scaling_has_no_risk_section(self, frame_csv, tmp_path):
        out = tmp_path / "ch.json"
        assert main([
            "estimate", "--frame", str(frame_csv), "--model", "ratio",
            "--c", "1", "--scaling", "chambers", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["risk"] is None
        assert doc["robust"]["scaling"] == "chambers_sigma"

    @pytest.mark.parametrize("text, message", [
        ("unit_id,x,y\nu1,abc,1\n", "row 2, column 'x': cannot parse 'abc' as a number"),
        ("unit_id,x,y\n,1,1\n", "row 2, column 'unit_id': empty"),
        ("unit_id,x,y\nu1,1,1\nu1,1,2\n", "row 3, column 'unit_id': duplicate 'u1'"),
        ("unit_id,y\nu1,1\n", "row 1: header lacks column(s) ['x']"),
        ("unit_id,x,y\nu1,1\n", "row 2: fewer cells than header columns"),
        ("unit_id,x,y\n", "row 2: no data rows"),
    ], ids=["unparseable_number", "empty_id", "duplicate_id", "missing_column", "short_row",
            "no_rows"])
    def test_malformed_csv_exit_2(self, text, message, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        out = tmp_path / "r.json"
        code = main([
            "estimate", "--frame", str(bad), "--model", "ratio",
            "--c", "1", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_non_utf8_frame_exit_2_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("unit_id,x,y\nu1,1,1\nZ\u00fcrich,1,2\nu3,1,\n".encode("latin-1"))
        code = main(["estimate", "--frame", str(bad), "--model", "ratio", "--c", "1",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text (invalid start byte)\n"

    def test_byte_order_mark_is_skipped(self, frame_csv, tmp_path):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + frame_csv.read_bytes())
        outs = []
        for path in (frame_csv, bom):
            outs.append(tmp_path / f"{path.stem}.json")
            assert main(["estimate", "--frame", str(path), "--model", "ratio", "--c", "1",
                         "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_duplicate_unit_id_exit_2(self, tmp_path):
        bad = tmp_path / "dup.csv"
        bad.write_text("unit_id,x,y\nu1,1,1\nu1,2,2\nu3,1,\n")
        out = tmp_path / "r.json"
        assert main([
            "estimate", "--frame", str(bad), "--model", "ratio",
            "--c", "1", "--out", str(out),
        ]) == 2

    def test_model_validation_exit_3(self, tmp_path):
        bad = tmp_path / "neg.csv"
        bad.write_text("unit_id,x,y\nu1,-1,1\nu2,2,\n")
        out = tmp_path / "r.json"
        assert main([
            "estimate", "--frame", str(bad), "--model", "ratio",
            "--c", "1", "--out", str(out),
        ]) == 3

    def test_budget_with_chambers_rejected(self, frame_csv, tmp_path):
        out = tmp_path / "r.json"
        assert main([
            "estimate", "--frame", str(frame_csv), "--model", "ratio",
            "--max-excess", "0.001", "--scaling", "chambers", "--out", str(out),
        ]) == 3

    def test_single_unit_sample_degenerates_gracefully(self, tmp_path):
        csv_path = tmp_path / "tiny.csv"
        csv_path.write_text("unit_id,x,y\nu1,1,5\nu2,2,\n")
        out = tmp_path / "tiny.json"
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main([
                "estimate", "--frame", str(csv_path), "--model", "ratio",
                "--c", "1", "--out", str(out),
            ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["robust"]["degenerate"] is True
        assert doc["robust"]["theta_hat_R"] == pytest.approx(5.0)
        assert doc["risk"] is None
        assert doc["diagnostics"] == []

    def test_dominated_precision_exit_3(self, tmp_path, capsys):
        path = tmp_path / "frame.csv"
        path.write_text(DOMINATED_CSV)
        out = tmp_path / "dominated.json"
        assert main([
            "estimate", "--frame", str(path), "--model", "custom", "--c", "1", "--out", str(out),
        ]) == 3
        assert "S_aa - h_k <= 0 for unit '1'" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("text", EXTREME_CSVS)
@pytest.mark.parametrize("command", [["calibrate", "--max-excess", "0.01"], ["estimate", "--c", "1"]])
def test_extreme_layout_exit_3_names_the_unit(text, command, tmp_path, capsys):
    path = tmp_path / "frame.csv"
    path.write_text(text)
    out = tmp_path / "out.json"
    argv = command + ["--frame", str(path), "--model", "custom"]
    if command[0] == "estimate":
        argv += ["--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sampled unit '1' is out of float64 range" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["calibrate", "--max-excess", "1e-40"], ["estimate", "--c", "1"], ["diagnose"], ["simulate"],
], ids=["calibrate", "estimate", "diagnose", "simulate"])
def test_near_dominated_layout_exit_3(command, tmp_path, capsys):
    out = tmp_path / "out"
    if command[0] == "simulate":
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(dict(SIM_CONFIG, frame=NEAR_DOMINATED_FRAME)))
        argv = ["simulate", "--config", str(cfg), "--out-prefix", str(out)]
    else:
        path = tmp_path / "frame.csv"
        path.write_text(NEAR_DOMINATED_CSV)
        argv = command + ["--frame", str(path), "--model", "custom"]
        if command[0] == "estimate":
            argv += ["--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "S_aa - h_k <= 0 for unit '1'" in captured.err
    assert "positive definite" not in captured.err
    assert list(tmp_path.glob("out*")) == []


# Finite inputs whose unsampled sums, model MSE or residuals leave float64.
OVERFLOW_CASES = [
    (["calibrate", "--max-excess", "0.01"], "unit_id,a,sigma2,y\n1,1,1,1\n2,1,1,2\n3,1e200,1,\n"),
    (["calibrate", "--max-excess", "0.01"],
     "unit_id,a,sigma2,y\n1,1,1,1\n2,1,1,2\n3,1,1e308,\n4,1,1e308,\n"),
    (["estimate", "--c", "1"], "unit_id,a,sigma2,y\n1,1e10,1e-10,1e300\n2,1e10,1e-10,1\n3,1,1,\n"),
    (["diagnose", "--c", "1"], "unit_id,a,sigma2,y\n1,1e10,1e-10,1e300\n2,1e10,1e-10,1\n3,1,1,\n"),
    (["estimate", "--c", "1"], "unit_id,a,sigma2,y\n1,2,4,1e308\n2,2,4,1e308\n3,1,1,\n"),
    (["estimate", "--c", "1"], "unit_id,a,sigma2,y\n1,1,1,1e10\n2,1,1,1e10\n3,1e300,1,\n"),
]


@pytest.mark.parametrize("command, text", OVERFLOW_CASES,
                         ids=["sum_u_a", "sum_u_sigma2", "residuals", "residuals_diagnose",
                              "sampled_total", "theta_sum_u_a"])
def test_overflow_on_finite_input_exit_3(command, text, tmp_path, capsys):
    path = tmp_path / "frame.csv"
    path.write_text(text)
    out = tmp_path / "out.json"
    argv = command + ["--frame", str(path), "--model", "custom"]
    if command[0] == "estimate":
        argv += ["--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overflows float64" in captured.err
    assert not out.exists()


class TestCalibrate:
    def test_generous_budget_prints_zero(self, frame_csv, capsys):
        big = 10.0 * max_excess_risk(five_unit_frame())
        assert main([
            "calibrate", "--frame", str(frame_csv), "--model", "ratio",
            "--max-excess", str(big),
        ]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_round_trip_into_estimate(self, frame_csv, tmp_path, capsys):
        frame = five_unit_frame()
        target = excess_risk(frame, 1.0)
        assert main([
            "calibrate", "--frame", str(frame_csv), "--model", "ratio",
            "--max-excess", repr(float(target)),
        ]) == 0
        printed_c = capsys.readouterr().out.strip()
        out = tmp_path / "rt.json"
        assert main([
            "estimate", "--frame", str(frame_csv), "--model", "ratio",
            "--c", printed_c, "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["risk"]["excess"] == pytest.approx(target, rel=1e-9)

    def test_unparseable_budget_exit_2(self, frame_csv):
        with pytest.raises(SystemExit) as exc:
            main([
                "calibrate", "--frame", str(frame_csv), "--model", "ratio",
                "--max-excess", "abc",
            ])
        assert exc.value.code == 2

    def test_nonpositive_budget_exit_3(self, frame_csv):
        assert main([
            "calibrate", "--frame", str(frame_csv), "--model", "ratio",
            "--max-excess", "-0.5",
        ]) == 3

    def test_nan_budget_exit_3_before_reading_the_frame(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main([
            "calibrate", "--frame", str(missing), "--model", "ratio", "--max-excess", "nan",
        ]) == 3
        assert "max_excess must be finite and > 0" in capsys.readouterr().err

    def test_dominated_precision_exit_3(self, tmp_path, capsys):
        path = tmp_path / "frame.csv"
        path.write_text(DOMINATED_CSV)
        assert main([
            "calibrate", "--frame", str(path), "--model", "custom", "--max-excess", "0.01",
        ]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "S_aa - h_k <= 0 for unit '1'" in captured.err


class TestDiagnose:
    def test_flag_count_matches_threshold(self, frame_csv, tmp_path):
        out = tmp_path / "diag.json"
        assert main([
            "diagnose", "--frame", str(frame_csv), "--model", "ratio",
            "--c", "1", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        flags = [d["flagged"] for d in doc["diagnostics"]]
        rs = [abs(d["r_k"]) for d in doc["diagnostics"]]
        assert flags == [r > 1.0 for r in rs]
        assert sum(flags) == 3  # all residuals exceed 1 on this frame

    def test_hellinger_divergences_nonnegative(self, frame_csv, tmp_path):
        out = tmp_path / "diag.json"
        assert main([
            "diagnose", "--frame", str(frame_csv), "--model", "ratio",
            "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert all(d["divergence_k"] >= 0 for d in doc["diagnostics"])
        assert all(d["flagged"] is None for d in doc["diagnostics"])

    @pytest.mark.parametrize("c", ["nan", "inf", "-1"])
    def test_invalid_c_exit_3(self, frame_csv, tmp_path, capsys, c):
        out = tmp_path / "diag.json"
        assert main([
            "diagnose", "--frame", str(frame_csv), "--model", "ratio",
            "--c", c, "--out", str(out),
        ]) == 3
        assert "c must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_dominated_precision_exit_3(self, tmp_path, capsys):
        # deleting unit 1 leaves S_aa - h_k = 0: a typed error, not NaN in a report
        path = tmp_path / "frame.csv"
        path.write_text("unit_id,a,sigma2,y\n1,1e8,1,1e8\n2,1,1,1\n3,1,1,\n")
        assert main(["diagnose", "--frame", str(path), "--model", "custom"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "S_aa - h_k <= 0" in captured.err

    def test_overflow_exit_3(self, tmp_path, capsys):
        path = tmp_path / "frame.csv"
        path.write_text("unit_id,a,sigma2,y\n1,1,1,0\n2,1,1,1\n3,1,1,2000\n4,1,1,\n5,1,1,\n")
        assert main([
            "diagnose", "--frame", str(path), "--model", "custom", "--lambda", "2",
        ]) == 3
        assert "overflows" in capsys.readouterr().err

    def test_delta_matches_direct_recomputation(self, frame_csv, tmp_path):
        out = tmp_path / "diag.json"
        main([
            "diagnose", "--frame", str(frame_csv), "--model", "ratio",
            "--out", str(out),
        ])
        doc = json.loads(out.read_text())
        # removing u3 leaves ybar_w = 0; the full-frame ybar_w is 1
        d3 = [d for d in doc["diagnostics"] if d["unit_id"] == "u3"][0]
        assert d3["delta_k"] == pytest.approx(1.0 - 0.0, rel=1e-12)


class TestSimulate:
    def _write_config(self, tmp_path, **overrides):
        doc = json.loads(json.dumps(SIM_CONFIG))
        doc.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self._write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out-prefix", str(a)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out-prefix", str(b)]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_reps_one_exit_3(self, tmp_path):
        cfg = self._write_config(tmp_path, reps=1)
        assert main(["simulate", "--config", str(cfg), "--out-prefix", str(tmp_path / "x")]) == 3

    def test_schema_violation_exit_2_with_pointer(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, reps="many")
        code = main(["simulate", "--config", str(cfg), "--out-prefix", str(tmp_path / "x")])
        assert code == 2
        assert "/reps" in capsys.readouterr().err

    def test_boolean_unit_id_exit_2_with_pointer(self, tmp_path, capsys):
        # JSON true is not an id; str(True) would make it the id 'True'
        frame = dict(SIM_CONFIG["frame"], unit_id=["u0", True, "u2", "u3", "u4", "u5"])
        cfg = self._write_config(tmp_path, frame=frame)
        assert main(["simulate", "--config", str(cfg), "--out-prefix", str(tmp_path / "x")]) == 2
        assert "/frame/unit_id/1" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, pointer", [
        ({"rep": 10}, "/rep"),
        ({"contamination": {"kind": "none", "units": ["u1"], "delta": 50.0}},
         "/contamination/units"),
        ({"contamination": {"kind": "shift", "units": ["u1"], "delta": 0.0, "detla": 50.0}},
         "/contamination/detla"),
        ({"contamination": {"kind": "substitution", "units": ["u1"], "value": 3.0,
                            "delta": 1.0}}, "/contamination/delta"),
        ({"frame": dict(SIM_CONFIG["frame"], y=[1, 2, 3])}, "/frame/y"),
        ({"c/grid": [1.0]}, "/c~1grid"),
    ], ids=["misspelt_reps", "units_on_none", "misspelt_delta", "other_kinds_param",
            "frame_key", "pointer_escape"])
    def test_unknown_key_exit_2_with_pointer(self, overrides, pointer, tmp_path, capsys):
        cfg = self._write_config(tmp_path, **overrides)
        assert main(["simulate", "--config", str(cfg), "--out-prefix", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {pointer}: unknown field; expected one of")
        assert list(tmp_path.glob("s.*")) == []

    def test_non_utf8_config_exit_2_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(json.dumps(dict(SIM_CONFIG, theta_true="\u00e9"), ensure_ascii=False)
                        .encode("latin-1"))
        assert main(["simulate", "--config", str(cfg), "--out-prefix", str(tmp_path / "s")]) == 2
        assert f"{cfg}: not UTF-8 text" in capsys.readouterr().err

    def test_dominated_precision_exit_3(self, tmp_path, capsys):
        frame = {"unit_id": ["1", "2", "3"], "a": [1e8, 1, 1], "sigma2": [1, 1, 1],
                 "sampled": [True, True, False]}
        cfg = self._write_config(tmp_path, frame=frame)
        assert main(["simulate", "--config", str(cfg), "--out-prefix", str(tmp_path / "s")]) == 3
        assert "S_aa - h_k <= 0 for unit '1'" in capsys.readouterr().err
        assert not (tmp_path / "s.json").exists()

    def test_repeated_contamination_unit_exit_3(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, contamination={"kind": "shift", "units": ["u1", "u1"],
                                                          "delta": 2.0})
        assert main(["simulate", "--config", str(cfg), "--out-prefix", str(tmp_path / "s")]) == 3
        assert "contamination names units ['u1'] more than once" in capsys.readouterr().err
        assert list(tmp_path.glob("s.*")) == []

    def test_overflowing_squared_errors_exit_3(self, tmp_path, capsys):
        frame = {"unit_id": ["1", "2", "3", "4"], "a": [1, 1, 1, 1], "sigma2": [1e307] * 4,
                 "sampled": [True, True, True, False]}
        cfg = self._write_config(tmp_path, frame=frame, c_grid=[0, 1], reps=100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", str(cfg), "--out-prefix",
                         str(tmp_path / "s")]) == 3
        assert "overflows float64" in capsys.readouterr().err
        assert list(tmp_path.glob("s.*")) == []

    def test_overflowing_model_mean_exit_3(self, tmp_path, capsys):
        # theta_true * a leaves float64 at the unsampled unit, so no population is finite
        frame = {"unit_id": ["1", "2", "3", "4"], "a": [1, 1, 1, 1e300], "sigma2": [1] * 4,
                 "sampled": [True, True, True, False]}
        cfg = self._write_config(tmp_path, frame=frame, theta_true=1e10, reps=100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", str(cfg), "--out-prefix",
                         str(tmp_path / "s")]) == 3
        assert "fewer than 2 finite replications" in capsys.readouterr().err
        assert list(tmp_path.glob("s.*")) == []

    def test_seed_flag_override(self, tmp_path):
        cfg = self._write_config(tmp_path)
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["simulate", "--config", str(cfg), "--out-prefix", str(a)])
        main(["simulate", "--config", str(cfg), "--out-prefix", str(b), "--seed", "777"])
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()
        # the config's seed is 42
        main(["simulate", "--config", str(cfg), "--out-prefix", str(c), "--seed", "42"])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()

    def test_large_c_matches_baseline_closed_form(self, tmp_path):
        cfg = self._write_config(tmp_path, c_grid=[8.0], reps=40_000)
        out = tmp_path / "base"
        assert main(["simulate", "--config", str(cfg), "--out-prefix", str(out)]) == 0
        doc = json.loads((tmp_path / "base.json").read_text())
        row = doc["rows"][0]
        # baseline for this symmetric frame: (3 + 9/3) / 36
        baseline = (3.0 + 3.0) / 36.0
        assert abs(row["emp_mse_pop"] - baseline) <= 3 * row["se_pop"]


class TestDivergenceCommand:
    def test_identical_inputs_zero(self, capsys):
        assert main([
            "divergence", "--mu1", "0", "--cov1", "1", "--mu2", "0", "--cov2", "1",
            "--lambda", "0.3",
        ]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_hellinger_case(self, capsys):
        assert main([
            "divergence", "--mu1", "0", "--cov1", "1", "--mu2", "2", "--cov2", "1",
            "--lambda", "-0.5",
        ]) == 0
        val = float(capsys.readouterr().out.strip())
        assert val == pytest.approx(4 * (1 - math.exp(-0.5)), rel=1e-12)

    def test_kl_case(self, capsys):
        assert main([
            "divergence", "--mu1", "0", "--cov1", "1", "--mu2", "1", "--cov2", "1",
            "--lambda", "0",
        ]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(0.5)

    def test_matrix_inputs(self, capsys):
        assert main([
            "divergence", "--mu1", "0,0", "--cov1", "1,0;0,1",
            "--mu2", "0,0", "--cov2", "2,0.3;0.3,1", "--lambda", "0",
        ]) == 0
        val = float(capsys.readouterr().out.strip())
        cov2 = np.array([[2, 0.3], [0.3, 1]])
        inv = np.linalg.inv(cov2)
        want = 0.5 * (np.trace(inv) - 2 + math.log(np.linalg.det(cov2)))
        assert val == pytest.approx(want, rel=1e-12)

    def test_file_inputs_match_inline(self, tmp_path, capsys):
        (tmp_path / "mu.json").write_text("[0, 0]")
        (tmp_path / "cov.json").write_text("[[2, 0.3], [0.3, 1]]")
        rest = ["--mu2", "0,0", "--cov2", "1,0;0,1", "--lambda", "0"]
        assert main(["divergence", "--mu1", "0,0", "--cov1", "2,0.3;0.3,1", *rest]) == 0
        inline = capsys.readouterr().out
        assert main(["divergence", "--mu1", f"@{tmp_path / 'mu.json'}",
                     "--cov1", f"@{tmp_path / 'cov.json'}", *rest]) == 0
        assert capsys.readouterr().out == inline

    @pytest.mark.parametrize("flag, content, message", [
        ("--mu1", b'{"a": 1}', "expected an array of numbers"),
        ("--mu1", b"[[1, 0], [0, 1]]", "expected an array of numbers"),
        ("--mu1", b"[true, 0]", "expected an array of numbers"),
        ("--cov1", b"[[1, 0, 0], [0, 1, 0]]", "expected a square array of arrays of numbers"),
        ("--cov1", b"[1, 0]", "expected a square array of arrays of numbers"),
        ("--cov1", b"[[1, 0], [0, 1]", "invalid JSON: "),
        ("--cov1", b"[[1, 0], [0, \xff]]", "not UTF-8 text (invalid start byte)"),
    ], ids=["object", "matrix_as_mean", "boolean", "not_square", "vector_as_cov",
            "invalid_json", "not_utf8"])
    def test_malformed_file_exit_2_names_the_file(self, flag, content, message, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_bytes(content)
        argv = {"--mu1": "0,0", "--cov1": "1,0;0,1", "--mu2": "0,0", "--cov2": "1,0;0,1"}
        argv[flag] = f"@{path}"
        assert main(["divergence", *(x for kv in argv.items() for x in kv), "--lambda", "0"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")

    def test_non_pd_exit_3_names_matrix(self, capsys):
        code = main([
            "divergence", "--mu1", "0,0", "--cov1", "1,2;2,1",
            "--mu2", "0,0", "--cov2", "1,0;0,1", "--lambda", "0.5",
        ])
        assert code == 3
        assert "cov" in capsys.readouterr().err

    def test_overflow_exit_3(self, capsys):
        assert main([
            "divergence", "--mu1", "0", "--cov1", "1", "--mu2", "30", "--cov2", "1",
            "--lambda", "2",
        ]) == 3
        assert "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--mu1", "0", "--cov1", "1", "--mu2", "30", "--cov2", "1", "--lambda", "2"],
        ["--mu1", "0,0", "--cov1", "1,0;0,1", "--mu2", "0", "--cov2", "1", "--lambda", "0.5"],
    ], ids=["overflow", "dimension_mismatch"])
    def test_error_names_its_own_cause(self, argv, capsys):
        # neither case has a matrix that fails to be positive definite
        assert main(["divergence", *argv]) == 3
        assert "positive definite" not in capsys.readouterr().err

    def test_symmetrized_flag(self, capsys):
        assert main([
            "divergence", "--mu1", "0", "--cov1", "1", "--mu2", "1", "--cov2", "2",
            "--lambda", "0.25", "--symmetrized",
        ]) == 0
        forward = capsys.readouterr().out
        assert main([
            "divergence", "--mu1", "1", "--cov1", "2", "--mu2", "0", "--cov2", "1",
            "--lambda", "0.25", "--symmetrized",
        ]) == 0
        backward = capsys.readouterr().out
        assert forward == backward


def test_write_report_refuses_non_finite_values(tmp_path):
    path = tmp_path / "r.json"
    with pytest.raises(ValueError):
        dataio.write_report({"x": math.inf}, path)
    assert not path.exists()
    frame = five_unit_frame()
    records = [{"unit_id": "u1", "delta_k": 0.5, "r_k": 1.0, "v_k": 1.0, "divergence_k": 0.25},
               {"unit_id": "u2", "delta_k": 0.5, "r_k": 1.0, "v_k": math.nan, "divergence_k": 0.25}]
    report = dataio.build_report(model={"family": "ratio", "sigma": 1.0}, frame=frame,
                                 diagnostics=records, flag_c=1.0)
    with pytest.raises(ValueError):
        dataio.write_report(report, path)
    assert not path.exists()


class TestReportRoundTrip:
    def test_rerun_reproduces_report(self, frame_csv, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = [
            "estimate", "--frame", str(frame_csv), "--model", "ratio",
            "--c", "1.5", "--out",
        ]
        assert main(args + [str(out1)]) == 0
        assert main(args + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        frame = five_unit_frame()
        assert doc["classical"] == classical_estimate(frame)
        est = robust_estimate(frame, RobustConfig(c=1.5))
        assert doc["robust"]["theta_hat_R"] == est.theta_hat_R


def test_the_parser_built_once_parses_like_a_fresh_one(frame_csv, capsys):
    from robust_fps import cli

    frame = ["--frame", str(frame_csv), "--model", "ratio"]
    calls = [
        ["calibrate", *frame, "--max-excess", "0.05"],
        ["estimate", *frame, "--c", "abc", "--out", "unused.json"],  # an argparse error
        ["diagnose", *frame, "--c", "1.0"],
    ]

    def run(argv, fresh):
        if fresh:
            cli.build_parser.cache_clear()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, *capsys.readouterr()

    cli.build_parser.cache_clear()
    reused = [run(argv, fresh=False) for argv in calls]
    fresh = [run(argv, fresh=True) for argv in calls]
    assert reused == fresh
    assert [code for code, *_ in reused] == [0, 2, 0]
    assert "invalid float value: 'abc'" in reused[1][2]
