"""The streaming frame reader against the DictReader reference, and the report writer
against ``json.dumps(report, indent=2)``."""

from __future__ import annotations

import json
import tracemalloc
from dataclasses import MISSING
from dataclasses import fields as dataclass_fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robust_fps import EstimationError, FrameTemplate, ModelValidationError, PopulationFrame
from robust_fps.cli import main
from robust_fps.dataio import (
    _OPTIONAL,
    _SIM_CONFIG,
    ConfigSchemaError,
    CsvFormatError,
    _contamination_fields,
    build_report,
    parse_matrix,
    read_frame_csv,
    read_sim_config,
    sim_config_from_dict,
    write_report,
)
from robust_fps.divergence import influence
from robust_fps.estimators import RobustEstimate
from robust_fps.frame import FAMILIES
from robust_fps.risk import RiskReport
from robust_fps.simulate import CONTAMINATION_KINDS, DEFAULT_REPS, Contamination, SimConfig

from conftest import random_frame
from oracles import read_frame_csv_dictreader


def _outcome(reader, path, family):
    """The frame as exact bytes, or the error's type and message."""
    try:
        fr = reader(path, family)
    except EstimationError as exc:
        return type(exc).__name__, str(exc)
    return fr.unit_id, fr.a.tobytes(), fr.sigma2.tobytes(), fr.sampled.tobytes(), fr.y.tobytes()


def _write(path, text: str):
    path.write_bytes(text.encode("utf-8"))
    return path


# --- frame CSV reader --------------------------------------------------------

@pytest.mark.parametrize("text, expected", [
    ("unit_id,x,y\n u1 , 1.5 , 2 \nu2,\t2,\nu3, 1 ,3\n", None),
    ("unit_id,x,y\nu1,1,1\nu2,1,2\nu3,1,NA\nu4,1,na\nu5,1, \n", None),
    ('unit_id,x,y\n"u,1",1,"2"\n"u""2",1,3\nu3,"1",\n', None),
    ("unit_id,x,y\nu1,1,1,extra,more\nu2,1,2\nu3,1,\n", None),
    ("y,x,unit_id\n1,1,u1\n2,1,u2\n,1,u3\n", None),
    ("unit_id,x,y,x\nu1,bad,1,1\nu2,bad,2,1\nu3,bad,,1\n", None),
    ("unit_id,x,y,x\nu1,1,1,bad\n", "row 2, column 'x': cannot parse 'bad' as a number"),
    ("unit_id,x,y\nu1,1\x1c,1\nu2,1,2\nu3,1,\n", None),
    ("\nunit_id,x,y\nu1,1,1\n", "row 1: header lacks column(s) ['unit_id', 'x', 'y']"),
    ("unit_id,x,y\n\nu1,1,1\n\n\nu1,1,2\n", "row 3, column 'unit_id': duplicate 'u1'"),
    ("unit_id,x,y\nu1,1,1\nu1,1,2\nu3,1,\nu4,abc,\n", "row 3, column 'unit_id': duplicate 'u1'"),
    ("unit_id,x,y\nu1,1,1\nu2,abc,2\nu3,1,\nu2,1,\n", "row 3, column 'x': cannot parse 'abc' as a number"),
    ("unit_id,x,y\n,abc,1\n", "row 2, column 'unit_id': empty"),
    ("unit_id,x,y\nu1,abc,xyz\n", "row 2, column 'x': cannot parse 'abc' as a number"),
    ("unit_id,x,y\nu1,1,xyz\n", "row 2, column 'y': cannot parse 'xyz' as a number"),
    (",unit_id,x,y\nu1,1,1\n", "row 2: fewer cells than header columns"),
    ("", "row 1: missing header row"),
], ids=["padded", "na_and_empty_y", "quoted", "extra_cells", "reordered", "duplicate_header",
        "duplicate_header_last_bad", "unicode_space", "blank_before_header", "blank_data_lines",
        "duplicate_before_bad_number", "bad_number_before_duplicate", "empty_id_before_bad_number",
        "bad_x_before_bad_y", "bad_y", "short_row", "empty_file"])
def test_reader_cases_match_dictreader(text, expected, tmp_path):
    path = _write(tmp_path / "frame.csv", text)
    got = _outcome(read_frame_csv, path, "ratio")
    assert got == _outcome(read_frame_csv_dictreader, path, "ratio")
    if expected is None:
        assert isinstance(got[0], tuple)
    else:
        assert got == ("CsvFormatError", expected)


_IDS = st.sampled_from(["u1", " u1", "", "é", 'q"t', "a,b"])
_NUMBERS = st.one_of(
    st.floats(min_value=0.05, max_value=0.95).map(repr),
    st.floats(min_value=0.05, max_value=50.0).map(repr),
    st.sampled_from(["1", "2.", ".25", "1e1"] * 4 + ["-1", "0", "1_0", "nan", "inf", "abc", ""]),
)
_Y = st.one_of(_NUMBERS, st.sampled_from(["", "NA", "na", "nA", " NA ", "N A"]))
_OTHER = st.sampled_from(["", "note", "1", "x,y"])
_RARELY = st.sampled_from([False] * 11 + [True])


@st.composite
def _cell(draw, column: str, row: int) -> str:
    if column == "unit_id":
        raw = draw(_IDS) if draw(_RARELY) else f"u{row}"
    else:
        raw = draw(_Y if column == "y" else _NUMBERS if column in ("x", "pi", "a", "sigma2")
                   else _OTHER)
    left, right = draw(st.sampled_from(["", " ", "\t", "\x1c"])), draw(st.sampled_from(["", " "]))
    raw = left + raw + right
    if draw(st.booleans()) or any(ch in raw for ch in ',"'):
        return '"' + raw.replace('"', '""') + '"'
    return raw


@st.composite
def frame_csvs(draw):
    """A family and CSV text: any column order, extra and repeated header names,
    padded and quoted cells, NA spellings, short and long rows, blank lines."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    header = ["unit_id", *FAMILIES[family][0], "y"]
    header += draw(st.lists(st.sampled_from(["note", *header]), max_size=2))
    header = draw(st.permutations(header))
    if draw(_RARELY):
        header = header[:-1]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [""] if draw(_RARELY) else []
    lines.append(",".join(header))
    for row in range(draw(st.sampled_from(range(7)))):
        if draw(_RARELY):
            lines.append("")
        cells = [draw(_cell(c, row)) for c in header]
        if draw(_RARELY):
            cells = cells[:draw(st.integers(0, len(cells)))]
        elif draw(_RARELY):
            cells += draw(st.lists(_OTHER, min_size=1, max_size=2))
        lines.append(",".join(cells))
    return family, eol.join(lines) + eol


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("frames")


@settings(max_examples=300, deadline=None)
@given(frame_csvs())
def test_reader_matches_dictreader(csv_dir, case):
    family, text = case
    path = _write(csv_dir / "frame.csv", text)
    assert _outcome(read_frame_csv, path, family) == _outcome(read_frame_csv_dictreader, path, family)


def test_reader_peak_memory_on_a_20000_row_frame(tmp_path):
    """Packed columns and a dict of ids keep the traced peak near the frame's own size.

    The frame is written as the benchmark writes its ratio frames.  Lists of
    Python floats and sets of ids peaked at 5.55 MiB here.
    """
    rng = np.random.default_rng(0)
    N, n = 20_000, 10_000
    x = rng.gamma(4.0, 2.5, N) + 0.5
    sampled = np.zeros(N, dtype=bool)
    sampled[rng.choice(N, n, replace=False)] = True
    y = 2.5 * x + np.sqrt(x) * rng.standard_normal(N)
    lines = [f"u{i},{float(x[i])!r},{repr(float(y[i])) if sampled[i] else ''}\n" for i in range(N)]
    path = _write(tmp_path / "frame.csv", "unit_id,x,y\n" + "".join(lines))
    read_frame_csv(path, "ratio")  # the first call fills caches that later calls reuse
    tracemalloc.start()
    try:
        frame = read_frame_csv(path, "ratio")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert frame.n_units == N and frame.n_sampled == n
    assert peak <= 3.5 * 2**20


# --- report writer -----------------------------------------------------------

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_UNIT_IDS = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['q"uote', "back\\slash", "é", "漢字", "😀", "tab\t", "nul\x00"]),
    st.integers(-5, 10**6),
)
_FRAME = PopulationFrame(("u1", "u2", "u3"), np.ones(3), np.ones(3),
                         np.array([True, True, False]), np.array([1.0, 2.0, np.nan]))


@st.composite
def reports(draw):
    """``build_report`` dicts with any sections, ids and finite floats."""
    # influence's key order, which fixed_dictionaries does not keep
    keys = ("unit_id", "delta_k", "r_k", "v_k", "divergence_k")
    record = st.tuples(_UNIT_IDS, *[_FINITE] * 4).map(lambda values: dict(zip(keys, values)))
    records = draw(st.lists(record, max_size=4))
    robust = st.builds(RobustEstimate, theta_hat_R=_FINITE, ybar_P_R=_FINITE,
                       clipped_units=st.lists(_UNIT_IDS, max_size=3).map(tuple), c_used=_FINITE,
                       scaling=st.sampled_from(["paper_v", "chambers_sigma"]),
                       degenerate=st.booleans())
    return build_report(
        model=draw(st.sampled_from([{"family": "ratio", "sigma": 1.5}, {"family": "custom"}])),
        frame=_FRAME,
        classical=draw(st.none() | _FINITE),
        robust=draw(st.none() | robust),
        risk=draw(st.none() | st.builds(RiskReport, *[_FINITE] * 8)),
        diagnostics=records,
        flag_c=draw(st.none() | st.floats(0.0, 3.0)),
    )


@settings(max_examples=300, deadline=None)
@given(reports())
def test_write_report_matches_json_dumps(csv_dir, report):
    path = csv_dir / "report.json"
    write_report(report, path)
    assert path.read_bytes() == (json.dumps(report, indent=2, allow_nan=False) + "\n").encode()


_RECORD_KEYS = ("unit_id", "delta_k", "r_k", "v_k", "divergence_k", "flagged")
_SCALARS = st.none() | st.booleans() | st.integers() | _FINITE | _UNIT_IDS
#: Any JSON value, nested up to a few levels, with a non-finite float now and then.
_VALUES = st.recursive(_SCALARS | st.floats(), lambda inner: st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6)


@st.composite
def hand_built_reports(draw):
    """Dicts of JSON values with ``diagnostics`` at any position or absent.

    ``diagnostics`` is any JSON value, or a list of records.  A record holds
    the report's six keys in order, with scalar values or with any values,
    or the six keys in another order, or other keys.
    """
    scalar_record = st.tuples(_UNIT_IDS, *[_FINITE | st.integers()] * 4, _SCALARS)
    record = (scalar_record | st.tuples(*[_VALUES] * 6)).map(
        lambda values: dict(zip(_RECORD_KEYS, values)))
    reordered = st.permutations(_RECORD_KEYS).map(lambda keys: dict.fromkeys(keys, 0.5))
    other_keys = st.dictionaries(st.sampled_from(_RECORD_KEYS) | st.text(max_size=4), _SCALARS,
                                 max_size=7)
    head = draw(st.dictionaries(st.text(max_size=6).filter(lambda key: key != "diagnostics"),
                                _VALUES, max_size=3))
    if not draw(st.booleans()):
        return head
    keys = list(head)
    keys.insert(draw(st.integers(0, len(keys))), "diagnostics")
    records = draw(st.lists(record | reordered | other_keys, max_size=4) | _VALUES)
    return {key: records if key == "diagnostics" else head[key] for key in keys}


_ONE_RECORD = dict.fromkeys(_RECORD_KEYS[1:5], 0.5)
_FULL_RECORD = {"unit_id": "u1", **_ONE_RECORD, "flagged": None}


@settings(max_examples=300, deadline=None)
@given(hand_built_reports())
@example({"diagnostics": []})
@example({"diagnostics": None})
@example({"a": 1, "diagnostics": 5})
@example({"diagnostics": [{"unit_id": "u1", **_ONE_RECORD, "flagged": 1}]})
@example({"n": 3, "diagnostics": [{"unit_id": "u1", **_ONE_RECORD, "flagged": "yes"}]})
@example({"diagnostics": [{"unit_id": "u1", **_ONE_RECORD, "flagged": [1, 2]}]})
@example({"diagnostics": [{"unit_id": "u[1]", **_ONE_RECORD, "flagged": {"u": None}}]})
@example({"diagnostics": [{"unit_id": "{u1}", **_ONE_RECORD, "flagged": False}]})
@example({"diagnostics": [_FULL_RECORD, {**_FULL_RECORD, "note": "extra"}]})
@example({"diagnostics": [_FULL_RECORD, dict(reversed(_FULL_RECORD.items()))]})
@example({"diagnostics": [{"unit_id": "u1", **_ONE_RECORD, "flagged": float("nan")}]})
@example({"diagnostics": [], "n": 3})
def test_write_report_equals_json_dumps_or_rejects_before_opening(csv_dir, report):
    path = csv_dir / "hand_built.json"
    path.unlink(missing_ok=True)
    try:
        expected = json.dumps(report, indent=2, allow_nan=False) + "\n"
    except ValueError:
        with pytest.raises(ValueError, match="Out of range float values"):
            write_report(report, path)
        assert not path.exists()
    else:
        write_report(report, path)
        assert path.read_bytes() == expected.encode()


def test_write_report_flags_and_empty_diagnostics(tmp_path):
    records = [{"unit_id": "u1", "delta_k": 0.5, "r_k": -2.0, "v_k": 1.0, "divergence_k": 0.25},
               {"unit_id": "u2", "delta_k": -0.5, "r_k": 0.5, "v_k": 1.0, "divergence_k": 0.0}]
    path = tmp_path / "r.json"
    for diagnostics, flag_c, flagged in [(records, None, [None, None]),
                                         (records, 1.0, [True, False]), ([], 1.0, [])]:
        report = build_report(model={"family": "custom"}, frame=_FRAME, diagnostics=diagnostics,
                              flag_c=flag_c)
        write_report(report, path)
        text = path.read_text()
        assert text == json.dumps(report, indent=2, allow_nan=False) + "\n"
        assert [rec["flagged"] for rec in json.loads(text)["diagnostics"]] == flagged


def test_influence_records_are_the_report_diagnostics():
    rng = np.random.default_rng(15)
    for _ in range(20):
        frame = random_frame(rng, n_min=3)
        records = influence(frame)
        assert all(list(rec) == ["unit_id", "delta_k", "r_k", "v_k", "divergence_k"]
                   for rec in records)
        assert all(type(x) is float for rec in records for x in list(rec.values())[1:])
        c = float(np.median([abs(rec["r_k"]) for rec in records]))
        report = build_report(model={"family": "custom"}, frame=frame, diagnostics=records,
                              flag_c=c)
        flagged = [{**rec, "flagged": abs(rec["r_k"]) > c} for rec in records]
        assert report["diagnostics"] == flagged
        assert all(type(rec["flagged"]) is bool for rec in report["diagnostics"])


# --- sim config schema and inline matrices -----------------------------------

_SIM_DOC = {
    "frame": {"unit_id": ["u0", "u1", "u2", "u3"], "a": [1, 1, 1, 1], "sigma2": [1, 1, 1, 1],
              "sampled": [True, True, False, False]},
    "theta_true": 1.0, "c_grid": [0.0, 1.0], "reps": 100,
}


def _sim_doc(frame=None, **fields):
    """``_SIM_DOC`` with ``frame`` fields and top-level ``fields`` replaced; a None field is dropped."""
    doc = {**_SIM_DOC, "frame": {**_SIM_DOC["frame"], **(frame or {})}, **fields}
    return {key: value for key, value in doc.items() if value is not None}


@pytest.mark.parametrize("doc, matrix, message", [
    (_sim_doc(theta_true=None), None, "/theta_true: missing required field"),
    (_sim_doc(frame={"a": [1, "2", 1, 1]}), None, "/frame/a/1: expected a number, got str"),
    (_sim_doc(c_grid=[0.0, None]), None, "/c_grid/1: expected a number, got NoneType"),
    (_sim_doc(frame={"sampled": [True, 1, False, False]}), None,
     "/frame/sampled/1: expected true or false"),
    (_sim_doc(frame={"sigma2": [1, 1, 1]}), None,
     "/frame: unit_id, a, sigma2, sampled must have equal length"),
    (_sim_doc(contamination="none"), None, "/contamination: expected an object, got str"),
    (_sim_doc(contamination={"kind": "drift", "units": ["u0"]}), None,
     "/contamination/kind: unknown kind 'drift'"),
    (_sim_doc(frame={"unit_id": [1.5, "u1", "u2", "u3"]}), None,
     "/frame/unit_id/0: expected a string or integer id"),
    (_sim_doc(contamination={"kind": "shift", "units": [None], "delta": 1.0}), None,
     "/contamination/units/0: expected a string or integer id"),
    (_sim_doc(contamination={"units": ["u0"], "delta": 1.0}), None,
     "/contamination/kind: missing required field"),
    (_sim_doc(contamination={"kind": "none", "units": ["u0"]}), None,
     "/contamination/units: unknown field; expected one of ['kind']"),
    (_sim_doc(rep=10), None, "/rep: unknown field; expected one of "
     "['frame', 'theta_true', 'c_grid', 'reps', 'contamination', 'seed']"),
    (_sim_doc(seed="x"), None, "/seed: expected an integer, got str"),
    (None, "1,2,3;4,5,6", "matrix '1,2,3;4,5,6' is not square"),
], ids=["missing_field", "string_in_numbers", "null_in_grid", "integer_flag", "unequal_lengths",
        "contamination_not_object", "unknown_kind", "float_unit_id", "null_contamination_unit",
        "missing_kind", "units_on_none", "unknown_top_level_key", "string_seed",
        "matrix_not_square"])
def test_schema_errors_exit_2(doc, matrix, message, tmp_path, capsys):
    if doc is not None:
        with pytest.raises(ConfigSchemaError) as info:
            sim_config_from_dict(doc)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        argv = ["simulate", "--config", str(cfg), "--out-prefix", str(tmp_path / "s")]
    else:
        with pytest.raises(CsvFormatError) as info:
            parse_matrix(matrix)
        argv = ["divergence", "--mu1", "0,0", "--cov1", matrix, "--mu2", "0,0", "--cov2", "1,0;0,1",
                "--lambda", "0.5"]
    assert str(info.value) == message
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.glob("s.*")) == []


def test_sim_config_without_a_seed_uses_seed_0(tmp_path):
    assert "seed" not in _SIM_DOC
    assert sim_config_from_dict(_SIM_DOC).seed == 0
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_SIM_DOC))
    for prefix, flags in [("default", []), ("zero", ["--seed", "0"]), ("one", ["--seed", "1"])]:
        argv = ["simulate", "--config", str(cfg), "--out-prefix", str(tmp_path / prefix)]
        assert main(argv + flags) == 0
    default = (tmp_path / "default.csv").read_bytes()
    assert default == (tmp_path / "zero.csv").read_bytes() != (tmp_path / "one.csv").read_bytes()
    assert json.loads((tmp_path / "default.json").read_text())["seed"] == 0


def test_left_out_fields_take_the_dataclass_defaults():
    left_out = sim_config_from_dict(_sim_doc(reps=None))
    written = sim_config_from_dict(_sim_doc(reps=DEFAULT_REPS, seed=0,
                                            contamination={"kind": "none"}))
    for cfg in (left_out, written):
        assert (cfg.reps, cfg.seed, cfg.contamination) == (DEFAULT_REPS, 0, Contamination())


@pytest.mark.parametrize("doc, message", [
    (_sim_doc(frame={"a": [1, "2", 1, 1]}, theta_true=None),
     "/frame/a/1: expected a number, got str"),
    (_sim_doc(frame={"a": [1, 1, 1]}, c_grid="all", rep=10),
     "/rep: unknown field; expected one of "
     "['frame', 'theta_true', 'c_grid', 'reps', 'contamination', 'seed']"),
    (_sim_doc(frame={"a": [1, 1, 1]}, theta_true="one"),
     "/frame: unit_id, a, sigma2, sampled must have equal length"),
    (_sim_doc(c_grid=["0"], reps=2.5), "/c_grid/0: expected a number, got str"),
    (_sim_doc(contamination={"kind": "drift"}, seed="x"),
     "/contamination/kind: unknown kind 'drift'"),
    (_sim_doc(contamination={"kind": "shift", "units": [], "delta": 1.0}, seed="x"),
     "/seed: expected an integer, got str"),
], ids=["frame_before_theta", "unknown_key_first", "lengths_before_theta", "grid_before_reps",
        "contamination_before_seed", "every_schema_fault_before_a_value_fault"])
def test_the_first_fault_in_schema_order_is_reported(doc, message):
    with pytest.raises(ConfigSchemaError) as info:
        sim_config_from_dict(doc)
    assert str(info.value) == message


def test_config_seed_is_checked_under_the_seed_flag(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_sim_doc(seed="x")))
    argv = ["simulate", "--config", str(cfg), "--out-prefix", str(tmp_path / "s"), "--seed", "1"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: /seed: expected an integer, got str\n")
    assert list(tmp_path.glob("s.*")) == []
    assert sim_config_from_dict(_sim_doc(seed=5), seed_override=1).seed == 1
    with pytest.raises(ModelValidationError, match="seed must fit in a signed 64-bit integer"):
        sim_config_from_dict(_sim_doc(seed=5), seed_override=1.5)


_HUGE = 10**400  # no float holds it; json.dumps writes its 401 digits


@pytest.mark.parametrize("doc, message", [
    (_sim_doc(theta_true=_HUGE), "theta_true must be finite"),
    (_sim_doc(theta_true=-_HUGE), "theta_true must be finite"),
    (_sim_doc(frame={"a": [_HUGE, 1, 1, 1]}), "a must be finite and > 0 for every unit"),
    (_sim_doc(c_grid=[0, _HUGE]), "c_grid must be nonempty with finite c >= 0"),
    (_sim_doc(contamination={"kind": "shift", "units": ["u0"], "delta": -_HUGE}),
     "shift contamination needs a finite delta"),
], ids=["theta_true", "negative_theta_true", "frame_a", "c_grid", "contamination_delta"])
def test_an_integer_too_large_for_a_float_is_rejected_with_exit_3(doc, message, tmp_path, capsys):
    with pytest.raises(ModelValidationError) as info:
        sim_config_from_dict(doc)
    assert str(info.value) == message
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg), "--out-prefix", str(tmp_path / "s")]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.glob("s.*")) == []


def test_an_integer_past_the_int_string_digit_limit_exits_2(tmp_path, capsys):
    # json.load refuses a JSON integer of more than 4300 digits with a plain ValueError.
    text = json.dumps(_sim_doc(theta_true=0)).replace('"theta_true": 0', '"theta_true": ' + "9" * 5001)
    with pytest.raises(ValueError) as refused:
        json.loads(text)
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    with pytest.raises(ConfigSchemaError) as info:
        read_sim_config(cfg)
    assert str(info.value) == f"invalid JSON: {refused.value}"
    assert main(["simulate", "--config", str(cfg), "--out-prefix", str(tmp_path / "s")]) == 2
    assert capsys.readouterr() == ("", f"error: invalid JSON: {refused.value}\n")
    assert list(tmp_path.glob("s.*")) == []


def test_schema_keys_are_the_dataclass_fields():
    """Every schema key is an init field of its dataclass, and every optional one has a default."""
    def init_fields(cls):
        return {f.name: f for f in dataclass_fields(cls) if f.init}

    frame, top = _SIM_CONFIG["frame"], {k: v for k, v in _SIM_CONFIG.items() if k != "frame"}
    assert list(frame) == list(init_fields(FrameTemplate))
    assert set(top) | {"template"} == set(init_fields(SimConfig))
    contamination = {key for kind in ("none", *CONTAMINATION_KINDS)
                     for key in _contamination_fields({"kind": kind}, "/contamination")}
    assert contamination == set(init_fields(Contamination))
    assert set(_OPTIONAL) <= set(top)
    assert all(init_fields(SimConfig)[key].default is not MISSING for key in _OPTIONAL)
