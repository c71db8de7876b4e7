"""File formats: frame CSV ingestion, report JSON emission, sim config parsing.

Frame CSV: header row mandatory, UTF-8 (a leading byte order mark is
skipped), '.' decimal point, one row per unit.  Columns depend on the model
family: ``unit_id,x,y`` (ratio, royall), ``unit_id,pi,y``
(horvitz_thompson), ``unit_id,a,sigma2,y`` (custom).  An empty y cell (or
the literal NA) marks an unsampled unit.

Reports are JSON objects with deterministic (insertion) key order; floats
use Python's shortest round-trip representation.
"""

from __future__ import annotations

import csv
import json
import sys
from typing import TYPE_CHECKING, Any

import numpy as np

from .errors import EstimationError
from .estimators import RobustEstimate
from .frame import FAMILIES, FrameTemplate, ModelSpec, PopulationFrame, build_model
from .risk import RiskReport

if TYPE_CHECKING:
    from .simulate import SimConfig

#: The ``RobustEstimate`` fields of a report's ``robust`` object, in key order.
_ROBUST_KEYS = ("theta_hat_R", "ybar_P_R", "c_used", "clipped_units", "scaling", "degenerate")


class CsvFormatError(EstimationError):
    """Malformed frame CSV; the message names the offending row and column."""


class ConfigSchemaError(EstimationError):
    """Structurally invalid sim config; carries a JSON-pointer style path."""

    def __init__(self, pointer: str, detail: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {detail}")


def _parse_cell(raw: str, row_num: int, column: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise CsvFormatError(
            f"row {row_num}, column {column!r}: cannot parse {raw!r} as a number"
        ) from None


def read_frame_csv(path, family: str, sigma: float = 1.0) -> PopulationFrame:
    """Load a frame CSV and map its auxiliaries through the given model family.

    One streaming pass of ``csv.reader``.  The header is the first row; where
    a name repeats, its last column is read.  Blank lines are skipped and not
    counted in row numbers, cells are stripped and extra cells are ignored.
    The first fault in row order raises ``CsvFormatError``.
    """
    spec = ModelSpec(family, sigma=sigma)
    columns = FAMILIES[family][0]
    needed = ("unit_id",) + columns + ("y",)

    # utf-8-sig drops the byte order mark that spreadsheets write before the header.
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            rows = csv.reader(fh)
            header = next(rows, None)
            if header is None:
                raise CsvFormatError("row 1: missing header row")
            missing = [c for c in needed if c not in header]
            if missing:
                raise CsvFormatError(f"row 1: header lacks column(s) {missing}")
            index = {name: i for i, name in enumerate(header)}
            width = max(index[c] for c in needed) + 1
            i_id, i_y = index["unit_id"], index["y"]
            aux = {c: [] for c in columns}
            aux_cells = [(index[c], aux[c]) for c in columns]

            unit_id: list[str] = []
            seen: set[str] = set()
            sampled: list[bool] = []
            y_sampled: list[float] = []
            for row_num, row in enumerate(filter(None, rows), start=2):
                if len(row) < width:
                    raise CsvFormatError(f"row {row_num}: fewer cells than header columns")
                uid = row[i_id].strip()
                if not uid:
                    raise CsvFormatError(f"row {row_num}, column 'unit_id': empty")
                if uid in seen:
                    raise CsvFormatError(f"row {row_num}, column 'unit_id': duplicate {uid!r}")
                seen.add(uid)
                unit_id.append(uid)
                y_raw = row[i_y].strip()
                has_y = y_raw != "" and y_raw.upper() != "NA"
                try:
                    for i, values in aux_cells:
                        values.append(float(row[i].strip()))
                    if has_y:
                        y_sampled.append(float(y_raw))
                except ValueError:
                    # _parse_cell raises the message for the first cell float() rejected.
                    for c in columns:
                        _parse_cell(row[index[c]].strip(), row_num, c)
                    _parse_cell(y_raw, row_num, "y")
                sampled.append(has_y)
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None

    if not unit_id:
        raise CsvFormatError("row 2: no data rows")
    # The frame checks ids with a set of its own; do not hold both at once.
    del seen
    return build_model(unit_id, spec, sampled=sampled, y_sampled=y_sampled, **aux)


def risk_to_dict(report: RiskReport) -> dict:
    out = dict(vars(report))
    parts = ("unseen_variance", "estimation_variance", "clipping_penalty")
    out["components"] = {k: out.pop(k) for k in parts}
    return out


def build_report(
    *,
    model: dict,
    frame: PopulationFrame,
    classical: float | None = None,
    robust: RobustEstimate | None = None,
    risk: RiskReport | None = None,
    diagnostics: list[dict] | None = None,
    flag_c: float | None = None,
) -> dict:
    report: dict[str, Any] = {
        "model": model,
        "n": frame.n_sampled,
        "N": frame.n_units,
    }
    if classical is not None:
        report["classical"] = classical
    if robust is not None:
        report["robust"] = {k: getattr(robust, k) for k in _ROBUST_KEYS}
    report["risk"] = None if risk is None else risk_to_dict(risk)
    report["diagnostics"] = [
        {**rec, "flagged": None if flag_c is None else abs(rec["r_k"]) > flag_c}
        for rec in (diagnostics or [])
    ]
    return report


#: One diagnostics record as ``json.dumps(report, indent=2)`` writes it.
_RECORD = (
    "    {{\n"
    '      "unit_id": {},\n'
    '      "delta_k": {},\n'
    '      "r_k": {},\n'
    '      "v_k": {},\n'
    '      "divergence_k": {},\n'
    '      "flagged": {}\n'
    "    }}"
)
_FLAGGED = {None: "null", True: "true", False: "false"}
_RECORD_KEYS = ("unit_id", "delta_k", "r_k", "v_k", "divergence_k", "flagged")


def _diagnostics_json(records: list[dict]) -> str:
    """A ``build_report`` diagnostics list as ``json.dumps(..., indent=2)`` writes it at depth 1.

    Each record must hold exactly ``_RECORD_KEYS``, in that order; any other
    record raises ``ValueError``, since ``_RECORD`` would write it unlike
    ``json.dumps``.  Each column is turned into text by one ``json.dumps``
    call, which raises on a non-finite float.
    """
    if not records:
        return "[]"
    for rec in records:
        if tuple(rec) != _RECORD_KEYS:
            raise ValueError(f"diagnostics record keys {tuple(rec)} are not {_RECORD_KEYS}")
    # json escapes every newline inside a string, so "\n" splits only between ids.
    ids = json.dumps([rec["unit_id"] for rec in records], separators=("\n", ":"))[1:-1].split("\n")
    nums = [json.dumps([rec[key] for rec in records], allow_nan=False)[1:-1].split(", ")
            for key in _RECORD_KEYS[1:5]]
    flags = [_FLAGGED[rec["flagged"]] for rec in records]
    return "[\n" + ",\n".join(map(_RECORD.format, ids, *nums, flags)) + "\n  ]"


def write_report(report: dict, path=None) -> None:
    """Write a report as indented JSON to ``path``, or to stdout when it is None.

    The text is ``json.dumps(report, indent=2, allow_nan=False)`` plus a
    newline.  ``report`` is a ``build_report`` dict, whose last key is the
    diagnostics list; its records are formatted directly rather than through
    the pure-Python indenting encoder.  A non-finite float, or a record
    whose keys are not ``build_report``'s in its order, raises
    ``ValueError`` before the file is opened.
    """
    head = {k: v for k, v in report.items() if k != "diagnostics"}
    text = json.dumps(head, indent=2, allow_nan=False)
    if "diagnostics" in report:
        diagnostics = _diagnostics_json(report["diagnostics"])
        text = text[:-2] + f',\n  "diagnostics": {diagnostics}\n}}'
    text += "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


_KINDS = {
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    list: (list, "an array"),
    dict: (dict, "an object"),
    str: (str, "a string"),
}


def _require(obj: dict, key: str, kind, pointer: str):
    if key not in obj:
        raise ConfigSchemaError(f"{pointer}/{key}", "missing required field")
    val = obj[key]
    types, expected = _KINDS[kind]
    if isinstance(val, bool) or not isinstance(val, types):
        raise ConfigSchemaError(f"{pointer}/{key}", f"expected {expected}, got {type(val).__name__}")
    return float(val) if kind is float else val


def _reject_unknown(obj: dict, known: tuple, pointer: str) -> None:
    """Raise for the first key of ``obj`` that is not in ``known``, the keys the schema reads."""
    for key in obj:
        if key not in known:
            escaped = key.replace("~", "~0").replace("/", "~1")
            raise ConfigSchemaError(f"{pointer}/{escaped}",
                                    f"unknown field; expected one of {list(known)}")


def _number_array(values: list, pointer: str) -> list[float]:
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigSchemaError(f"{pointer}/{i}", f"expected a number, got {type(v).__name__}")
    return [float(v) for v in values]


def _id_array(values: list, pointer: str) -> list[str]:
    for i, u in enumerate(values):
        if isinstance(u, bool) or not isinstance(u, (str, int)):
            raise ConfigSchemaError(f"{pointer}/{i}", "expected a string or integer id")
    return [str(u) for u in values]


def sim_config_from_dict(doc: dict, seed_override: int | None = None) -> SimConfig:
    """Validate a sim config document; structural faults raise ConfigSchemaError
    (with the offending path), value faults raise ModelValidationError.  A key
    the schema does not read is a structural fault."""
    from .simulate import CONTAMINATION_PARAMS, DEFAULT_REPS, Contamination, SimConfig

    if not isinstance(doc, dict):
        raise ConfigSchemaError("", "top level must be an object")
    _reject_unknown(doc, ("frame", "theta_true", "c_grid", "reps", "seed", "contamination"), "")
    frame_doc = _require(doc, "frame", dict, "")
    _reject_unknown(frame_doc, ("unit_id", "a", "sigma2", "sampled"), "/frame")
    ids = _id_array(_require(frame_doc, "unit_id", list, "/frame"), "/frame/unit_id")
    a = _number_array(_require(frame_doc, "a", list, "/frame"), "/frame/a")
    sigma2 = _number_array(_require(frame_doc, "sigma2", list, "/frame"), "/frame/sigma2")
    sampled = _require(frame_doc, "sampled", list, "/frame")
    for i, flag in enumerate(sampled):
        if not isinstance(flag, bool):
            raise ConfigSchemaError(f"/frame/sampled/{i}", "expected true or false")
    if not (len(a) == len(sigma2) == len(sampled) == len(ids)):
        raise ConfigSchemaError("/frame", "unit_id, a, sigma2, sampled must have equal length")

    theta = _require(doc, "theta_true", float, "")
    c_grid = _number_array(_require(doc, "c_grid", list, ""), "/c_grid")
    reps = _require(doc, "reps", int, "") if "reps" in doc else DEFAULT_REPS

    cont_doc = doc.get("contamination", {"kind": "none"})
    if not isinstance(cont_doc, dict):
        raise ConfigSchemaError("/contamination", "expected an object")
    kind = _require(cont_doc, "kind", str, "/contamination")
    if kind == "none":
        _reject_unknown(cont_doc, ("kind",), "/contamination")
        contamination = Contamination()
    else:
        if kind not in CONTAMINATION_PARAMS:
            raise ConfigSchemaError("/contamination/kind", f"unknown kind {kind!r}")
        param = CONTAMINATION_PARAMS[kind]
        _reject_unknown(cont_doc, ("kind", "units", param), "/contamination")
        units = _id_array(_require(cont_doc, "units", list, "/contamination"),
                          "/contamination/units")
        contamination = Contamination(kind=kind, units=units,
                                      **{param: _require(cont_doc, param, float, "/contamination")})

    if seed_override is not None:
        seed = int(seed_override)
    elif "seed" in doc:
        seed = _require(doc, "seed", int, "")
    else:
        seed = 0

    template = FrameTemplate(tuple(ids), np.array(a), np.array(sigma2), np.array(sampled))
    return SimConfig(
        template=template,
        theta_true=theta,
        contamination=contamination,
        c_grid=tuple(c_grid),
        reps=reps,
        seed=seed,
    )


def read_sim_config(path, seed_override: int | None = None) -> SimConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigSchemaError("", f"invalid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigSchemaError("", f"{path}: not UTF-8 text ({exc.reason})") from None
    return sim_config_from_dict(doc, seed_override)


def _json_file(path, square: bool) -> np.ndarray:
    """The JSON array of numbers in ``path``, or with ``square`` its square array of arrays."""
    try:
        with open(path, encoding="utf-8") as fh:
            # parse_int=float: an integer too large for a float reads as inf, as float() does.
            doc = json.load(fh, parse_int=float)
    except json.JSONDecodeError as exc:
        raise CsvFormatError(f"{path}: invalid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    rows = doc if square else [doc]
    if not (isinstance(rows, list) and rows and all(
        isinstance(row, list) and (not square or len(row) == len(rows))
        and all(type(v) is float for v in row) for row in rows
    )):
        shape = "a square array of arrays of numbers" if square else "an array of numbers"
        raise CsvFormatError(f"{path}: expected {shape}")
    return np.array(doc, dtype=float)


def parse_vector(text: str) -> np.ndarray:
    """Inline mean vector: comma-separated numbers, or @FILE with a JSON array."""
    if text.startswith("@"):
        return _json_file(text[1:], square=False)
    try:
        return np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError:
        raise CsvFormatError(f"cannot parse vector {text!r}") from None


def parse_matrix(text: str) -> np.ndarray:
    """Inline covariance: rows split by ';', entries by ','; or @FILE with a square JSON array."""
    if text.startswith("@"):
        return _json_file(text[1:], square=True)
    try:
        rows = [
            [float(tok) for tok in row.split(",") if tok.strip() != ""]
            for row in text.split(";")
            if row.strip() != ""
        ]
        mat = np.array(rows, dtype=float)
    except ValueError:
        raise CsvFormatError(f"cannot parse matrix {text!r}") from None
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise CsvFormatError(f"matrix {text!r} is not square")
    return mat
