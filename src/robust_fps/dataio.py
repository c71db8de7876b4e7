"""File formats: frame CSV ingestion, report JSON emission, sim config parsing,
and the simulation result files.

Frame CSV: header row mandatory, UTF-8 (a leading byte order mark is
skipped), '.' decimal point, one row per unit.  Columns depend on the model
family: ``unit_id,x,y`` (ratio, royall), ``unit_id,pi,y``
(horvitz_thompson), ``unit_id,a,sigma2,y`` (custom).  An empty y cell (or
the literal NA) marks an unsampled unit.  Every family's variances are its
base variances times ``sigma**2``, for the one scale ``sigma`` the reader is
given.

Reports are JSON objects with deterministic (insertion) key order; floats
use Python's shortest round-trip representation.  A simulation result is
written as such a report (``<prefix>.json``) and as a CSV of its rows
(``<prefix>.csv``).  Every output file is written here.

A sim config is checked against one ordered table, ``_SIM_CONFIG``, and its
fields are passed by name to the dataclasses, so a field left out takes the
dataclass default.  The schema checks only types: a JSON number reaches the
dataclasses as given, an integer too large for a float included, and they
read its value by the one rule of ``frame._scalar``.
"""

from __future__ import annotations

import csv
import json
import sys
from array import array
from dataclasses import asdict, fields
from typing import TYPE_CHECKING, Any

import numpy as np

from .errors import EstimationError
from .estimators import RobustEstimate
from .frame import FAMILIES, FrameTemplate, ModelSpec, PopulationFrame, build_model
from .risk import RiskReport

if TYPE_CHECKING:
    from .simulate import SimConfig, SimResult

#: The ``RobustEstimate`` fields of a report's ``robust`` object, in key order.
_ROBUST_KEYS = ("theta_hat_R", "ybar_P_R", "c_used", "clipped_units", "scaling", "degenerate")


class CsvFormatError(EstimationError):
    """Malformed frame CSV; the message names the offending row and column."""


class ConfigSchemaError(EstimationError):
    """Structurally invalid sim config; carries a JSON-pointer style path."""

    def __init__(self, pointer: str, detail: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {detail}" if pointer else detail)


def _parse_cell(raw: str, row_num: int, column: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise CsvFormatError(
            f"row {row_num}, column {column!r}: cannot parse {raw!r} as a number"
        ) from None


def read_frame_csv(path, family: str, sigma: float = 1.0) -> PopulationFrame:
    """Load a frame CSV and map its auxiliaries through ``family`` at scale ``sigma``.

    One streaming pass of ``csv.reader``.  The header is the first row; where
    a name repeats, its last column is read.  Blank lines are skipped and not
    counted in row numbers, cells are stripped and extra cells are ignored.
    The first fault in row order raises ``CsvFormatError``, also a row that
    ``csv`` itself rejects, such as a cell longer than its field size limit.

    The auxiliary columns and the sampled ``y`` are held packed, 8 bytes a
    value, in ``array('d')``, and the sampled flags in a ``bytearray``;
    ``build_model`` receives them as numpy views, not copies.  Ids are
    checked for repeats with a dict: 0.40 MiB for 20 000 ids, where a set
    takes 2.0 MiB (29 and 32 MiB for 10^6 ids).
    """
    spec = ModelSpec(family, sigma=sigma)
    columns = FAMILIES[family][0]
    needed = ("unit_id",) + columns + ("y",)

    row_num = 0  # the last row read; a csv.Error is in the row after it
    # utf-8-sig drops the byte order mark that spreadsheets write before the header.
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            rows = csv.reader(fh)
            header = next(rows, None)
            if header is None:
                raise CsvFormatError("row 1: missing header row")
            row_num = 1
            missing = [c for c in needed if c not in header]
            if missing:
                raise CsvFormatError(f"row 1: header lacks column(s) {missing}")
            index = {name: i for i, name in enumerate(header)}
            width = max(index[c] for c in needed) + 1
            i_id, i_y = index["unit_id"], index["y"]
            aux = {c: array("d") for c in columns}
            aux_cells = [(index[c], aux[c].append) for c in columns]

            unit_id: list[str] = []
            seen: dict[str, None] = {}
            sampled = bytearray()
            y_sampled = array("d")
            for row_num, row in enumerate(filter(None, rows), start=2):
                if len(row) < width:
                    raise CsvFormatError(f"row {row_num}: fewer cells than header columns")
                uid = row[i_id].strip()
                if not uid:
                    raise CsvFormatError(f"row {row_num}, column 'unit_id': empty")
                if uid in seen:
                    raise CsvFormatError(f"row {row_num}, column 'unit_id': duplicate {uid!r}")
                seen[uid] = None
                unit_id.append(uid)
                y_raw = row[i_y].strip()
                has_y = y_raw != "" and y_raw.upper() != "NA"
                try:
                    for i, append in aux_cells:
                        append(float(row[i].strip()))
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
    except csv.Error as exc:
        raise CsvFormatError(f"row {row_num + 1}: {exc}") from None

    if not unit_id:
        raise CsvFormatError("row 2: no data rows")
    # The frame checks ids with a dict of its own; do not hold both at once.
    del seen
    views = {c: np.frombuffer(values) for c, values in aux.items()}
    return build_model(unit_id, spec, sampled=np.frombuffer(sampled, dtype=bool),
                       y_sampled=np.frombuffer(y_sampled), **views)


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


#: The keys of a diagnostics record, in ``build_report``'s order.
_RECORD_KEYS = ("unit_id", "delta_k", "r_k", "v_k", "divergence_k", "flagged")
#: A ``str.format`` template of one diagnostics record as ``json.dumps(report, indent=2)``
#: writes it.  The keys are plain ASCII, so json writes each as itself in double quotes.
_RECORD = "    {{\n" + ",\n".join('      "' + key + '": {}' for key in _RECORD_KEYS) + "\n    }}"


def _template_json(report: dict) -> str | None:
    """``json.dumps(report, indent=2, allow_nan=False)``, its diagnostics written from ``_RECORD``.

    The template writes a last key ``diagnostics`` whose value is a non-empty
    list of dicts that each hold exactly ``_RECORD_KEYS``, in that order,
    with JSON scalar values (a string, number, bool or None), as
    ``build_report`` always gives; for any other report this returns None.
    Each column is turned into text by one ``json.dumps`` call, which raises
    on a non-finite float, so the records skip the pure-Python indenting
    encoder.
    """
    records = report["diagnostics"] if next(reversed(report), None) == "diagnostics" else None
    if not (isinstance(records, list) and records
            and all(isinstance(rec, dict) and tuple(rec) == _RECORD_KEYS for rec in records)):
        return None
    columns = []
    for key in _RECORD_KEYS:
        values = [rec[key] for rec in records]
        text = json.dumps(values, allow_nan=False, separators=("\n", ":"))[1:-1]
        # Only a list or dict value, or a string that holds a bracket, puts "[" or "{" in the text.
        if ("[" in text or "{" in text) and any(isinstance(v, (list, tuple, dict)) for v in values):
            return None
        # json escapes every newline inside a string, so "\n" splits only between scalars.
        columns.append(text.split("\n"))
    del values, text  # the last column's, which the report text below does not need
    # A stand-in 0 for the records ends the text with "0\n}"; the records take its place.
    head = json.dumps({**report, "diagnostics": 0}, indent=2, allow_nan=False)
    return head[:-3] + "[\n" + ",\n".join(map(_RECORD.format, *columns)) + "\n  ]\n}"


def write_report(report: dict, path=None) -> None:
    """Write a report as indented JSON to ``path``, or to stdout when it is None.

    The text is ``json.dumps(report, indent=2, allow_nan=False)`` plus a
    newline, for every dict; ``_template_json`` writes it faster for every
    ``build_report`` dict.  A non-finite float raises ``ValueError`` before
    the file is opened.
    """
    text = _template_json(report) or json.dumps(report, indent=2, allow_nan=False)
    text += "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def result_to_dict(result: SimResult) -> dict:
    return {
        "reps": result.reps,
        "seed": result.seed,
        "failures": result.failures,
        "rows": [asdict(row) for row in result.rows],
    }


def write_result_json(result: SimResult, path) -> None:
    """Write a simulation result with ``write_report``; a non-finite float raises ``ValueError`` first."""
    write_report(result_to_dict(result), path)


def write_result_csv(result: SimResult, path) -> None:
    """Write a simulation result's rows as CSV, every ``SimRow`` field but ``theo_mse_theta``.

    ``theo_mse_theta`` is in the JSON file only.  Each value is written as its ``repr``.
    """
    from .simulate import SimRow

    columns = [f.name for f in fields(SimRow) if f.name != "theo_mse_theta"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([repr(getattr(row, col)) for col in columns] for row in result.rows)


#: Each kind of scalar in a sim config: the types it may hold (a bool is only a
#: bool, never a number or an id) and the message for a value of another type.
_SCALARS = {
    float: ((int, float), "expected a number, got {}"),
    int: (int, "expected an integer, got {}"),
    str: (str, "expected a string, got {}"),
    bool: (bool, "expected true or false"),
    "id": ((str, int), "expected a string or integer id"),
    list: (list, "expected an array, got {}"),
    dict: (dict, "expected an object, got {}"),
}


def _contamination_fields(doc: dict, pointer: str) -> dict:
    """A contamination object's fields: ``kind``, then, where the kind's
    ``CONTAMINATION_KINDS`` row has parameters, ``units`` and each parameter field."""
    from .simulate import CONTAMINATION_KINDS

    kind = _field(doc, "kind", str, pointer)
    if kind not in CONTAMINATION_KINDS:
        raise ConfigSchemaError(f"{pointer}/kind", f"unknown kind {kind!r}")
    params = CONTAMINATION_KINDS[kind][0]
    units = {"units": ["id"]} if params else {}
    return {"kind": str, **units, **{name: float for name, _, _ in params}}


#: The sim config schema: each object's fields, in the order they are checked, and
#: each field's kind: a key of ``_SCALARS``, ``[kind]`` for an array of that scalar,
#: or a nested object, given by its own table or by a function that picks the table
#: from the object.  An object whose fields are all arrays is a set of columns, which
#: must have equal length.  The keys are the init fields of ``FrameTemplate``,
#: ``SimConfig`` (``frame`` is its ``template``) and ``Contamination``, whose
#: defaults are the only ones.
_SIM_CONFIG = {
    "frame": {"unit_id": ["id"], "a": [float], "sigma2": [float], "sampled": [bool]},
    "theta_true": float,
    "c_grid": [float],
    "reps": int,
    "contamination": _contamination_fields,
    "seed": int,
}
#: The top-level fields a sim config may leave out; each then takes its ``SimConfig`` default.
_OPTIONAL = ("reps", "contamination", "seed")


def _scalars(values: list, kind, pointer: str) -> list:
    """``values`` checked against the scalar ``kind`` in one loop; an id is converted to str,
    and a number is left as given.  ``pointer.format(i)`` names ``values[i]``."""
    types, message = _SCALARS[kind]
    for i, v in enumerate(values):
        if isinstance(v, bool) is not (kind is bool) or not isinstance(v, types):
            raise ConfigSchemaError(pointer.format(i), message.format(type(v).__name__))
    return list(map(str, values)) if kind == "id" else values


def _check(value, kind, pointer: str):
    """``value`` checked against the schema ``kind`` at ``pointer``, and converted; an
    object becomes the dict of its fields."""
    if isinstance(kind, list):
        return _scalars(_check(value, list, pointer), kind[0], pointer + "/{}")
    if isinstance(kind, (type, str)):
        return _scalars([value], kind, pointer)[0]
    doc = _check(value, dict, pointer)
    return _object(doc, kind if isinstance(kind, dict) else kind(doc, pointer), pointer)


def _field(doc: dict, key: str, kind, pointer: str):
    if key not in doc:
        raise ConfigSchemaError(f"{pointer}/{key}", "missing required field")
    return _check(doc[key], kind, f"{pointer}/{key}")


def _object(doc: dict, fields: dict, pointer: str, optional: tuple = ()) -> dict:
    """The fields of ``doc`` by name, each checked in the order of ``fields``.

    A key ``fields`` does not name is a fault, and is found first.  A field
    in ``optional`` may be left out, and is then not in the result.  Where
    every field is an array, they must have equal length.
    """
    for key in doc:
        if key not in fields:
            escaped = key.replace("~", "~0").replace("/", "~1")
            raise ConfigSchemaError(f"{pointer}/{escaped}",
                                    f"unknown field; expected one of {list(fields)}")
    out = {key: _field(doc, key, kind, pointer)
           for key, kind in fields.items() if key in doc or key not in optional}
    columns = all(isinstance(kind, list) for kind in fields.values())
    if columns and len(set(map(len, out.values()))) > 1:
        raise ConfigSchemaError(pointer, f"{', '.join(fields)} must have equal length")
    return out


def sim_config_from_dict(doc: dict, seed_override: int | None = None) -> SimConfig:
    """Validate a sim config document against ``_SIM_CONFIG`` and build its ``SimConfig``.

    Structural faults raise ConfigSchemaError with the offending path, the
    first in the table's order; a key the schema does not read is one.  The
    fields are then passed by name to ``Contamination``, ``FrameTemplate`` and
    ``SimConfig``, whose value faults raise ModelValidationError, and a field
    left out takes its dataclass default.  ``seed_override`` replaces the
    config's ``seed``, which is still checked.
    """
    from .simulate import Contamination, SimConfig

    if not isinstance(doc, dict):
        raise ConfigSchemaError("", "top level must be an object")
    fields = _object(doc, _SIM_CONFIG, "", _OPTIONAL)
    if seed_override is not None:
        fields["seed"] = seed_override
    if "contamination" in fields:
        fields["contamination"] = Contamination(**fields["contamination"])
    return SimConfig(template=FrameTemplate(**fields.pop("frame")), **fields)


def read_sim_config(path, seed_override: int | None = None) -> SimConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ConfigSchemaError("", f"{path}: not UTF-8 text ({exc.reason})") from None
        except ValueError as exc:  # a JSONDecodeError, or an integer past Python's digit limit
            raise ConfigSchemaError("", f"invalid JSON: {exc}") from None
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
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError:
        raise CsvFormatError(f"cannot parse vector {text!r}") from None


def parse_matrix(text: str) -> np.ndarray:
    """Inline covariance: rows split by ';', entries by ','; or @FILE with a square JSON array."""
    if text.startswith("@"):
        return _json_file(text[1:], square=True)
    try:
        mat = np.array([[float(tok) for tok in row.split(",")] for row in text.split(";")])
    except ValueError:
        raise CsvFormatError(f"cannot parse matrix {text!r}") from None
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise CsvFormatError(f"matrix {text!r} is not square")
    return mat
