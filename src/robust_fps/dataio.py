"""File formats: frame CSV ingestion, report JSON emission, sim config parsing.

Frame CSV: header row mandatory, UTF-8, '.' decimal point, one row per unit.
Columns depend on the model family: ``unit_id,x,y`` (ratio, royall),
``unit_id,pi,y`` (horvitz_thompson), ``unit_id,a,sigma2,y`` (custom).  An
empty y cell (or the literal NA) marks an unsampled unit.

Reports are JSON objects with deterministic (insertion) key order; floats
use Python's shortest round-trip representation.
"""

from __future__ import annotations

import csv
import json
from typing import Any

import numpy as np

from .divergence import InfluenceRecord
from .errors import EstimationError, ModelValidationError
from .estimators import RobustEstimate
from .frame import FrameTemplate, ModelSpec, PopulationFrame, build_model
from .risk import RiskReport
from .simulate import Contamination, SimConfig

CLI_MODEL_NAMES = {"ratio": "ratio", "royall": "royall", "ht": "horvitz_thompson", "custom": "custom"}

_FAMILY_COLUMNS = {
    "ratio": ("x",),
    "royall": ("x",),
    "horvitz_thompson": ("pi",),
    "custom": ("a", "sigma2"),
}


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
    """Load a frame CSV and map its auxiliaries through the given model family."""
    if family not in _FAMILY_COLUMNS:
        raise ModelValidationError(f"unknown model family {family!r}")
    needed = ("unit_id",) + _FAMILY_COLUMNS[family] + ("y",)

    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise CsvFormatError("row 1: missing header row")
        missing = [c for c in needed if c not in reader.fieldnames]
        if missing:
            raise CsvFormatError(f"row 1: header lacks column(s) {missing}")

        unit_id: list[str] = []
        seen: set[str] = set()
        aux: dict[str, list[float]] = {c: [] for c in _FAMILY_COLUMNS[family]}
        sampled: list[bool] = []
        y_sampled: list[float] = []
        for row_num, row in enumerate(reader, start=2):
            if any(row.get(c) is None for c in needed):
                raise CsvFormatError(f"row {row_num}: fewer cells than header columns")
            uid = row["unit_id"].strip()
            if not uid:
                raise CsvFormatError(f"row {row_num}, column 'unit_id': empty")
            if uid in seen:
                raise CsvFormatError(f"row {row_num}, column 'unit_id': duplicate {uid!r}")
            seen.add(uid)
            unit_id.append(uid)
            for c in _FAMILY_COLUMNS[family]:
                aux[c].append(_parse_cell(row[c].strip(), row_num, c))
            y_raw = row["y"].strip()
            if y_raw == "" or y_raw.upper() == "NA":
                sampled.append(False)
            else:
                sampled.append(True)
                y_sampled.append(_parse_cell(y_raw, row_num, "y"))

    if not unit_id:
        raise CsvFormatError("row 2: no data rows")
    # The frame checks ids with a set of its own; do not hold both at once.
    del seen
    spec = ModelSpec(family, sigma=sigma) if family == "ratio" else ModelSpec(family)
    return build_model(unit_id, spec, sampled=sampled, y_sampled=y_sampled, **aux)


def risk_to_dict(report: RiskReport) -> dict:
    return {
        "mse_robust": report.mse_robust,
        "mse_baseline": report.mse_baseline,
        "excess": report.excess,
        "g_of_c": report.g_of_c,
        "c": report.c,
        "components": {
            "unseen_variance": report.unseen_variance,
            "estimation_variance": report.estimation_variance,
            "clipping_penalty": report.clipping_penalty,
        },
    }


def influence_to_dict(rec: InfluenceRecord, clip_c: float | None) -> dict:
    out = {
        "unit_id": rec.unit_id,
        "delta_k": rec.delta_k,
        "r_k": rec.r_k,
        "v_k": rec.v_k,
        "divergence_k": rec.divergence_k,
        "flagged": None if clip_c is None else bool(abs(rec.r_k) > clip_c),
    }
    return out


def build_report(
    *,
    model: dict,
    frame: PopulationFrame,
    classical: float | None = None,
    robust: RobustEstimate | None = None,
    risk: RiskReport | None = None,
    diagnostics: list[InfluenceRecord] | None = None,
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
        report["robust"] = {
            "theta_hat_R": robust.theta_hat_R,
            "ybar_P_R": robust.ybar_P_R,
            "c_used": robust.c_used,
            "clipped_units": list(robust.clipped_units),
            "scaling": robust.scaling,
            "degenerate": robust.degenerate,
        }
    report["risk"] = None if risk is None else risk_to_dict(risk)
    report["diagnostics"] = [
        influence_to_dict(rec, flag_c) for rec in (diagnostics or [])
    ]
    return report


def write_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


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


def _number_array(values: list, pointer: str) -> list[float]:
    out = []
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigSchemaError(f"{pointer}/{i}", f"expected a number, got {type(v).__name__}")
        out.append(float(v))
    return out


def sim_config_from_dict(doc: dict, seed_override: int | None = None) -> SimConfig:
    """Validate a sim config document; structural faults raise ConfigSchemaError
    (with the offending path), value faults raise ModelValidationError."""
    if not isinstance(doc, dict):
        raise ConfigSchemaError("", "top level must be an object")
    frame_doc = _require(doc, "frame", dict, "")
    unit_id = _require(frame_doc, "unit_id", list, "/frame")
    ids = []
    for i, u in enumerate(unit_id):
        if not isinstance(u, (str, int)):
            raise ConfigSchemaError(f"/frame/unit_id/{i}", "expected a string or integer id")
        ids.append(str(u))
    a = _number_array(_require(frame_doc, "a", list, "/frame"), "/frame/a")
    sigma2 = _number_array(_require(frame_doc, "sigma2", list, "/frame"), "/frame/sigma2")
    sampled_raw = _require(frame_doc, "sampled", list, "/frame")
    sampled = []
    for i, flag in enumerate(sampled_raw):
        if not isinstance(flag, bool):
            raise ConfigSchemaError(f"/frame/sampled/{i}", "expected true or false")
        sampled.append(flag)
    if not (len(a) == len(sigma2) == len(sampled) == len(ids)):
        raise ConfigSchemaError("/frame", "unit_id, a, sigma2, sampled must have equal length")

    theta = _require(doc, "theta_true", float, "")
    c_grid = _number_array(_require(doc, "c_grid", list, ""), "/c_grid")
    reps = _require(doc, "reps", int, "") if "reps" in doc else None

    cont_doc = doc.get("contamination", {"kind": "none"})
    if not isinstance(cont_doc, dict):
        raise ConfigSchemaError("/contamination", "expected an object")
    kind = _require(cont_doc, "kind", str, "/contamination")
    if kind == "none":
        contamination = Contamination()
    else:
        units_raw = _require(cont_doc, "units", list, "/contamination")
        units = []
        for i, u in enumerate(units_raw):
            if not isinstance(u, (str, int)):
                raise ConfigSchemaError(f"/contamination/units/{i}", "expected a string or integer id")
            units.append(str(u))
        params = {}
        if kind == "shift":
            params["delta"] = _require(cont_doc, "delta", float, "/contamination")
        elif kind == "variance_inflation":
            params["factor"] = _require(cont_doc, "factor", float, "/contamination")
        elif kind == "substitution":
            params["value"] = _require(cont_doc, "value", float, "/contamination")
        else:
            raise ConfigSchemaError("/contamination/kind", f"unknown kind {kind!r}")
        contamination = Contamination(kind=kind, units=tuple(units), **params)

    if seed_override is not None:
        seed = int(seed_override)
    elif "seed" in doc:
        seed = _require(doc, "seed", int, "")
    else:
        seed = 0

    template = FrameTemplate(tuple(ids), np.array(a), np.array(sigma2), np.array(sampled))
    kwargs = {} if reps is None else {"reps": reps}
    return SimConfig(
        template=template,
        theta_true=theta,
        contamination=contamination,
        c_grid=tuple(c_grid),
        seed=seed,
        **kwargs,
    )


def read_sim_config(path, seed_override: int | None = None) -> SimConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigSchemaError("", f"invalid JSON: {exc}") from None
    return sim_config_from_dict(doc, seed_override)


def parse_vector(text: str) -> np.ndarray:
    """Inline mean vector: comma-separated numbers, or @FILE with a JSON array."""
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            data = json.load(fh)
        return np.asarray(data, dtype=float)
    try:
        return np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError:
        raise CsvFormatError(f"cannot parse vector {text!r}") from None


def parse_matrix(text: str) -> np.ndarray:
    """Inline covariance: rows split by ';', entries by ','; or @FILE JSON."""
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            data = json.load(fh)
        return np.asarray(data, dtype=float)
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
