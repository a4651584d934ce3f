"""File formats and report serialization.

Formats (all plain text, byte-order independent):

* envelope file: CSV, one nonnegative real per line, optional header line;
* spatial grid: CSV with columns ix,iy,iz,ifreq,re,im plus a JSON header
  sidecar (same stem, .json) carrying spacing, frequency axis and an
  optional [azimuth, elevation] direction in degrees;
* directional scan: CSV with columns idir,ifreq,re,im plus a JSON header
  listing per-direction azimuth/elevation/noise power and the frequency
  axis;
* fit report: versioned JSON validated against REPORT_SCHEMA (jsonschema
  is imported only by the report functions, so other formats never load it);
* correlation map: CSV value matrix plus a JSON header with lag axes and
  axis cuts;
* BER curve: CSV (snr_db, ber) plus a JSON metadata sidecar.

All writes are atomic (temp file + rename in the target directory), and
every JSON file has one layout (``write_json``).
"""

from __future__ import annotations

import json
import os
import secrets
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import ParseError
from .inference import FitReport, GridConfig, GTestResult, ModelFit
from .linksim import BerCurve
from .measurement import CorrelationMap, DirectionalScan, SpatialGrid

__all__ = [
    "REPORT_SCHEMA",
    "write_text_atomic",
    "write_json",
    "read_envelopes",
    "write_envelopes",
    "read_grid",
    "write_grid",
    "read_scan",
    "write_scan",
    "report_to_dict",
    "report_from_dict",
    "write_report",
    "read_report",
    "write_overlay",
    "write_correlation_map",
    "write_ber_curve",
]

_MODEL_FIT_SCHEMA = {
    "type": "object",
    "properties": {
        "model": {"type": "string", "enum": ["rice", "twdp"]},
        "k_hat": {"type": "number", "minimum": 0},
        "delta_hat": {"type": "number", "minimum": 0, "maximum": 1},
        "loglik": {"type": "number"},
        "aicc": {"type": "number"},
        "boundary_hit": {"type": "boolean"},
    },
    "required": ["model", "k_hat", "delta_hat", "loglik", "aicc", "boundary_hit"],
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        "schema_version": {"type": "integer", "const": 1},
        "omega_hat": {"type": "number", "exclusiveMinimum": 0},
        "n_fit": {"type": "integer", "minimum": 1},
        "n_moment": {"type": "integer", "minimum": 1},
        "rice": _MODEL_FIT_SCHEMA,
        "twdp": _MODEL_FIT_SCHEMA,
        "chosen": {"type": "string", "enum": ["rice", "twdp"]},
        "gtest": {
            "type": "object",
            "properties": {
                "statistic": {"type": "number"},
                "dof": {"type": "integer", "minimum": 1},
                "threshold": {"type": "number"},
                "verdict": {"type": "string", "enum": ["accepted", "rejected"]},
                "n_cells": {"type": "integer", "minimum": 1},
                "alpha": {"type": "number"},
                "per_cell": {"type": "integer", "minimum": 1},
            },
            "required": ["statistic", "dof", "threshold", "verdict",
                         "n_cells", "alpha", "per_cell"],
            "additionalProperties": False,
        },
        "grid": {
            "type": "object",
            "properties": {
                "k_min": {"type": "number"},
                "k_max": {"type": "number"},
                "k_step": {"type": "number"},
                "delta_step": {"type": "number"},
            },
            "required": ["k_min", "k_max", "k_step", "delta_step"],
            "additionalProperties": False,
        },
    },
    "required": ["schema_version", "omega_hat", "n_fit", "n_moment",
                 "rice", "twdp", "chosen", "gtest", "grid"],
    "additionalProperties": False,
}


# ---------------------------------------------------------------------------
# atomic text output
# ---------------------------------------------------------------------------

def _create_temp(path: Path) -> tuple[int, Path]:
    """Open a fresh temp file beside path, mode 0o666 less the umask (the
    mode an ordinary open() gives; mkstemp would force 0o600)."""
    while True:
        tmp = path.with_name(f"{path.name}.{secrets.token_hex(6)}.tmp")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write through a temp file beside path and a rename; an OSError names
    path, not the temp file, and leaves no temp file behind."""
    path, tmp = Path(path), None
    try:
        fd, tmp = _create_temp(path)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def write_json(path: str | Path, doc: dict) -> None:
    """JSON with sorted keys, a two-space indent and a final newline."""
    write_text_atomic(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_csv(path: str | Path, matrix, header: str | None = None) -> None:
    """One CSV row per matrix row, each value as the repr of its float,
    under an optional header line."""
    rows = [] if header is None else [header]
    rows += [",".join(map(repr, row)) for row in np.asarray(matrix, dtype=float).tolist()]
    write_text_atomic(path, "\n".join(rows) + "\n")


def _sidecar(path: str | Path) -> Path:
    return Path(path).with_suffix(".json")


def _write_indexed(path: str | Path, header: dict, arr: np.ndarray, columns: str) -> None:
    """JSON header sidecar, then one CSV row of indices, re and im per entry."""
    write_json(_sidecar(path), header)
    fmt = ",".join(["%d"] * arr.ndim) + ",%r,%r"
    flat = arr.ravel()
    rows = [columns] + [fmt % (*idx, re, im) for idx, re, im in
                        zip(np.ndindex(arr.shape), flat.real.tolist(), flat.imag.tolist())]
    write_text_atomic(path, "\n".join(rows) + "\n")


def _read_indexed(path: Path, shape: tuple[int, ...], columns: str) -> np.ndarray:
    """Complex array of `shape` from CSV rows of its indices, re and im."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}")
    if data.shape[1] != len(shape) + 2:
        raise ParseError(f"{path}: expected {len(shape) + 2} columns {columns}")
    if data.shape[0] != np.prod(shape):
        raise ParseError(f"{path}: row count does not match the header shape")
    idx = data[:, :-2].astype(int)
    if (idx != data[:, :-2]).any() or (idx < 0).any() or (idx >= shape).any():
        raise ParseError(f"{path}: index not an integer inside the header shape")
    flat = np.ravel_multi_index(tuple(idx.T), shape)
    if np.any(np.bincount(flat) > 1):   # given the row count, also a missing cell
        raise ParseError(f"{path}: duplicate index rows")
    out = np.empty(len(flat), dtype=complex)       # every cell is filled once
    out.real[flat] = data[:, -2]
    out.imag[flat] = data[:, -1]
    return out.reshape(shape)


def _count(value) -> int:
    """A JSON integer >= 0; a bool, float or string is an error."""
    if type(value) is not int or value < 0:
        raise ValueError(f"expected an integer >= 0, got {value!r}")
    return value


def _freq_axis(header: dict) -> np.ndarray | None:
    return None if header.get("freq_axis") is None else np.asarray(header["freq_axis"], float)


def _direction(header: dict) -> tuple[float, float] | None:
    """The optional [azimuth, elevation] pair; anything but null or a
    two-element list is an error."""
    value = header.get("direction")
    if value is not None and (type(value) is not list or len(value) != 2):
        raise ValueError(f"expected null or [azimuth, elevation], got {value!r}")
    return None if value is None else (float(value[0]), float(value[1]))


def _load_json(path: Path) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ParseError(f"{path}: missing header file")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read ({exc})")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})")


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

def read_envelopes(path: str | Path) -> np.ndarray:
    """One nonnegative real per line; a single leading non-numeric line is
    treated as a header."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}")
    texts = [raw.strip() for raw in lines]
    if texts:
        try:
            float(texts[0])
        except ValueError:
            texts[0] = ""                       # header
    try:
        values = np.fromiter(map(float, filter(None, texts)), float)
    except ValueError:
        values = None
    if values is None or not np.all(np.isfinite(values) & (values >= 0)):
        _raise_first_bad_line(path, texts)
    if not len(values):
        raise ParseError(f"{path}: no envelope samples found")
    return values


def _raise_first_bad_line(path: Path, texts: list[str]) -> None:
    """ParseError naming the first stripped line that is not a finite,
    nonnegative number."""
    for lineno, text in enumerate(texts, start=1):
        if not text:
            continue
        try:
            val = float(text)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: not a number: {text!r}")
        if not np.isfinite(val) or val < 0:
            raise ParseError(f"{path}:{lineno}: envelope must be finite and >= 0")


def write_envelopes(path: str | Path, values: np.ndarray) -> None:
    body = "envelope\n" + "\n".join(map(repr, np.asarray(values, dtype=float).tolist())) + "\n"
    write_text_atomic(path, body)


# ---------------------------------------------------------------------------
# spatial grid
# ---------------------------------------------------------------------------

def write_grid(path: str | Path, grid: SpatialGrid) -> None:
    header = {
        "kind": "spatial_grid",
        "shape": list(grid.shape),
        "spacing": grid.spacing,
        "freq_axis": (list(map(float, grid.freq_axis))
                      if grid.freq_axis is not None else None),
        "direction": (list(grid.direction) if grid.direction is not None else None),
    }
    _write_indexed(path, header, grid.h, "ix,iy,iz,ifreq,re,im")


def read_grid(path: str | Path) -> SpatialGrid:
    path = Path(path)
    header = _load_json(_sidecar(path))
    try:
        nx, ny, nz, nf = map(_count, header["shape"])
        spacing = float(header["spacing"])
        freq_axis = _freq_axis(header)
        direction = _direction(header)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{_sidecar(path)}: bad grid header ({exc})")
    h = _read_indexed(path, (nx, ny, nz, nf), "ix,iy,iz,ifreq,re,im")
    return SpatialGrid(h, spacing=spacing, freq_axis=freq_axis, direction=direction)


# ---------------------------------------------------------------------------
# directional scan
# ---------------------------------------------------------------------------

def write_scan(path: str | Path, scan: DirectionalScan) -> None:
    header = {
        "kind": "directional_scan",
        "directions": [
            {"azimuth": float(a), "elevation": float(e), "noise_power": float(p)}
            for a, e, p in zip(scan.azimuth, scan.elevation, scan.noise_power)
        ],
        "n_freq": int(scan.samples.shape[1]),
        "freq_axis": (list(map(float, scan.freq_axis))
                      if scan.freq_axis is not None else None),
    }
    _write_indexed(path, header, scan.samples, "idir,ifreq,re,im")


def read_scan(path: str | Path) -> DirectionalScan:
    path = Path(path)
    header = _load_json(_sidecar(path))
    try:
        dirs = header["directions"]
        n_freq = _count(header["n_freq"])
        azimuth = np.array([d["azimuth"] for d in dirs], dtype=float)
        elevation = np.array([d["elevation"] for d in dirs], dtype=float)
        noise = np.array([d["noise_power"] for d in dirs], dtype=float)
        freq_axis = _freq_axis(header)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{_sidecar(path)}: bad scan header ({exc})")
    samples = _read_indexed(path, (len(dirs), n_freq), "idir,ifreq,re,im")
    return DirectionalScan(azimuth, elevation, samples, noise, freq_axis=freq_axis)


# ---------------------------------------------------------------------------
# fit reports
# ---------------------------------------------------------------------------

def _checked(doc: dict) -> dict:
    """doc, or the error jsonschema.validate would raise for it (the best
    match), without validate's check of REPORT_SCHEMA itself on every call:
    that check costs ten times the validation."""
    import jsonschema
    error = jsonschema.exceptions.best_match(
        jsonschema.Draft7Validator(REPORT_SCHEMA).iter_errors(doc))
    if error is not None:
        raise error
    return doc


def report_to_dict(report: FitReport) -> dict:
    """The report's fields, nested objects as dicts, checked against the schema."""
    return _checked(asdict(report))


def report_from_dict(doc: dict) -> FitReport:
    _checked(doc)
    return FitReport(**{**doc, "rice": ModelFit(**doc["rice"]), "twdp": ModelFit(**doc["twdp"]),
                        "gtest": GTestResult(**doc["gtest"]), "grid": GridConfig(**doc["grid"])})


def write_report(path: str | Path, report: FitReport) -> None:
    write_json(path, report_to_dict(report))


def read_report(path: str | Path) -> FitReport:
    doc = _load_json(Path(path))
    import jsonschema
    try:
        return report_from_dict(doc)
    except jsonschema.ValidationError as exc:
        raise ParseError(f"{path}: report does not match the schema ({exc.message})")


# ---------------------------------------------------------------------------
# plot-ready tables
# ---------------------------------------------------------------------------

def write_overlay(path: str | Path, table: dict[str, np.ndarray]) -> None:
    """CDF overlay table: column name -> column values, equal lengths."""
    _write_csv(path, np.column_stack(list(table.values())), ",".join(table))


def write_correlation_map(path: str | Path, cmap: CorrelationMap) -> None:
    write_json(_sidecar(path), {
        "kind": "correlation_map",
        "lag_unit": "wavelengths",
        "lag_x": list(map(float, cmap.lag_x)),
        "lag_y": list(map(float, cmap.lag_y)),
        "cut_x": list(map(float, cmap.cut_x)),
        "cut_y": list(map(float, cmap.cut_y)),
    })
    _write_csv(path, cmap.values)


def write_ber_curve(path: str | Path, curve: BerCurve) -> None:
    write_json(_sidecar(path), {
        "kind": "ber_curve",
        "k": curve.params.k,
        "delta": curve.params.delta,
        "omega": curve.params.omega,
        "n_symbols": curve.n_symbols,
        "seed": curve.seed,
    })
    _write_csv(path, np.column_stack([curve.snr_db, curve.ber]), "snr_db,ber")
