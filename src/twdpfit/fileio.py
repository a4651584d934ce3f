"""File formats and report serialization.

Formats (all plain text, byte-order independent):

* envelope file: CSV, one nonnegative real per line, optional header line;
* spatial grid: CSV with columns ix,iy,iz,ifreq,re,im plus a JSON header
  sidecar (same stem, .json) carrying spacing, frequency axis and an
  optional [azimuth, elevation] direction in degrees;
* directional scan: CSV with columns idir,ifreq,re,im plus a JSON header
  listing per-direction azimuth/elevation/noise power and the frequency
  axis;
* scan power map: CSV with columns azimuth,elevation,power_norm,marker;
* fit report: versioned JSON checked against REPORT_SCHEMA, which is
  derived from the report dataclasses of ``inference``, by a walk over the
  schema itself (the Draft 7 keywords it uses, no validator library);
* correlation map: CSV value matrix plus a JSON header with lag axes and
  axis cuts;
* BER curve: CSV (snr_db, ber) plus a JSON metadata sidecar.

All writes are atomic (temp file + rename in the target directory), and
every JSON file has one layout (``write_json``). A writer of two files, or a
command that writes several, renders them all first and writes them with
``write_together``: a failed write removes the files written before it.

Every CSV is rendered by ``_csv_text`` a block of rows at a time, but each
file's text is joined in full before ``write_together`` writes the first
file. The envelope reader parses the lines of the open file as they stream
past, and reads the file again only to name a bad line.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import warnings
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path
from typing import Iterator, get_type_hints

import numpy as np

from .errors import DomainError, ParseError, TwdpfitError
from .inference import FitReport
from .linksim import BerCurve
from .measurement import CorrelationMap, DirectionalScan, SpatialGrid

__all__ = [
    "REPORT_SCHEMA",
    "write_text_atomic",
    "write_json",
    "write_together",
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
    "write_power_map",
    "write_correlation_map",
    "write_ber_curve",
]

_JSON_TYPES = {float: "number", int: "integer", bool: "boolean", str: "string"}
_BLOCK_CELLS = 1 << 16          # values that _csv_text renders per block of rows


def _object_schema(cls) -> dict:
    """JSON schema of a dataclass: every field required and no other, nested
    dataclasses nested, and each field's metadata bounding (or typing) it."""
    hints = get_type_hints(cls)
    props = {f.name: _object_schema(hints[f.name]) if is_dataclass(hints[f.name])
             else {"type": _JSON_TYPES.get(hints[f.name]), **f.metadata} for f in fields(cls)}
    return {"type": "object", "properties": props, "required": list(props),
            "additionalProperties": False}


REPORT_SCHEMA = {"$schema": "http://json-schema.org/draft-07/schema#", **_object_schema(FitReport)}


# ---------------------------------------------------------------------------
# atomic text output
# ---------------------------------------------------------------------------

def _create_temp(path: Path) -> tuple[int, Path]:
    """Open a fresh temp file beside path, mode 0o666 less the umask (the
    mode an ordinary open() gives; mkstemp would force 0o600), named by 12
    random hex digits (``secrets`` would import hashlib, ~4 ms a process)."""
    while True:
        tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
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


def write_together(*writes) -> None:
    """Call writer(path, value) for each (writer, path, value) in order. If
    one raises, remove the files that the ones before it wrote and re-raise,
    so the set is written whole or not at all."""
    done = []
    try:
        for writer, path, value in writes:
            writer(path, value)
            done.append(path)
    except BaseException:
        for path in done:
            Path(path).unlink(missing_ok=True)
        raise


def _csv_text(columns, header: str | None = None) -> str:
    """CSV text of equal-length columns under an optional header line: str()
    of each Python value (a float's repr, an int's digits), rendered a block
    of rows at a time, so that only one block is ever held as Python objects."""
    columns = [np.asarray(col) for col in columns]
    fmt, step = ",".join(["%s"] * len(columns)), max(1, _BLOCK_CELLS // len(columns))
    chunks = [] if header is None else [header + "\n"]
    for start in range(0, len(columns[0]), step):
        block = [col[start:start + step].tolist() for col in columns]
        rows = map(str, block[0]) if len(block) == 1 else map(fmt.__mod__, zip(*block))
        chunks.append("\n".join(rows) + "\n")
    return "".join(chunks)


def _sidecar(path: str | Path) -> Path:
    return Path(path).with_suffix(".json")


def _write_indexed(path: str | Path, header: dict, arr: np.ndarray, columns: str) -> None:
    """JSON header sidecar, then one CSV row of indices, re and im per entry."""
    flat = arr.ravel()
    text = _csv_text([*np.indices(arr.shape).reshape(arr.ndim, -1), flat.real, flat.imag], columns)
    write_together((write_json, _sidecar(path), header), (write_text_atomic, path, text))


def _read_indexed(path: Path, shape: tuple[int, ...], columns: str) -> np.ndarray:
    """Complex array of `shape` from CSV rows of its indices, re and im."""
    try:
        with warnings.catch_warnings():     # no data rows: the row count below says so
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}")
    if data.shape[0] != np.prod(shape):
        raise ParseError(f"{path}: row count does not match the header shape")
    if data.shape[1] != len(shape) + 2:
        raise ParseError(f"{path}: expected {len(shape) + 2} columns {columns}")
    idx = data[:, :-2]
    # checked before the cast, which warns on NaN, infinities and 1e300;
    # NaN fails every comparison
    if not np.all((idx >= 0) & (idx < shape) & (np.floor(idx) == idx)):
        raise ParseError(f"{path}: index not an integer inside the header shape")
    flat = np.ravel_multi_index(tuple(idx.astype(np.int64).T), shape)
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


def _reals(value, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """A JSON number, or (nested) list of numbers, as a float array, of `shape`
    if given; a JSON true, false or null is an error, not 1.0, 0.0 or NaN."""
    leaves = np.asarray(value, dtype=object)
    for leaf in leaves.flat:
        if isinstance(leaf, (bool, type(None))):
            raise ValueError(f"expected a number, got {leaf!r}")
    out = leaves.astype(float)
    if shape is not None and out.shape != shape:
        raise ValueError(f"expected shape {shape}, got {out.shape}")
    return out


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

def _value_texts(lines) -> Iterator[str]:
    """The stripped lines, the first one blank if it is not a number (a header)."""
    texts = map(str.strip, lines)
    first = next(texts, "")
    try:
        float(first)
    except ValueError:
        first = ""
    return itertools.chain([first], texts)


def read_envelopes(path: str | Path) -> np.ndarray:
    """One nonnegative real per line, a line ending at LF, CRLF or CR (as
    open() splits them); a single leading non-numeric line is a header."""
    path = Path(path)
    try:
        with open(path) as handle:
            values = np.fromiter(map(float, filter(None, _value_texts(handle))), float)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}")
    except ValueError:
        values = None
    if values is None or not np.all(np.isfinite(values) & (values >= 0)):
        _raise_first_bad_line(path)
    if not len(values):
        raise ParseError(f"{path}: no envelope samples found")
    return values


def _raise_first_bad_line(path: Path) -> None:
    """ParseError naming the first stripped line that is not a finite,
    nonnegative number. Only a regular file is read again to find it: a pipe
    cannot be, and a FIFO would wait for a writer."""
    with open(path) if path.is_file() else io.StringIO() as handle:
        for lineno, text in enumerate(_value_texts(handle), start=1):
            if not text:
                continue
            try:
                val = float(text)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: not a number: {text!r}")
            if not np.isfinite(val) or val < 0:
                raise ParseError(f"{path}:{lineno}: envelope must be finite and >= 0")
    raise ParseError(f"{path}: a line is not a finite number >= 0")


def write_envelopes(path: str | Path, values: np.ndarray) -> None:
    write_text_atomic(path, _csv_text([np.asarray(values, dtype=float)], "envelope"))


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
        spacing = float(_reals(header["spacing"], ()))
        freq_axis = None if header.get("freq_axis") is None else _reals(header["freq_axis"])
        direction = None if header.get("direction") is None else _reals(header["direction"], (2,))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:   # an int beyond float
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
        azimuth, elevation, noise = (_reals([d[key] for d in dirs], (len(dirs),))
                                     for key in ("azimuth", "elevation", "noise_power"))
        freq_axis = None if header.get("freq_axis") is None else _reals(header["freq_axis"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:   # an int beyond float
        raise ParseError(f"{_sidecar(path)}: bad scan header ({exc})")
    samples = _read_indexed(path, (len(dirs), n_freq), "idir,ifreq,re,im")
    return DirectionalScan(azimuth, elevation, samples, noise, freq_axis=freq_axis)


# ---------------------------------------------------------------------------
# fit reports
# ---------------------------------------------------------------------------

def _breach(doc, schema: dict, path: str = "report") -> tuple[str, str] | None:
    """(dotted field, fault) where doc first breaks schema, or None, on the keywords REPORT_SCHEMA
    uses. As in Draft 7, a bool is no number, 1.0 is an integer and NaN passes every bound."""
    number = isinstance(doc, (int, float)) and not isinstance(doc, bool)
    if "type" in schema and not {"object": isinstance(doc, dict), "string": isinstance(doc, str),
                                 "boolean": isinstance(doc, bool), "number": number,
                                 "integer": number and not doc % 1}[schema["type"]]:
        return path, f"{doc!r} is not of type {schema['type']!r}"
    if ("enum" in schema and doc not in schema["enum"]
            or "const" in schema and doc != schema["const"]):
        return path, f"{doc!r} is not an allowed value"
    if number and (doc < schema.get("minimum", np.nan) or doc > schema.get("maximum", np.nan)
                   or doc <= schema.get("exclusiveMinimum", np.nan)):       # never for NaN
        return path, f"{doc!r} is out of bounds"
    props = schema.get("properties", {})
    for key in dict.fromkeys([*schema.get("required", ()), *doc]) if isinstance(doc, dict) else ():
        if key not in doc or key not in props and schema.get("additionalProperties") is False:
            return f"{path}.{key}", "missing" if key not in doc else "not a report field"
        if key in props and (found := _breach(doc[key], props[key], f"{path}.{key}")):
            return found


def _checked(doc: dict, fault=TwdpfitError, source="internal error") -> dict:
    """doc, or fault naming the field where it first breaks REPORT_SCHEMA."""
    if found := _breach(doc, REPORT_SCHEMA):
        raise fault(f"{source}: {found[0]} does not match the schema ({found[1]})")
    return doc


def report_to_dict(report: FitReport) -> dict:
    """The report's fields, nested objects as dicts, checked against the schema."""
    return _checked(asdict(report))


def _from_dict(cls, doc: dict):
    """doc as an instance of dataclass cls, nested dataclasses rebuilt from their dicts."""
    hints = get_type_hints(cls)
    return cls(**{key: _from_dict(hints[key], value) if is_dataclass(hints[key]) else value
                  for key, value in doc.items()})


def report_from_dict(doc: dict, source="report") -> FitReport:
    try:
        return _from_dict(FitReport, _checked(doc, ParseError, source))
    except DomainError as exc:          # GridConfig's checks, which the schema does not state
        raise ParseError(f"{source}: report.grid does not match the schema ({exc})") from None


def write_report(path: str | Path, report: FitReport) -> None:
    write_json(path, report_to_dict(report))


def read_report(path: str | Path) -> FitReport:
    return report_from_dict(_load_json(Path(path)), path)


# ---------------------------------------------------------------------------
# plot-ready tables
# ---------------------------------------------------------------------------

def write_overlay(path: str | Path, table: dict[str, np.ndarray]) -> None:
    """CDF overlay table: column name -> column values, equal lengths."""
    write_text_atomic(path, _csv_text(np.asarray(list(table.values()), dtype=float),
                                      ",".join(table)))


def write_power_map(path: str | Path, table: dict[str, np.ndarray]) -> None:
    """Scan power map: column name -> values (floats, or the markers)."""
    write_text_atomic(path, _csv_text(table.values(), ",".join(table)))


def write_correlation_map(path: str | Path, cmap: CorrelationMap) -> None:
    write_together((write_json, _sidecar(path), {
        "kind": "correlation_map",
        "lag_unit": "wavelengths",
        "lag_x": list(map(float, cmap.lag_x)),
        "lag_y": list(map(float, cmap.lag_y)),
        "cut_x": list(map(float, cmap.cut_x)),
        "cut_y": list(map(float, cmap.cut_y)),
    }), (write_text_atomic, path, _csv_text(np.asarray(cmap.values, dtype=float).T)))


def write_ber_curve(path: str | Path, curve: BerCurve) -> None:
    write_together((write_json, _sidecar(path), {
        "kind": "ber_curve",
        "k": curve.params.k,
        "delta": curve.params.delta,
        "omega": curve.params.omega,
        "n_symbols": curve.n_symbols,
        "seed": curve.seed,
    }), (write_text_atomic, path, _csv_text(np.asarray([curve.snr_db, curve.ber], dtype=float),
                                            "snr_db,ber")))
