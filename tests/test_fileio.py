"""File formats: round trips, parse failures, schema validation, atomicity."""

import json
import os
import stat

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from twdpfit import (
    DirectionalScan,
    DomainError,
    FadingParams,
    GridConfig,
    ParseError,
    PlaneWave,
    PlaneWaveScene,
    fit_envelopes,
    partition_stride,
    sample_twdp,
    simulate_ber,
    synth_field,
    average_corr,
)
from twdpfit import fileio
from twdpfit.inference import FitReport, GTestResult, ModelFit
from twdpfit.linksim import BerCurve
from twdpfit.measurement import SPEED_OF_LIGHT, CorrelationMap, SpatialGrid


@pytest.fixture
def report():
    env = sample_twdp(FadingParams(5.0, 0.8, 1.0), 20_000, 1).envelopes
    return fit_envelopes(partition_stride(env, 10), GridConfig(k_max=20.0))


class TestEnvelopes:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "env.csv"
        values = np.array([0.0, 1.5, 2.25, 1e-9])
        fileio.write_envelopes(path, values)
        assert np.array_equal(fileio.read_envelopes(path), values)

    @pytest.mark.parametrize("values", [
        np.array([0.0, 5e-324, 2.5e-310, 1e300, 1.5, 0.1, 1 / 3, 123456789.0]),
        [0.0, 5e-324, 1e300, 2.25, 7],
    ])
    def test_bytes_match_per_value_repr(self, tmp_path, values):
        path = tmp_path / "env.csv"
        fileio.write_envelopes(path, values)
        want = "envelope\n" + "\n".join(repr(float(v)) for v in values) + "\n"
        assert path.read_bytes() == want.encode()

    def test_headerless_accepted(self, tmp_path):
        path = tmp_path / "env.csv"
        path.write_text("1.0\n2.0\n")
        assert np.array_equal(fileio.read_envelopes(path), [1.0, 2.0])

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "env.csv"
        path.write_text("envelope\n1.0\nbogus\n")
        with pytest.raises(ParseError, match="env.csv:3"):
            fileio.read_envelopes(path)

    def test_negative_rejected(self, tmp_path):
        path = tmp_path / "env.csv"
        path.write_text("1.0\n-2.0\n")
        with pytest.raises(ParseError):
            fileio.read_envelopes(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "env.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            fileio.read_envelopes(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            fileio.read_envelopes(tmp_path / "nope.csv")

    def test_blank_lines_and_padding_skipped(self, tmp_path):
        path = tmp_path / "env.csv"
        path.write_text("  envelope \n\n 0.5\n\t\n2e-3  \n1\x1f\n")
        assert np.array_equal(fileio.read_envelopes(path), [0.5, 2e-3, 1.0])

    @pytest.mark.parametrize("body,message", [
        ("envelope\n1.0\n2.0\n\nbogus\n3.0\n", r"env\.csv:5: not a number: 'bogus'$"),
        ("envelope\n1.0\n-2.0\nbogus\n", r"env\.csv:3: envelope must be finite and >= 0$"),
        ("1.0\nnan\n", r"env\.csv:2: envelope must be finite and >= 0$"),
        ("nan\n1.0\n", r"env\.csv:1: envelope must be finite and >= 0$"),
        ("1.0\n\ninf\n", r"env\.csv:3: envelope must be finite and >= 0$"),
        ("envelope\n", r"env\.csv: no envelope samples found$"),
        ("", r"env\.csv: no envelope samples found$"),
    ])
    def test_first_bad_line_is_reported(self, tmp_path, body, message):
        path = tmp_path / "env.csv"
        path.write_text(body)
        with pytest.raises(ParseError, match=message):
            fileio.read_envelopes(path)


class TestGrid:
    def make_grid(self):
        scene = PlaneWaveScene(
            waves=[PlaneWave(1.0, (0.0, 0.0, 1.0), 0.2, 10e-9)],
            wavelength=0.005, shape=(3, 2, 2),
            freq_axis=SPEED_OF_LIGHT / 0.005 + 5e6 * np.arange(4),
            diffuse_sigma2=0.1, seed=6)
        grid = synth_field(scene)
        grid.direction = (160.0, 110.0)
        return grid

    def test_round_trip_exact(self, tmp_path):
        grid = self.make_grid()
        path = tmp_path / "grid.csv"
        fileio.write_grid(path, grid)
        back = fileio.read_grid(path)
        assert np.array_equal(back.h, grid.h)
        assert back.spacing == grid.spacing
        assert np.array_equal(back.freq_axis, grid.freq_axis)
        assert back.direction == grid.direction

    def test_missing_sidecar(self, tmp_path):
        grid = self.make_grid()
        path = tmp_path / "grid.csv"
        fileio.write_grid(path, grid)
        (tmp_path / "grid.json").unlink()
        with pytest.raises(ParseError, match="header"):
            fileio.read_grid(path)

    def test_row_count_mismatch(self, tmp_path):
        grid = self.make_grid()
        path = tmp_path / "grid.csv"
        fileio.write_grid(path, grid)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ParseError, match="row count"):
            fileio.read_grid(path)

    def test_duplicate_index_rejected(self, tmp_path):
        # the right row count, but one cell twice and another never
        grid = self.make_grid()
        path = tmp_path / "grid.csv"
        fileio.write_grid(path, grid)
        lines = path.read_text().splitlines()
        lines[2] = lines[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="duplicate index"):
            fileio.read_grid(path)

    def test_non_integer_index_rejected(self, tmp_path):
        grid = self.make_grid()
        path = tmp_path / "grid.csv"
        fileio.write_grid(path, grid)
        lines = path.read_text().splitlines()
        ix, rest = lines[1].split(",", 1)
        lines[1] = f"{int(ix) + 0.5},{rest}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="not an integer"):
            fileio.read_grid(path)


class TestScan:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        scan = DirectionalScan(
            azimuth=np.array([0.0, 160.0]),
            elevation=np.array([90.0, 110.0]),
            samples=rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8)),
            noise_power=np.array([1e-6, 2e-6]),
            freq_axis=6e10 + 5e6 * np.arange(8),
        )
        path = tmp_path / "scan.csv"
        fileio.write_scan(path, scan)
        back = fileio.read_scan(path)
        assert np.array_equal(back.samples, scan.samples)
        assert np.array_equal(back.azimuth, scan.azimuth)
        assert np.array_equal(back.noise_power, scan.noise_power)

    def test_duplicate_index_rejected(self, tmp_path):
        # a (3, 1) scan whose rows (0,0)=1, (0,0)=2, (1,0)=3 used to read
        # as [2, 3, 0]: the repeat overwrote and the missing cell read 0
        scan = DirectionalScan(
            azimuth=np.zeros(3), elevation=np.full(3, 90.0),
            samples=np.ones((3, 1), dtype=complex), noise_power=np.full(3, 1e-6))
        path = tmp_path / "scan.csv"
        fileio.write_scan(path, scan)
        path.write_text("idir,ifreq,re,im\n0,0,1.0,0.0\n0,0,2.0,0.0\n1,0,3.0,0.0\n")
        with pytest.raises(ParseError, match="duplicate index"):
            fileio.read_scan(path)

    def test_non_integer_index_rejected(self, tmp_path):
        # rows 0.9, 1.9, 2.9 used to truncate silently to directions 0, 1, 2
        scan = DirectionalScan(
            azimuth=np.zeros(3), elevation=np.full(3, 90.0),
            samples=np.ones((3, 1), dtype=complex), noise_power=np.full(3, 1e-6))
        path = tmp_path / "scan.csv"
        fileio.write_scan(path, scan)
        path.write_text("idir,ifreq,re,im\n0.9,0,1.0,0.0\n1.9,0,2.0,0.0\n2.9,0,3.0,0.0\n")
        with pytest.raises(ParseError, match="not an integer"):
            fileio.read_scan(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_sample_rejected(self, tmp_path, cell):
        scan = DirectionalScan(
            azimuth=np.zeros(2), elevation=np.full(2, 90.0),
            samples=np.ones((2, 1), dtype=complex), noise_power=np.full(2, 1e-6))
        path = tmp_path / "scan.csv"
        fileio.write_scan(path, scan)
        path.write_text(f"idir,ifreq,re,im\n0,0,1.0,0.0\n1,0,1.0,{cell}\n")
        with pytest.raises(DomainError, match="finite"):
            fileio.read_scan(path)


def small_grid_file(tmp_path):
    rng = np.random.default_rng(4)
    h = rng.normal(size=(3, 3, 1, 1)) + 1j * rng.normal(size=(3, 3, 1, 1))
    path = tmp_path / "grid.csv"
    fileio.write_grid(path, SpatialGrid(h, freq_axis=[6e10], direction=(10.0, 90.0)))
    return path


def small_scan_file(tmp_path):
    scan = DirectionalScan(azimuth=[0.0, 90.0], elevation=[90.0, 90.0],
                           samples=np.ones((2, 40), dtype=complex), noise_power=[1e-6, 1e-6],
                           freq_axis=6e10 + 1e6 * np.arange(40))
    path = tmp_path / "scan.csv"
    fileio.write_scan(path, scan)
    return path


def patch_sidecar(path, **fields):
    sidecar = path.with_suffix(".json")
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **fields}))


BAD_GRID_HEADERS = [
    {"freq_axis": ["x"]}, {"shape": [3, "3", 1, 1]}, {"shape": [3, 3.0, 1, 1]},
    {"shape": [3, True, 1, 1]}, {"shape": [3, -3, 1, 1]}, {"shape": [3, 3, 1]},
    {"shape": 9}, {"direction": 5}, {"spacing": "near"},
]
BAD_SCAN_HEADERS = [
    {"freq_axis": ["x"]}, {"n_freq": "40"}, {"n_freq": 39.7}, {"n_freq": -1},
    {"directions": [{"azimuth": 0.0}]}, {"directions": 2},
]


class TestMalformedHeaders:
    """Every sidecar value is converted inside the header's ParseError guard."""

    @pytest.mark.parametrize("fields", BAD_GRID_HEADERS)
    def test_grid(self, tmp_path, fields):
        path = small_grid_file(tmp_path)
        patch_sidecar(path, **fields)
        with pytest.raises(ParseError, match="bad grid header"):
            fileio.read_grid(path)

    @pytest.mark.parametrize("fields", BAD_SCAN_HEADERS)
    def test_scan(self, tmp_path, fields):
        path = small_scan_file(tmp_path)
        patch_sidecar(path, **fields)
        with pytest.raises(ParseError, match="bad scan header"):
            fileio.read_scan(path)

    @pytest.mark.parametrize("make, read, key", [
        (small_grid_file, fileio.read_grid, "spacing"),
        (small_scan_file, fileio.read_scan, "directions"),
    ])
    def test_missing_key(self, tmp_path, make, read, key):
        path = make(tmp_path)
        sidecar = path.with_suffix(".json")
        header = json.loads(sidecar.read_text())
        del header[key]
        sidecar.write_text(json.dumps(header))
        with pytest.raises(ParseError, match=f"bad .* header .*{key}"):
            read(path)


class TestReaderGuards:
    @pytest.mark.parametrize("make, read", [
        (small_grid_file, fileio.read_grid), (small_scan_file, fileio.read_scan)])
    @pytest.mark.parametrize("fault, match", [
        ("cell", "could not convert"), ("columns", "expected [46] columns"),
        ("json", "invalid JSON")])
    def test_fault(self, tmp_path, make, read, fault, match):
        path = make(tmp_path)
        lines = path.read_text().splitlines()
        if fault == "cell":
            lines[1] = lines[1].rsplit(",", 1)[0] + ",abc"
        elif fault == "columns":
            lines[1:] = [row.rsplit(",", 1)[0] for row in lines[1:]]
        else:
            path.with_suffix(".json").write_text("{\"shape\": [3, 3,")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=match):
            read(path)


class TestReport:
    def test_round_trip_and_schema(self, tmp_path, report):
        path = tmp_path / "report.json"
        fileio.write_report(path, report)
        back = fileio.read_report(path)
        assert back == report

    def test_schema_rejects_corrupted(self, tmp_path, report):
        path = tmp_path / "report.json"
        fileio.write_report(path, report)
        doc = json.loads(path.read_text())
        doc["chosen"] = "nakagami"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="schema"):
            fileio.read_report(path)

    def test_schema_is_valid_draft_7(self):
        # the report check skips jsonschema.validate's own schema check
        import jsonschema
        jsonschema.Draft7Validator.check_schema(fileio.REPORT_SCHEMA)

    @pytest.mark.parametrize("field", ["gtest", "aicc"])
    def test_schema_rejects_null(self, tmp_path, field):
        # every report the pipeline writes has its g-test and both AICc values
        doc = fileio.report_to_dict(hand_report())
        (doc["rice"] if field == "aicc" else doc)[field] = None
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="schema"):
            fileio.read_report(path)

    def test_check_raises_the_error_validate_picks(self):
        import jsonschema
        doc = fileio.report_to_dict(hand_report())
        doc["chosen"], doc["rice"]["k_hat"], doc["extra"] = "nakagami", -1.0, 0
        del doc["gtest"]["dof"]
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(doc, fileio.REPORT_SCHEMA)
        with pytest.raises(jsonschema.ValidationError) as got:
            fileio.report_from_dict(doc)
        assert (got.value.message, got.value.path) == (want.value.message, want.value.path)

    def test_dict_is_json_clean(self, report):
        doc = fileio.report_to_dict(report)
        json.dumps(doc)  # no numpy scalars leaking through

    def test_deterministic_serialization(self, tmp_path, report):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        fileio.write_report(p1, report)
        fileio.write_report(p2, report)
        assert p1.read_bytes() == p2.read_bytes()


def hand_report() -> FitReport:
    """A report built field by field, so its bytes involve no fit or BLAS."""
    return FitReport(
        omega_hat=1.5, n_fit=100, n_moment=900,
        rice=ModelFit("rice", 2.5, 0.0, -120.25, 244.5, False),
        twdp=ModelFit("twdp", 10.0, 0.9, -110.5, 227.125, True),
        chosen="twdp",
        gtest=GTestResult(12.5, 7, 18.475, "accepted", 10, 0.01, 10),
        grid=GridConfig(k_max=30.0))


def json_bytes(doc) -> bytes:
    """The one JSON layout every file uses: sorted keys, indent 2, newline."""
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


class TestWriterBytes:
    """Exact bytes of every writer on tiny hand-built inputs."""

    def test_report(self, tmp_path):
        path = tmp_path / "report.json"
        fileio.write_report(path, hand_report())
        assert path.read_text() == """{
  "chosen": "twdp",
  "grid": {
    "delta_step": 0.05,
    "k_max": 30.0,
    "k_min": 0.0,
    "k_step": 0.05
  },
  "gtest": {
    "alpha": 0.01,
    "dof": 7,
    "n_cells": 10,
    "per_cell": 10,
    "statistic": 12.5,
    "threshold": 18.475,
    "verdict": "accepted"
  },
  "n_fit": 100,
  "n_moment": 900,
  "omega_hat": 1.5,
  "rice": {
    "aicc": 244.5,
    "boundary_hit": false,
    "delta_hat": 0.0,
    "k_hat": 2.5,
    "loglik": -120.25,
    "model": "rice"
  },
  "schema_version": 1,
  "twdp": {
    "aicc": 227.125,
    "boundary_hit": true,
    "delta_hat": 0.9,
    "k_hat": 10.0,
    "loglik": -110.5,
    "model": "twdp"
  }
}
"""

    def test_report_dict_round_trip(self):
        report = hand_report()
        assert fileio.report_from_dict(fileio.report_to_dict(report)) == report

    def test_overlay(self, tmp_path):
        path = tmp_path / "overlay.csv"
        fileio.write_overlay(path, {"envelope": np.array([0.5, 2.0]),
                                    "empirical": np.array([0.5, 1.0]),
                                    "rice": [0.1, 1 / 3]})
        assert path.read_text() == ("envelope,empirical,rice\n"
                                    "0.5,0.5,0.1\n2.0,1.0,0.3333333333333333\n")

    def test_ber_curve(self, tmp_path):
        path = tmp_path / "ber.csv"
        fileio.write_ber_curve(path, BerCurve(np.array([0.0, 10.0]), np.array([0.125, 1e-5]),
                                              FadingParams(10.0, 0.5, 1.0), 1000, 7))
        assert path.read_text() == "snr_db,ber\n0.0,0.125\n10.0,1e-05\n"
        assert (tmp_path / "ber.json").read_bytes() == json_bytes(
            {"delta": 0.5, "k": 10.0, "kind": "ber_curve", "n_symbols": 1000,
             "omega": 1.0, "seed": 7})

    def test_correlation_map(self, tmp_path):
        path = tmp_path / "corr.csv"
        v = np.array([[0.25, 0.5, 0.125], [0.5, 1.0, 0.5], [0.125, 0.5, 0.25]])
        lags = np.array([-0.35, 0.0, 0.35])
        fileio.write_correlation_map(path, CorrelationMap(lags, lags, v, v[:, 1], v[1, :]))
        assert path.read_text() == "0.25,0.5,0.125\n0.5,1.0,0.5\n0.125,0.5,0.25\n"
        assert (tmp_path / "corr.json").read_bytes() == json_bytes(
            {"cut_x": [0.5, 1.0, 0.5], "cut_y": [0.5, 1.0, 0.5], "kind": "correlation_map",
             "lag_unit": "wavelengths", "lag_x": [-0.35, 0.0, 0.35],
             "lag_y": [-0.35, 0.0, 0.35]})

    @pytest.mark.parametrize("meta", [True, False])
    def test_grid(self, tmp_path, meta):
        path = tmp_path / "grid.csv"
        h = np.array([1 + 2j, -0.5 + 0j, 0.25 - 1j, 3e-5 + 1j / 3]).reshape(2, 1, 1, 2)
        grid = (SpatialGrid(h, 0.35, np.array([6e10, 6.1e10]), (160.0, 110.0)) if meta
                else SpatialGrid(h, 0.5))
        fileio.write_grid(path, grid)
        assert path.read_text() == ("ix,iy,iz,ifreq,re,im\n0,0,0,0,1.0,2.0\n"
                                    "0,0,0,1,-0.5,0.0\n1,0,0,0,0.25,-1.0\n"
                                    "1,0,0,1,3e-05,0.3333333333333333\n")
        assert (tmp_path / "grid.json").read_bytes() == json_bytes(
            {"direction": [160.0, 110.0] if meta else None,
             "freq_axis": [60000000000.0, 61000000000.0] if meta else None,
             "kind": "spatial_grid", "shape": [2, 1, 1, 2], "spacing": 0.35 if meta else 0.5})

    def test_scan(self, tmp_path):
        path = tmp_path / "scan.csv"
        fileio.write_scan(path, DirectionalScan(
            [0.0, 90.5], [90.0, 45.0], np.array([[1 + 1j, -2.0], [0.5j, 0.1 + 0.2j]]),
            [1e-6, 2e-6], freq_axis=[6e10, 6.1e10]))
        assert path.read_text() == ("idir,ifreq,re,im\n0,0,1.0,1.0\n0,1,-2.0,0.0\n"
                                    "1,0,0.0,0.5\n1,1,0.1,0.2\n")
        assert (tmp_path / "scan.json").read_bytes() == json_bytes(
            {"directions": [{"azimuth": 0.0, "elevation": 90.0, "noise_power": 1e-06},
                            {"azimuth": 90.5, "elevation": 45.0, "noise_power": 2e-06}],
             "freq_axis": [60000000000.0, 61000000000.0], "kind": "directional_scan",
             "n_freq": 2})

    def test_envelopes(self, tmp_path):
        path = tmp_path / "env.csv"
        fileio.write_envelopes(path, [0.0, 1.5, 0.1, 1 / 3, 1e300])
        assert path.read_text() == "envelope\n0.0\n1.5\n0.1\n0.3333333333333333\n1e+300\n"


class TestPlotTables:
    def test_overlay_parses(self, tmp_path):
        path = tmp_path / "overlay.csv"
        fileio.write_overlay(path, {"r": np.array([1.0, 2.0]),
                                    "empirical": np.array([0.5, 1.0])})
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (2, 2)

    def test_correlation_map_files(self, tmp_path):
        scene = PlaneWaveScene(
            waves=[PlaneWave(1.0, (1.0, 0.0, 0.0))], wavelength=0.005,
            shape=(5, 5, 1), diffuse_sigma2=0.01, seed=3)
        cmap = average_corr(synth_field(scene), interp_factor=4)
        path = tmp_path / "corr.csv"
        fileio.write_correlation_map(path, cmap)
        matrix = np.loadtxt(path, delimiter=",")
        assert matrix.shape == cmap.values.shape
        header = json.loads((tmp_path / "corr.json").read_text())
        assert header["lag_unit"] == "wavelengths"
        assert len(header["lag_x"]) == cmap.values.shape[0]

    def test_ber_files(self, tmp_path):
        curve = simulate_ber(FadingParams(1.0, 0.0, 1.0), [0.0, 10.0], 20_000, 7)
        path = tmp_path / "ber.csv"
        fileio.write_ber_curve(path, curve)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (2, 2)
        meta = json.loads((tmp_path / "ber.json").read_text())
        assert meta["n_symbols"] == 20_000


class TestAtomicity:
    def test_replace_leaves_no_temp(self, tmp_path):
        path = tmp_path / "x.csv"
        fileio.write_text_atomic(path, "one\n")
        fileio.write_text_atomic(path, "two\n")
        assert path.read_text() == "two\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_new_file_mode_follows_umask(self, tmp_path):
        path = tmp_path / "x.csv"
        old = os.umask(0o022)
        try:
            fileio.write_text_atomic(path, "one\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o644


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
AZIMUTH = st.floats(0.0, 360.0, exclude_max=True)
ELEVATION = st.floats(0.0, 180.0)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def complex_array(draw, shape) -> np.ndarray:
    """Complex array whose real and imaginary parts are drawn bit for bit."""
    n = int(np.prod(shape))
    out = np.empty(n, dtype=complex)
    out.real = draw(st.lists(FINITE, min_size=n, max_size=n))
    out.imag = draw(st.lists(FINITE, min_size=n, max_size=n))
    return out.reshape(shape)


def optional_axis(draw, n):
    return draw(st.none() | st.lists(POSITIVE, min_size=n, max_size=n).map(np.array))


@st.composite
def spatial_grids(draw):
    shape = tuple(draw(st.integers(1, 3)) for _ in range(4))
    return SpatialGrid(complex_array(draw, shape), spacing=draw(POSITIVE),
                       freq_axis=optional_axis(draw, shape[3]),
                       direction=draw(st.none() | st.tuples(AZIMUTH, ELEVATION)))


@st.composite
def directional_scans(draw):
    n_dir, n_freq = draw(st.integers(1, 3)), draw(st.integers(1, 4))

    def per_dir(values):
        return draw(st.lists(values, min_size=n_dir, max_size=n_dir))

    return DirectionalScan(per_dir(AZIMUTH), per_dir(ELEVATION),
                           complex_array(draw, (n_dir, n_freq)),
                           per_dir(st.floats(0.0, 1e300)), optional_axis(draw, n_freq))


@st.composite
def fit_reports(draw):
    def model_fit(model):
        return ModelFit(model, draw(st.floats(0.0, 1e4)), draw(st.floats(0.0, 1.0)),
                        draw(FINITE), draw(FINITE), draw(st.booleans()))

    counts = st.integers(1, 10 ** 9)
    k_min = draw(st.floats(0.0, 100.0))
    grid = GridConfig(k_min=k_min, k_max=k_min + draw(st.floats(1e-3, 100.0)),
                      k_step=draw(st.floats(1e-6, 10.0)), delta_step=draw(st.floats(1e-3, 1.0)))
    gtest = GTestResult(draw(FINITE), draw(counts), draw(FINITE),
                        draw(st.sampled_from(["accepted", "rejected"])), draw(counts),
                        draw(FINITE), draw(counts))
    return FitReport(draw(POSITIVE), draw(counts), draw(counts), model_fit("rice"),
                     model_fit("twdp"), draw(st.sampled_from(["rice", "twdp"])), gtest, grid)


class TestRoundTripProperties:
    """Each file format reads back exactly what was written."""

    @given(values=st.lists(st.floats(0.0, 1e300), min_size=1, max_size=40))
    @example(values=[0.0, 5e-324, 2.2250738585072014e-308, 1e300])
    @settings(max_examples=25, deadline=None)
    def test_envelopes(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("envelopes") / "env.csv"
        fileio.write_envelopes(path, values)
        assert same_bits(fileio.read_envelopes(path), np.array(values, dtype=float))

    @given(grid=spatial_grids())
    @settings(max_examples=25, deadline=None)
    def test_grid(self, tmp_path_factory, grid):
        path = tmp_path_factory.mktemp("grid") / "grid.csv"
        fileio.write_grid(path, grid)
        back = fileio.read_grid(path)
        assert same_bits(back.h, grid.h) and same_bits(back.spacing, grid.spacing)
        assert (back.freq_axis is None) == (grid.freq_axis is None)
        assert grid.freq_axis is None or same_bits(back.freq_axis, grid.freq_axis)
        assert back.direction == grid.direction

    @given(scan=directional_scans())
    @settings(max_examples=25, deadline=None)
    def test_scan(self, tmp_path_factory, scan):
        path = tmp_path_factory.mktemp("scan") / "scan.csv"
        fileio.write_scan(path, scan)
        back = fileio.read_scan(path)
        for name in ("azimuth", "elevation", "samples", "noise_power"):
            assert same_bits(getattr(back, name), getattr(scan, name)), name
        assert (back.freq_axis is None) == (scan.freq_axis is None)
        assert scan.freq_axis is None or same_bits(back.freq_axis, scan.freq_axis)

    @given(report=fit_reports())
    @settings(max_examples=25, deadline=None)
    def test_report(self, tmp_path_factory, report):
        path = tmp_path_factory.mktemp("report") / "report.json"
        fileio.write_report(path, report)
        assert fileio.read_report(path) == report
