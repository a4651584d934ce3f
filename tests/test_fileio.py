"""File formats: round trips, parse failures, schema validation, atomicity."""

import copy
import dataclasses
import functools
import json
import os
import re
import stat
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from twdpfit import (
    DirectionalScan,
    DomainError,
    FadingParams,
    GridConfig,
    ParseError,
    PlaneWave,
    PlaneWaveScene,
    TwdpfitError,
    fit_envelopes,
    partition_stride,
    sample_twdp,
    simulate_ber,
    synth_field,
    average_corr,
)
from twdpfit import cli, fileio
from twdpfit.inference import MAX_GRID_CELLS, FitReport, GTestResult, ModelFit
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


    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_read_as_lf(self, tmp_path, newline):
        lines = ["envelope", " 0.5", "", "2e-3 ", "1"]
        paths = tmp_path / "lf.csv", tmp_path / "other.csv"
        paths[0].write_bytes(("\n".join(lines) + "\n").encode())
        paths[1].write_bytes((newline.join(lines) + newline).encode())
        assert np.array_equal(fileio.read_envelopes(paths[1]), [0.5, 2e-3, 1.0])
        assert np.array_equal(fileio.read_envelopes(paths[1]), fileio.read_envelopes(paths[0]))
        paths[1].write_bytes(newline.join(["envelope", "1.0", "bogus"]).encode())
        with pytest.raises(ParseError, match=r"other\.csv:3: not a number: 'bogus'$"):
            fileio.read_envelopes(paths[1])

    def test_form_feed_is_inside_its_line(self, tmp_path):
        # a line ends only at LF, CRLF or CR, not where str.splitlines splits
        path = tmp_path / "env.csv"
        path.write_text("envelope\n1.0\n2.0\f3.0\n4.0\n")
        with pytest.raises(ParseError, match=r"env\.csv:3: not a number: '2\.0\\x0c3\.0'$"):
            fileio.read_envelopes(path)

    @pytest.mark.parametrize("body", [
        b"envelope\n1.0\n\xff\xfe2.0\n",
        b"\xff\n1.0\n",
        b"envelope\n" + b"1.0\n" * 5000 + b"2.0\xff\n",   # past the first decoded chunk
    ])
    def test_undecodable_byte(self, tmp_path, body):
        path = tmp_path / "env.csv"
        path.write_bytes(body)
        with pytest.raises(ParseError, match=r"env\.csv: .*can't decode"):
            fileio.read_envelopes(path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("body,message", [
        ("envelope\n1.0\n2.5\n", None),
        ("envelope\n1.0\nbogus\n", r"\d+: a line is not a finite number >= 0$"),
    ])
    def test_pipe_is_read_once(self, body, message):
        # a pipe's lines can be read once: a good one parses, and a bad line
        # that a second read cannot name is still a ParseError
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, body.encode())
            os.close(write_end)
            path = f"/dev/fd/{read_end}"
            if message is None:
                assert np.array_equal(fileio.read_envelopes(path), [1.0, 2.5])
            else:
                with pytest.raises(ParseError, match=message):
                    fileio.read_envelopes(path)
        finally:
            os.close(read_end)


class TestGrid:
    def make_grid(self):
        scene = PlaneWaveScene(
            waves=[PlaneWave(1.0, (0.0, 0.0, 1.0), 0.2, 10e-9)],
            wavelength=0.005, shape=(3, 2, 2),
            freq_axis=SPEED_OF_LIGHT / 0.005 + 5e6 * np.arange(4),
            diffuse_sigma2=0.1, seed=6)
        return dataclasses.replace(synth_field(scene), direction=(160.0, 110.0))

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

    @pytest.mark.parametrize("index", ["nan", "inf", "1e300"])
    def test_non_finite_or_huge_index_rejected_without_warning(self, tmp_path, index):
        # the cast to int used to warn before the ParseError; the pytest
        # configuration turns that warning into a failure
        grid = self.make_grid()
        path = tmp_path / "grid.csv"
        fileio.write_grid(path, grid)
        lines = path.read_text().splitlines()
        lines[1] = f"{index},{lines[1].split(',', 1)[1]}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="not an integer inside the header shape"):
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

    @pytest.mark.parametrize("index", ["nan", "inf", "1e300"])
    def test_non_finite_or_huge_index_rejected_without_warning(self, tmp_path, index):
        scan = DirectionalScan(
            azimuth=np.zeros(3), elevation=np.full(3, 90.0),
            samples=np.ones((3, 1), dtype=complex), noise_power=np.full(3, 1e-6))
        path = tmp_path / "scan.csv"
        fileio.write_scan(path, scan)
        path.write_text(f"idir,ifreq,re,im\n0,0,1.0,0.0\n{index},0,2.0,0.0\n2,0,3.0,0.0\n")
        with pytest.raises(ParseError, match="not an integer inside the header shape"):
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
    {"shape": 9}, {"direction": 5}, {"spacing": "near"}, {"spacing": 10 ** 400},
    {"direction": [10 ** 400, 90]}, {"freq_axis": [10 ** 400]}, {"spacing": True},
    {"direction": [True, 0]}, {"freq_axis": [True]},
]
BAD_SCAN_HEADERS = [
    {"freq_axis": ["x"]}, {"n_freq": "40"}, {"n_freq": 39.7}, {"n_freq": -1},
    {"directions": [{"azimuth": 0.0}]}, {"directions": 2}, {"freq_axis": [10 ** 400]},
    {"directions": [{"azimuth": 10 ** 400, "elevation": 90.0, "noise_power": 1e-6}] * 2},
    {"freq_axis": [True]},
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


def numeric_leaves(doc, path=()) -> list[tuple]:
    """The key path of every number in a JSON document; a bool is no number."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return [leaf for key, value in items for leaf in numeric_leaves(value, (*path, key))]
    return [path] if isinstance(doc, (int, float)) and not isinstance(doc, bool) else []


@pytest.mark.parametrize("make, read, kind, n_leaves", [
    # grid: shape, spacing, freq_axis, direction; scan: directions, n_freq, freq_axis
    (small_grid_file, fileio.read_grid, "grid", 4 + 1 + 1 + 2),
    (small_scan_file, fileio.read_scan, "scan", 2 * 3 + 1 + 40),
])
def test_bool_or_null_at_any_numeric_leaf(tmp_path, make, read, kind, n_leaves):
    # a JSON true, false or null where a number belongs is a parse error,
    # never 1.0, 0.0 or NaN
    path = make(tmp_path)
    sidecar = path.with_suffix(".json")
    header = json.loads(sidecar.read_text())
    leaves = numeric_leaves(header)
    assert len(leaves) == n_leaves
    for *parents, key in leaves:
        for flag in (True, False, None):
            doc = copy.deepcopy(header)
            functools.reduce(lambda obj, k: obj[k], parents, doc)[key] = flag
            sidecar.write_text(json.dumps(doc))
            with pytest.raises(ParseError, match=f"bad {kind} header .*got {flag}"):
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

    @pytest.mark.parametrize("make, command", [
        (small_grid_file, "spatial"), (small_scan_file, "scan")])
    def test_header_line_without_rows(self, tmp_path, capsys, make, command):
        # numpy warned "input contained no data", then the reader blamed the
        # column count
        path = make(tmp_path)
        path.write_text(path.read_text().splitlines()[0] + "\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, str(path), "-o", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {path}: row count does not match the header shape"]
        assert sorted(tmp_path.iterdir()) == sorted([path, path.with_suffix(".json")])


def hand_report() -> FitReport:
    """A report built field by field, so its bytes involve no fit or BLAS."""
    return FitReport(
        omega_hat=1.5, n_fit=100, n_moment=900,
        rice=ModelFit("rice", 2.5, 0.0, -120.25, 244.5, False),
        twdp=ModelFit("twdp", 10.0, 0.9, -110.5, 227.125, True),
        chosen="twdp",
        gtest=GTestResult(12.5, 7, 18.475, "accepted", 10, 0.01, 10),
        grid=GridConfig(k_max=30.0))


# JSON values where Draft 7 is subtle (bools, integral floats, non-finite
# numbers, bound edges) drawn as often as all the others together
REPORT_VALUES = st.one_of(
    st.sampled_from([True, False, 0, 1, 0.0, 1.0, -0.0, 2.5, float("nan"), float("inf"),
                     float("-inf")]),
    st.sampled_from([None, 2, -1, 0.5, 1.5, -0.5, 1e9, 10 ** 400, "rice", "twdp", "accepted",
                     "0.05", "", [], {}, [1.0], {"k_hat": 1.0}]).map(copy.deepcopy))


def field_slot(doc: dict, path: str) -> tuple[dict, str]:
    """The object of doc that holds the dotted path's last key, and that key."""
    *parents, key = path.split(".")
    return functools.reduce(dict.__getitem__, parents, doc), key


def report_with(path: str, value) -> dict:
    """hand_report's dict with the dotted path set to value."""
    doc = fileio.report_to_dict(hand_report())
    obj, key = field_slot(doc, path)
    obj[key] = value
    return doc


def report_paths(doc: dict, prefix: str = ""):
    """Every dotted key path of doc, nested objects included."""
    for key, value in doc.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from report_paths(value, f"{prefix}{key}.")


@st.composite
def mutated_reports(draw):
    """hand_report's dict with one or two keys set to another value, deleted,
    or given an extra sibling."""
    doc = fileio.report_to_dict(hand_report())
    for _ in range(draw(st.integers(1, 2))):
        obj, key = field_slot(doc, draw(st.sampled_from(list(report_paths(doc)))))
        action = draw(st.sampled_from(["set", "delete", "extra"]))
        if action == "delete":
            del obj[key]
        else:
            obj["extra" if action == "extra" else key] = draw(REPORT_VALUES)
        if not doc:
            break
    return doc


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

    @given(doc=mutated_reports())
    @example(doc=report_with("omega_hat", True)).via("a bool is no number")
    @example(doc=report_with("schema_version", True)).via("true is not the integer 1")
    @example(doc=report_with("n_fit", 1.0)).via("an integral float is an integer")
    @example(doc=report_with("gtest.dof", 2.5)).via("a fraction is no integer")
    @example(doc=report_with("rice.k_hat", float("nan"))).via("NaN passes every bound")
    @settings(max_examples=150, deadline=None)
    def test_check_accepts_what_draft_7_accepts(self, doc):
        # the walk over REPORT_SCHEMA against jsonschema itself; a rejected
        # document is a ParseError naming the field where the walk stopped
        import jsonschema
        found = fileio._breach(doc, fileio.REPORT_SCHEMA)
        assert (found is None) == jsonschema.Draft7Validator(fileio.REPORT_SCHEMA).is_valid(doc)
        if found is not None:
            field = re.escape(found[0])
            with pytest.raises(ParseError, match=f"{field} does not match the schema"):
                fileio.report_from_dict(doc)

    def test_check_handles_every_keyword_of_the_schema(self):
        # a keyword the walk does not know would go unchecked
        def nodes(schema):
            yield schema
            for sub in schema.get("properties", {}).values():
                yield from nodes(sub)

        handled = {"type", "properties", "required", "additionalProperties", "enum", "const",
                   "minimum", "maximum", "exclusiveMinimum"}
        for node in nodes({k: v for k, v in fileio.REPORT_SCHEMA.items() if k != "$schema"}):
            assert set(node) <= handled, node
            assert node["type"] in ("object", "number", "integer", "boolean", "string")
            assert node.get("additionalProperties", False) is False

    def test_write_side_fault_is_a_package_error(self, tmp_path):
        report = hand_report()
        report.rice.boundary_hit = np.True_
        with pytest.raises(TwdpfitError, match="rice.boundary_hit does not match the schema") \
                as err:
            fileio.write_report(tmp_path / "report.json", report)
        assert err.value.exit_code == 4
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("path, value, accepted", [
        ("rice.k_hat", -0.5, False), ("twdp.delta_hat", 1.5, False), ("omega_hat", 0, False),
        ("n_fit", 0, False), ("n_moment", 0, False), ("gtest.dof", 0, False),
        ("gtest.n_cells", 0, False), ("gtest.per_cell", 0, False),
        ("gtest.verdict", "maybe", False), ("rice.model", "nakagami", False),
        ("schema_version", 2, False), ("rice.boundary_hit", 1, False),
        ("grid.k_step", "0.05", False), ("grid.k_step", -1.0, False), ("grid.k_max", 1e9, False),
        ("grid.k_max", float("nan"), False), ("grid.k_step", float("inf"), False),
        ("grid.k_step", 1e-300, False), ("grid.delta_step", 5e-324, False),
        *[(f"{obj}.{key}", 0, False) for obj in ("rice", "twdp", "gtest", "grid")
          for key in ("extra", "missing")],
        ("rice.k_hat", 0.0, True), ("rice.delta_hat", 0.0, True),
        ("twdp.delta_hat", 1.0, True), ("gtest.dof", 1, True),
    ])
    def test_field_bounds(self, tmp_path, path, value, accepted):
        # each bound a field's metadata carries rejects a value past it and
        # accepts its edge value; "missing" deletes the object's first key
        doc = fileio.report_to_dict(hand_report())
        obj, key = field_slot(doc, path)
        if key == "missing":
            del obj[next(iter(obj))]
        else:
            obj[key] = value
        target = tmp_path / "report.json"
        target.write_text(json.dumps(doc))
        if accepted:
            assert fileio.report_to_dict(fileio.read_report(target)) == doc
        else:
            with pytest.raises(ParseError, match="schema"):
                fileio.read_report(target)

    @pytest.mark.parametrize("fields", [{"k_step": 1e-5, "k_max": 2.0},
                                        {"delta_step": 2e-4, "k_max": 50.0}])
    def test_grid_with_oversized_table_is_a_schema_break(self, tmp_path, fields):
        # as with the cell cap: the grid is refused, read back it is exit 2
        doc = fileio.report_to_dict(hand_report())
        doc["grid"].update(fields)
        target = tmp_path / "report.json"
        target.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="report.grid .*exceeds the cap of 1000 MB") as err:
            fileio.read_report(target)
        assert err.value.exit_code == 2

    def test_dict_is_json_clean(self, report):
        doc = fileio.report_to_dict(report)
        json.dumps(doc)  # no numpy scalars leaking through

    def test_deterministic_serialization(self, tmp_path, report):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        fileio.write_report(p1, report)
        fileio.write_report(p2, report)
        assert p1.read_bytes() == p2.read_bytes()


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


    def test_power_map(self, tmp_path):
        path = tmp_path / "scan.power.csv"
        fileio.write_power_map(path, {"azimuth": np.array([0.0, 90.5]),
                                      "elevation": np.array([90.0, 45.0]),
                                      "power_norm": np.array([1.0, np.nan]),
                                      "marker": ["rice", "not_evaluated"]})
        assert path.read_text() == ("azimuth,elevation,power_norm,marker\n"
                                    "0.0,90.0,1.0,rice\n90.5,45.0,nan,not_evaluated\n")


def assert_looped(path, header: str | None, rows) -> None:
    """The file holds the CSV text built one row at a time; a mismatch names
    its first line, not a diff of the whole text."""
    want = "".join(([] if header is None else [header + "\n"])
                   + [",".join(row) + "\n" for row in rows])
    got = path.read_text()
    same = got == want
    assert same, next((f"line {i + 1}: {a!r} != {b!r}" for i, (a, b) in enumerate(
        zip(got.splitlines(), want.splitlines())) if a != b), "a line too many or missing")


class TestBlockedWriters:
    """Every CSV writer gives the bytes of a row-at-a-time loop whatever the
    renderer's block size; at the default one, each input spans two blocks."""

    @pytest.fixture(autouse=True, params=[1, 7, None], ids=["block1", "block7", "default"])
    def block(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(fileio, "_BLOCK_CELLS", request.param)
        else:
            assert fileio._BLOCK_CELLS < 70_000

    @pytest.fixture
    def rng(self):
        return np.random.default_rng(11)

    def test_envelopes(self, tmp_path, rng):
        values = rng.random(70_000) * 3.0
        fileio.write_envelopes(tmp_path / "env.csv", values)
        assert_looped(tmp_path / "env.csv", "envelope", ([repr(v)] for v in values.tolist()))

    def test_grid(self, tmp_path, rng):
        h = rng.normal(size=(9, 9, 9, 16, 2)) @ [1, 1j]
        fileio.write_grid(tmp_path / "grid.csv", SpatialGrid(h, 0.35))
        assert_looped(tmp_path / "grid.csv", "ix,iy,iz,ifreq,re,im", (
            [*map(str, idx), repr(float(h[idx].real)), repr(float(h[idx].imag))]
            for idx in np.ndindex(h.shape)))

    def test_scan(self, tmp_path, rng):
        samples = rng.normal(size=(3, 6000, 2)) @ [1, 1j]
        fileio.write_scan(tmp_path / "scan.csv", DirectionalScan(
            [0.0, 90.0, 180.0], [90.0, 90.0, 45.0], samples, [1e-6, 1e-6, 1e-6]))
        assert_looped(tmp_path / "scan.csv", "idir,ifreq,re,im", (
            [str(i), str(j), repr(float(samples[i, j].real)), repr(float(samples[i, j].imag))]
            for i, j in np.ndindex(samples.shape)))

    def test_overlay(self, tmp_path, rng):
        table = {name: rng.random(14_000) for name in ("r", "a", "b", "c", "d")}
        fileio.write_overlay(tmp_path / "overlay.csv", table)
        rows = zip(*(col.tolist() for col in table.values()))
        assert_looped(tmp_path / "overlay.csv", "r,a,b,c,d", (map(repr, row) for row in rows))

    def test_correlation_map(self, tmp_path, rng):
        v = rng.random((321, 321))
        v = 0.5 * (v + v[::-1, ::-1])
        v[160, 160] = 1.0
        lags = np.linspace(-1.0, 1.0, 321)
        fileio.write_correlation_map(tmp_path / "corr.csv",
                                     CorrelationMap(lags, lags, v, v[:, 160], v[160, :]))
        assert_looped(tmp_path / "corr.csv", None, (map(repr, row) for row in v.tolist()))

    def test_ber_curve(self, tmp_path, rng):
        snr, ber = np.arange(33_000) * 0.001, rng.random(33_000)
        fileio.write_ber_curve(tmp_path / "ber.csv",
                               BerCurve(snr, ber, FadingParams(10.0, 0.5, 1.0), 1000, 7))
        assert_looped(tmp_path / "ber.csv", "snr_db,ber",
                      (map(repr, row) for row in zip(snr.tolist(), ber.tolist())))

    def test_power_map(self, tmp_path, rng):
        power = rng.random(17_000)
        power[::3] = np.nan
        markers = ["rice", "twdp", "failed", "rejected"] * 4250
        azimuth, elevation = np.arange(17_000) * 0.5, np.full(17_000, 90.0)
        fileio.write_power_map(tmp_path / "power.csv", {
            "azimuth": azimuth, "elevation": elevation, "power_norm": power, "marker": markers})
        assert_looped(
            tmp_path / "power.csv", "azimuth,elevation,power_norm,marker",
            ([repr(a), repr(e), repr(p), m] for a, e, p, m in
             zip(azimuth.tolist(), elevation.tolist(), power.tolist(), markers)))


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
    largest = np.finfo(float).max / max(shape[:2])          # keeps the largest lag finite
    return SpatialGrid(complex_array(draw, shape),
                       spacing=draw(st.floats(0.0, largest, exclude_min=True, exclude_max=True)),
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
    k_span = draw(st.floats(1e-3, 100.0))
    # the finest K step that keeps the grid within MAX_GRID_CELLS at any delta_step
    finest = max(1e-6, 1.001 * k_span * 1002.0 / MAX_GRID_CELLS)
    try:
        grid = GridConfig(k_min=k_min, k_max=k_min + k_span,
                          k_step=draw(st.floats(finest, 10.0)),
                          delta_step=draw(st.floats(1e-3, 1.0)))
    except DomainError as err:      # only grids whose density table is over its cap
        assert "density table" in str(err)
        assume(False)
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
