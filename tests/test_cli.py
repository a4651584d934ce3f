"""CLI subcommands through their file interfaces, including exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twdpfit import DirectionalScan, FadingParams, NumericalError, sample_twdp
from twdpfit import cli, fileio, linksim
from twdpfit.cli import main
from twdpfit.errors import DomainError, EstimationError, ParseError, TwdpfitError
from twdpfit.inference import FitReport, GTestResult, ModelFit
from twdpfit.measurement import SPEED_OF_LIGHT, SpatialGrid

GRID_ARGS = ["--k-max", "20"]


def run(args):
    return main(list(args))


class TestFit:
    def test_twdp_data_chooses_twdp(self, tmp_path):
        env = sample_twdp(FadingParams(10.0, 0.9, 1.0), 30_000, 11).envelopes
        src = tmp_path / "env.csv"
        fileio.write_envelopes(src, env)
        out = tmp_path / "report.json"
        overlay = tmp_path / "overlay.csv"
        code = run(["fit", str(src), "-o", str(out), "--overlay", str(overlay),
                    *GRID_ARGS])
        assert code == 0
        report = fileio.read_report(out)
        assert report.chosen == "twdp"
        assert abs(report.twdp.k_hat - 10.0) < 2.0
        table = np.loadtxt(overlay, delimiter=",", skiprows=1)
        assert table.shape[1] == 5

    def test_rayleigh_data_chooses_rice(self, tmp_path):
        env = sample_twdp(FadingParams(0.0, 0.0, 2.0), 30_000, 12).envelopes
        src = tmp_path / "env.csv"
        fileio.write_envelopes(src, env)
        out = tmp_path / "report.json"
        assert run(["fit", str(src), "-o", str(out), "--k-max", "5"]) == 0
        report = fileio.read_report(out)
        assert report.chosen == "rice"
        assert report.omega_hat == pytest.approx(2.0, rel=0.05)

    def test_empty_file_exits_2_without_output(self, tmp_path):
        src = tmp_path / "env.csv"
        src.write_text("")
        out = tmp_path / "report.json"
        assert run(["fit", str(src), "-o", str(out)]) == 2
        assert not out.exists()

    def test_zero_envelope_exits_3(self, tmp_path):
        src = tmp_path / "env.csv"
        values = np.ones(2000)
        values[9] = 0.0  # lands in the fit class
        fileio.write_envelopes(src, values)
        out = tmp_path / "report.json"
        assert run(["fit", str(src), "-o", str(out), "--k-max", "2"]) == 3
        assert not out.exists()

    def test_unknown_flag_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["fit", "x.csv", "-o", "y.json", "--frobnicate"])
        assert err.value.code != 0

    def test_k_at_grid_edge_reports_boundary_hit(self, tmp_path):
        env_path = tmp_path / "env.csv"
        assert run(["synth", "envelopes", "-o", str(env_path), "--k", "300",
                    "--delta", "0.3", "--n", "100000", "--seed", "3"]) == 0
        out = tmp_path / "report.json"
        assert run(["fit", str(env_path), "-o", str(out), "--k-max", "20"]) == 0
        doc = json.loads(out.read_text())
        assert doc["twdp"]["k_hat"] == 20.0
        assert doc["twdp"]["boundary_hit"] is True

    def test_k_at_zero_row_writes_report(self, tmp_path):
        env_path = tmp_path / "env.csv"
        assert run(["synth", "envelopes", "-o", str(env_path), "--k", "0",
                    "--n", "2000", "--seed", "0"]) == 0
        out = tmp_path / "report.json"
        assert run(["fit", str(env_path), "-o", str(out), "--k-max", "20"]) == 0
        doc = json.loads(out.read_text())
        assert doc["rice"]["boundary_hit"] is False

    def test_deterministic_output(self, tmp_path):
        env = sample_twdp(FadingParams(2.0, 0.0, 1.0), 20_000, 5).envelopes
        src = tmp_path / "env.csv"
        fileio.write_envelopes(src, env)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run(["fit", str(src), "-o", str(out1), "--k-max", "5"]) == 0
        assert run(["fit", str(src), "-o", str(out2), "--k-max", "5"]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestScan:
    def make_scan_file(self, tmp_path):
        rng = np.random.default_rng(31)
        n_freq = 2000
        # direction 0: strong Rician-like; 1: below the noise floor
        strong = sample_twdp(FadingParams(8.0, 0.0, 1.0), n_freq, 41).samples
        weak = 1e-4 * (rng.normal(size=n_freq) + 1j * rng.normal(size=n_freq))
        scan = DirectionalScan(
            azimuth=np.array([10.0, 200.0]),
            elevation=np.array([90.0, 90.0]),
            samples=np.stack([strong, weak]),
            noise_power=np.array([1e-4, 1e-4]),
        )
        path = tmp_path / "scan.csv"
        fileio.write_scan(path, scan)
        return path

    def test_masked_direction_recorded(self, tmp_path):
        path = self.make_scan_file(tmp_path)
        prefix = tmp_path / "out"
        assert run(["scan", str(path), "-o", str(prefix), *GRID_ARGS]) == 0
        fits = json.loads((tmp_path / "out.fits.json").read_text())
        markers = [d["marker"] for d in fits["directions"]]
        assert markers[1] == "not_evaluated"
        assert markers[0] in ("rice", "twdp", "rejected")
        assert fits["directions"][1]["report"] is None
        assert fits["directions"][0]["report"] is not None
        rows = (tmp_path / "out.power.csv").read_text().splitlines()
        assert rows[0] == "azimuth,elevation,power_norm,marker"
        assert "not_evaluated" in rows[2]

    def test_nan_sample_exits_3_without_output(self, tmp_path, capsys):
        # a NaN in a strong direction used to mark it not_evaluated and exit 0
        path = self.make_scan_file(tmp_path)
        lines = path.read_text().splitlines()
        idir, ifreq, _, im = lines[6].split(",")
        assert idir == "0"
        lines[6] = f"{idir},{ifreq},nan,{im}"
        path.write_text("\n".join(lines) + "\n")
        prefix = tmp_path / "out"
        assert run(["scan", str(path), "-o", str(prefix), *GRID_ARGS]) == 3
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out.power.csv").exists()
        assert not (tmp_path / "out.fits.json").exists()

    def test_output_bytes(self, tmp_path, monkeypatch):
        # constant-envelope directions and hand-built reports: no fit runs
        samples = np.stack([np.ones(20), np.full(20, 1e-4), np.full(20, 0.5j)])
        scan = DirectionalScan([10.0, 200.0, 300.5], [90.0, 90.0, 45.0], samples,
                               np.full(3, 1e-6))
        fileio.write_scan(tmp_path / "scan.csv", scan)
        gtests = iter(["accepted", "rejected"])

        def fake_fit(env_set, grid, alpha, per_cell):
            return FitReport(
                omega_hat=1.5, n_fit=2, n_moment=18,
                rice=ModelFit("rice", 2.5, 0.0, -12.25, 28.5, False),
                twdp=ModelFit("twdp", 10.0, 0.9, -11.5, 29.0, False), chosen="rice",
                gtest=GTestResult(3.5, 1, 6.635, next(gtests), 2, alpha, per_cell),
                grid=grid)

        monkeypatch.setattr("twdpfit.cli.fit_envelopes", fake_fit)
        prefix = tmp_path / "out"
        assert run(["scan", str(tmp_path / "scan.csv"), "-o", str(prefix), "--k-max", "3"]) == 0
        assert (tmp_path / "out.power.csv").read_text() == (
            "azimuth,elevation,power_norm,marker\n10.0,90.0,1.0,rice\n"
            "200.0,90.0,nan,not_evaluated\n300.5,45.0,0.25,rejected\n")
        text = (tmp_path / "out.fits.json").read_text()
        assert text.startswith('{\n  "directions": [\n    {\n      "azimuth": 10.0,\n'
                               '      "elevation": 90.0,\n      "marker": "rice",\n'
                               '      "report": {\n        "chosen": "rice",\n')
        assert ('    {\n      "azimuth": 200.0,\n      "elevation": 90.0,\n'
                '      "marker": "not_evaluated",\n      "report": null\n    },\n') in text
        assert text.endswith('        }\n      }\n    }\n  ],\n  "kind": "scan_fits"\n}\n')
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert [d["marker"] for d in doc["directions"]] == ["rice", "not_evaluated", "rejected"]
        assert doc["directions"][2]["report"]["gtest"]["verdict"] == "rejected"
        assert doc["directions"][0]["report"]["grid"] == {
            "delta_step": 0.05, "k_max": 3.0, "k_min": 0.0, "k_step": 0.05}


class TestSpatialAndSynth:
    def test_synth_grid_then_spatial(self, tmp_path):
        grid_path = tmp_path / "grid.csv"
        code = run([
            "synth", "grid", "-o", str(grid_path),
            "--wave", "1.0:1,0,0:0.0:37",
            "--wave", "1.0:-0.5,0.8660254037844387,0:0.0:61",
            "--shape", "9,9,1", "--spacing", "0.35", "--wavelength", "0.005",
            "--freqs", f"{SPEED_OF_LIGHT / 0.005},1e6,64",
        ])
        assert code == 0
        corr_path = tmp_path / "corr.csv"
        assert run(["spatial", str(grid_path), "-o", str(corr_path)]) == 0
        header = json.loads((tmp_path / "corr.json").read_text())
        cut = np.asarray(header["cut_x"])
        assert (cut > 0.05).any() and (cut < -0.05).any()  # oscillating cut

    def test_synth_envelopes_then_fit_round_trip(self, tmp_path):
        env_path = tmp_path / "env.csv"
        assert run(["synth", "envelopes", "-o", str(env_path), "--k", "10",
                    "--delta", "0.9", "--n", "30000", "--seed", "21"]) == 0
        out = tmp_path / "report.json"
        assert run(["fit", str(env_path), "-o", str(out), *GRID_ARGS]) == 0
        report = fileio.read_report(out)
        assert report.chosen == "twdp"
        assert abs(report.twdp.delta_hat - 0.9) <= 0.1

    def test_synth_grid_requires_wave(self, tmp_path):
        assert run(["synth", "grid", "-o", str(tmp_path / "g.csv")]) == 3

    def test_synth_grid_bad_shape_exits_2(self, tmp_path):
        assert run(["synth", "grid", "-o", str(tmp_path / "g.csv"),
                    "--wave", "1.0:1,0,0", "--shape", "9,9,x"]) == 2


class TestBer:
    def test_ber_files_written(self, tmp_path):
        out = tmp_path / "ber.csv"
        code = run(["ber", "--k", "0", "--snr-db", "0,10",
                    "--n-symbols", "20000", "--seed", "2", "-o", str(out)])
        assert code == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (2, 2)
        assert data[1, 1] <= data[0, 1]

    @pytest.mark.parametrize("snr_db", ["0,x", "0,,10"])
    def test_bad_snr_list_exits_2(self, tmp_path, snr_db):
        out = tmp_path / "ber.csv"
        assert run(["ber", "--k", "1", "--snr-db", snr_db, "-o", str(out)]) == 2
        assert not out.exists()

    def test_non_finite_snr_exits_3(self, tmp_path):
        out = tmp_path / "ber.csv"
        assert run(["ber", "--k", "1", "--snr-db", "nan", "--n-symbols", "10000",
                    "-o", str(out)]) == 3
        assert not out.exists()

    def test_failed_point_exits_4_without_output(self, tmp_path, monkeypatch, capsys):
        def failing(params, n, seed):
            if seed.spawn_key[0] == 2:
                raise NumericalError("channel draw failed")
            return sample_twdp(params, n, seed)

        monkeypatch.setattr(linksim, "sample_twdp", failing)
        out = tmp_path / "ber.csv"
        assert run(["ber", "--k", "1", "--snr-db", "0,10,20,30", "--n-symbols", "10000",
                    "-o", str(out)]) == 4
        err = capsys.readouterr().err
        assert "channel draw failed" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("error, code", [
    (ParseError, 2), (DomainError, 3), (EstimationError, 3), (NumericalError, 4),
    (TwdpfitError, 4)])
def test_error_class_sets_exit_code(tmp_path, monkeypatch, capsys, error, code):
    def failing(args):
        raise error("injected")

    monkeypatch.setattr(cli, "_cmd_fit", failing)
    assert error.exit_code == code
    assert run(["fit", str(tmp_path / "env.csv"), "-o", str(tmp_path / "r.json")]) == code
    assert capsys.readouterr().err == "error: injected\n"


def test_other_errors_are_not_caught(tmp_path, monkeypatch):
    def failing(args):
        raise ValueError("not a package error")

    monkeypatch.setattr(cli, "_cmd_fit", failing)
    with pytest.raises(ValueError, match="not a package error"):
        run(["fit", str(tmp_path / "env.csv"), "-o", str(tmp_path / "r.json")])


def sidecar_input(tmp_path, command, fields, n_freq=40):
    """A spatial grid or a directional scan file (of `n_freq` tones) whose
    JSON sidecar has `fields` patched in."""
    rng = np.random.default_rng(4)
    if command == "spatial":
        path = tmp_path / "grid.csv"
        h = rng.normal(size=(3, 3, 1, 1)) + 1j * rng.normal(size=(3, 3, 1, 1))
        fileio.write_grid(path, SpatialGrid(h, freq_axis=[6e10], direction=(10.0, 90.0)))
    else:
        path = tmp_path / "scan.csv"
        samples = rng.normal(size=(2, n_freq)) + 1j * rng.normal(size=(2, n_freq))
        fileio.write_scan(path, DirectionalScan([0.0, 90.0], [90.0, 90.0], samples,
                                                [1e-6, 1e-6], 6e10 + 1e6 * np.arange(n_freq)))
    sidecar = path.with_suffix(".json")
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **fields}))
    return path


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


@pytest.mark.parametrize("command, fields", [
    ("spatial", {"freq_axis": ["x"]}), ("spatial", {"shape": [3, "3", 1, 1]}),
    ("spatial", {"shape": [3, 3.0, 1, 1]}), ("spatial", {"direction": 5}),
    ("scan", {"freq_axis": ["x"]}), ("scan", {"n_freq": 39.7}), ("scan", {"n_freq": "40"}),
])
def test_malformed_sidecar_exits_2(tmp_path, capsys, command, fields):
    path = sidecar_input(tmp_path, command, fields)
    out = tmp_path / "out.csv"
    assert run([command, str(path), "-o", str(out)]) == 2
    kind = "grid" if command == "spatial" else "scan"
    assert f"bad {kind} header" in one_error_line(capsys)
    assert not out.exists()


def nan_azimuth_directions():
    return [{"azimuth": float("nan"), "elevation": 90.0, "noise_power": 1e-6},
            {"azimuth": 90.0, "elevation": 90.0, "noise_power": 1e-6}]


@pytest.mark.parametrize("command, fields, code", [
    ("spatial", {"spacing": "nan"}, 3), ("spatial", {"spacing": "inf"}, 3),
    ("spatial", {"spacing": float("nan")}, 3), ("spatial", {"freq_axis": [float("nan")]}, 3),
    ("spatial", {"direction": [float("nan"), 90.0]}, 3), ("spatial", {"direction": [360, 90]}, 3),
    ("spatial", {"direction": [10, 181]}, 3), ("spatial", {"direction": "abc"}, 2),
    ("spatial", {"direction": "12"}, 2), ("spatial", {"direction": [1, 2, 3, 4]}, 2),
    ("spatial", {"direction": ["x", 90]}, 2), ("scan", {"directions": nan_azimuth_directions()}, 3),
])
def test_non_finite_or_out_of_range_sidecar(tmp_path, capsys, command, fields, code):
    # range checks that NaN passes would let spatial print "lag step nan"
    # and scan write a nan azimuth; a scan long enough to fit otherwise
    path = sidecar_input(tmp_path, command, fields, n_freq=1000)
    grid = ["--k-max", "2"] if command == "scan" else []
    assert run([command, str(path), "-o", str(tmp_path / "out.csv"), *grid]) == code
    one_error_line(capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name, path.with_suffix(".json").name]


class TestUnreadableOrUnwritableFiles:
    """A file that cannot be read or written ends in exit 2 with one error
    line naming it, and leaves no temp file."""

    def test_undecodable_envelope_file(self, tmp_path, capsys):
        src = tmp_path / "env.csv"
        src.write_bytes(b"envelope\n1.0\n\xff\xfe2.0\n")
        assert run(["fit", str(src), "-o", str(tmp_path / "r.json")]) == 2
        assert str(src) in one_error_line(capsys)
        assert list(tmp_path.iterdir()) == [src]

    @pytest.mark.parametrize("fault", ["undecodable", "directory"])
    def test_unreadable_grid_sidecar(self, tmp_path, capsys, fault):
        path = sidecar_input(tmp_path, "spatial", {})
        sidecar = path.with_suffix(".json")
        if fault == "undecodable":
            text = sidecar.read_bytes()
            sidecar.write_bytes(text[:20] + b"\xff" + text[20:])
        else:
            sidecar.unlink()
            sidecar.mkdir()
        out = tmp_path / "corr.csv"
        assert run(["spatial", str(path), "-o", str(out)]) == 2
        assert str(sidecar) in one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("target", ["missing_dir/out.csv", "existing_dir"])
    @pytest.mark.parametrize("command", ["fit", "ber"])
    def test_unwritable_output(self, tmp_path, capsys, command, target):
        src = tmp_path / "env.csv"
        fileio.write_envelopes(src, sample_twdp(FadingParams(3.0, 0.5, 1.0), 2000, 5).envelopes)
        (tmp_path / "existing_dir").mkdir()
        out = tmp_path / target
        argv = (["fit", str(src), "--k-max", "2"] if command == "fit" else
                ["ber", "--k", "3", "--snr-db", "0", "--n-symbols", "10000"])
        assert run([*argv, "-o", str(out)]) == 2
        assert str(tmp_path / target.split("/")[0]) in one_error_line(capsys)
        assert list(tmp_path.rglob("*.tmp")) == []


def fresh_python(probe: str, cwd: Path, **env_vars) -> subprocess.CompletedProcess:
    """Run `probe` in a new interpreter with this checkout's src on the path."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, **env_vars, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done


def test_table_free_commands_skip_scipy_and_jsonschema(tmp_path):
    probe = f"""
import sys
from twdpfit.cli import main

def heavy():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "jsonschema"))

print(heavy())
codes = [
    main(["synth", "envelopes", "-o", "env.csv", "--n", "2000"]),
    main(["synth", "grid", "-o", "grid.csv", "--wave", "1.0:1,0,0:0.0:37",
          "--shape", "4,4,1", "--freqs", "{SPEED_OF_LIGHT / 0.005!r},1e6,8"]),
    main(["spatial", "grid.csv", "-o", "corr.csv", "--interp-factor", "4"]),
    main(["ber", "--k", "2", "--snr-db", "0,10", "--n-symbols", "10000", "-o", "ber.csv"]),
]
print(codes)
print(heavy())
"""
    lines = fresh_python(probe, tmp_path).stdout.splitlines()
    assert lines[0] == "[]"          # after import twdpfit.cli
    assert lines[-2] == "[0, 0, 0, 0]"
    assert lines[-1] == "[]"         # after the four commands


def test_fresh_fit_loads_scipy_in_the_row_pool(tmp_path):
    # records the thread of the first scipy import, then lets it proceed
    probe = """
import sys, threading
from twdpfit import FadingParams, fileio, sample_twdp
from twdpfit.cli import main

first = []

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" and not first:
            first.append(threading.current_thread().name)
        return None

sys.meta_path.insert(0, Spy())
fileio.write_envelopes("env.csv", sample_twdp(FadingParams(5.0, 0.8, 1.0), 5000, 2).envelopes)
print(main(["fit", "env.csv", "-o", "report.json", "--k-max", "3"]))
print(first)
"""
    lines = fresh_python(probe, tmp_path).stdout.splitlines()
    assert lines[-2] == "0"
    assert lines[-1].startswith("['ThreadPoolExecutor")
    report = fileio.read_report(tmp_path / "report.json")     # validates the schema
    assert report.chosen in ("rice", "twdp")


def test_fresh_read_report_rejects_schema_break(tmp_path, monkeypatch):
    env = sample_twdp(FadingParams(1.0, 0.0, 1.0), 2000, 4).envelopes
    monkeypatch.chdir(tmp_path)
    fileio.write_envelopes("env.csv", env)
    assert run(["fit", "env.csv", "-o", "report.json", "--k-max", "2"]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    doc["chosen"] = "nakagami"
    (tmp_path / "report.json").write_text(json.dumps(doc))
    # read_report is the first user of jsonschema in this process
    probe = """
import sys
from twdpfit import ParseError, fileio
try:
    fileio.read_report("report.json")
except ParseError as exc:
    print("ParseError", "jsonschema" in sys.modules, exc)
"""
    out = fresh_python(probe, tmp_path).stdout
    assert out.startswith("ParseError True") and "schema" in out


def test_unknown_log_level_falls_back_to_warning(tmp_path):
    probe = 'from twdpfit.cli import main; print(main(["ber", "--k", "1", "--snr-db", "0", ' \
            '"--n-symbols", "10000", "-o", "ber.csv"]))'
    done = fresh_python(probe, tmp_path, TWDPFIT_LOG="basic_format")
    assert done.stdout.splitlines()[-1] == "0"
    assert (tmp_path / "ber.csv").exists()
