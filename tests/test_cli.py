"""CLI subcommands through their file interfaces, including exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twdpfit import DirectionalScan, FadingParams, NumericalError, sample_twdp
from twdpfit import cli, fileio, likelihood, linksim
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

    def test_quantized_envelopes_end_in_a_verdict(self, tmp_path):
        # rounded to 0.01 root powers (232 distinct values), tied samples
        # once made two g-test edges coincide: an empty cell and exit 4
        env = sample_twdp(FadingParams(3.0, 0.4, 1.0), 100_000, 5).envelopes
        q = 0.01 * np.sqrt(np.mean(env ** 2))
        src = tmp_path / "env.csv"
        fileio.write_envelopes(src, np.round(env / q) * q)
        out = tmp_path / "report.json"
        assert run(["fit", str(src), "-o", str(out), "--k-max", "30"]) == 0
        report = fileio.read_report(out)
        assert report.chosen == "rice" and report.gtest.verdict == "accepted"

    @pytest.mark.parametrize("option, message", [(["--alpha", "1.5"], "alpha must lie"),
                                                 (["--per-cell", "0"], "per_cell must be")])
    def test_bad_g_test_option_fails_before_the_table(self, tmp_path, capsys, monkeypatch,
                                                      option, message):
        env = sample_twdp(FadingParams(3.0, 0.5, 1.0), 2000, 13).envelopes
        src = tmp_path / "env.csv"
        fileio.write_envelopes(src, env)

        def no_table(*args, **kwargs):
            raise AssertionError("density table built")

        monkeypatch.setattr(likelihood, "_TABLE_CACHE", {})
        monkeypatch.setattr(likelihood, "PdfTable", no_table)
        assert run(["fit", str(src), "-o", str(tmp_path / "r.json"), *option]) == 3
        assert message in one_error_line(capsys)
        assert not (tmp_path / "r.json").exists()

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

    def test_unfittable_direction_is_marked_failed(self, tmp_path, capsys):
        # an exact zero in one direction's fit class (sample 9 at stride 10)
        # used to exit 3 and write nothing for any direction
        samples = np.stack([sample_twdp(FadingParams(k, d, 1.0), 1000, seed).samples
                            for k, d, seed in ((8.0, 0.0, 41), (3.0, 0.7, 42),
                                               (1.0, 0.0, 43), (5.0, 0.5, 44))])
        outputs = {}
        for name in ("clean", "zero"):
            if name == "zero":
                samples[2, 9] = 0.0
            path = tmp_path / f"{name}.csv"
            fileio.write_scan(path, DirectionalScan([0.0, 90.0, 180.0, 270.0], [90.0] * 4,
                                                    samples, np.full(4, 1e-6)))
            prefix = tmp_path / f"{name}_out"
            assert run(["scan", str(path), "-o", str(prefix), "--k-max", "2"]) == 0
            outputs[name] = (json.loads(prefix.with_suffix(".fits.json").read_text()),
                             prefix.with_suffix(".power.csv").read_text().splitlines(),
                             capsys.readouterr().out)
        (clean, clean_rows, clean_out), (zero, zero_rows, zero_out) = outputs.values()
        failed = zero["directions"][2]
        assert failed["marker"] == "failed" and failed["report"] is None
        assert "zero envelope" in failed["error"]
        others = [0, 1, 3]
        assert [zero["directions"][i] for i in others] == [clean["directions"][i] for i in others]
        assert zero_rows[3] == clean_rows[3].rsplit(",", 1)[0] + ",failed"
        assert [zero_rows[i] for i in (0, 1, 2, 4)] == [clean_rows[i] for i in (0, 1, 2, 4)]
        assert zero_out.endswith(".fits.json; 1 failed\n") and clean_out.endswith(".fits.json\n")

    def test_overflowing_direction_is_marked_failed(self, tmp_path, capsys):
        # the squared samples of a direction scaled by 1e160 overflow; the scan
        # used to print numpy's overflow warning and exit 3 with no output
        samples = np.stack([sample_twdp(FadingParams(k, d, 1.0), 1000, seed).samples
                            for k, d, seed in ((8.0, 0.0, 41), (3.0, 0.7, 42))])
        samples[1] *= 1e160
        path = tmp_path / "scan.csv"
        fileio.write_scan(path, DirectionalScan([0.0, 90.0], [90.0] * 2, samples,
                                                np.full(2, 1e-6)))
        prefix = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["scan", str(path), "-o", str(prefix), "--k-max", "2"]) == 0
        fits = json.loads(prefix.with_suffix(".fits.json").read_text())["directions"]
        assert fits[0]["marker"] in ("rice", "twdp", "rejected") and fits[0]["report"]
        assert fits[1]["marker"] == "failed" and fits[1]["report"] is None
        assert "mean power inf" in fits[1]["error"]
        rows = prefix.with_suffix(".power.csv").read_text().splitlines()
        assert rows[1:] == [f"0.0,90.0,1.0,{fits[0]['marker']}", "90.0,90.0,nan,failed"]
        assert "overflow" not in capsys.readouterr().err

    def test_direction_with_a_degenerate_g_test_is_marked_failed(self, tmp_path, capsys):
        # ten fit-class samples at 50 times the envelope leave a g-test cell
        # with an expected count of zero (a numerical error); the scan used
        # to exit 4 and write neither output
        samples = np.stack([sample_twdp(FadingParams(10.0, 0.9, 1.0), 20_000, seed).samples
                            for seed in (51, 52, 53, 54)])
        samples[2, 9:100:10] *= 50.0
        path = tmp_path / "scan.csv"
        fileio.write_scan(path, DirectionalScan([0.0, 90.0, 180.0, 270.0], [90.0] * 4,
                                                samples, np.full(4, 1e-6)))
        prefix = tmp_path / "out"
        assert run(["scan", str(path), "-o", str(prefix), "--k-max", "30"]) == 0
        fits = json.loads(prefix.with_suffix(".fits.json").read_text())["directions"]
        assert len(fits) == 4
        assert fits[2]["marker"] == "failed" and fits[2]["report"] is None
        assert "expected cell count of zero" in fits[2]["error"]
        assert all(fits[i]["marker"] in ("rice", "twdp", "rejected") and fits[i]["report"]
                   for i in (0, 1, 3))
        rows = prefix.with_suffix(".power.csv").read_text().splitlines()
        assert len(rows) == 5 and rows[3].endswith(",failed")
        assert capsys.readouterr().out.endswith(".fits.json; 1 failed\n")

    @pytest.mark.parametrize("option, message", [(["--alpha", "1.5"], "alpha must lie"),
                                                 (["--per-cell", "0"], "per_cell must be")])
    def test_bad_g_test_option_fails_the_command(self, tmp_path, capsys, option, message):
        # an option that no direction can be fitted with is not a direction's failure
        path = self.make_scan_file(tmp_path)
        assert run(["scan", str(path), "-o", str(tmp_path / "out"), *GRID_ARGS, *option]) == 3
        assert message in one_error_line(capsys)
        assert not (tmp_path / "out.fits.json").exists()

    def test_no_direction_with_a_power_builds_no_table(self, tmp_path, monkeypatch):
        # every direction above the noise floor overflows, so none has a power
        # to normalize by or a reach to build the table for
        samples = np.stack([sample_twdp(FadingParams(k, d, 1.0), 1000, seed).samples
                            for k, d, seed in ((8.0, 0.0, 41), (3.0, 0.7, 42), (0.0, 0.0, 43))])
        samples[:2] *= 1e160
        samples[2] *= 1e-4
        path = tmp_path / "scan.csv"
        fileio.write_scan(path, DirectionalScan([0.0, 120.0, 240.0], [90.0] * 3, samples,
                                                np.full(3, 1e-6)))
        monkeypatch.setattr(likelihood, "_TABLE_CACHE", {})
        builds, build = [], likelihood.PdfTable._build

        def recorded(table, columns):
            builds.append(columns)
            return build(table, columns)

        monkeypatch.setattr(likelihood.PdfTable, "_build", recorded)
        prefix = tmp_path / "out"
        assert run(["scan", str(path), "-o", str(prefix), "--k-max", "2"]) == 0
        fits = json.loads(prefix.with_suffix(".fits.json").read_text())["directions"]
        assert [d["marker"] for d in fits] == ["failed", "failed", "not_evaluated"]
        assert all("mean power inf" in d["error"] and d["report"] is None for d in fits[:2])
        rows = prefix.with_suffix(".power.csv").read_text().splitlines()
        assert [row.split(",")[2] for row in rows[1:]] == ["nan"] * 3
        assert builds == [] and likelihood._TABLE_CACHE == {}

    def test_table_is_built_once_as_far_as_the_furthest_direction(self, tmp_path, monkeypatch):
        # directions of different reach, one with a spike above the table's
        # range, one below the noise floor and one whose mean power
        # overflows: a single build before the fits, never extended
        samples = np.stack([sample_twdp(FadingParams(k, d, 1.0), 2000, seed).samples
                            for k, d, seed in ((8.0, 0.0, 41), (0.5, 0.0, 42), (3.0, 0.7, 43),
                                               (1.0, 0.0, 44), (2.0, 0.5, 45))])
        samples[2, [9, 29]] *= 12.0
        samples[3] *= 1e-4
        samples[4] *= 1e160
        path = tmp_path / "scan.csv"
        fileio.write_scan(path, DirectionalScan([0.0, 60.0, 120.0, 180.0, 240.0], [90.0] * 5,
                                                samples, np.full(5, 1e-6)))
        monkeypatch.setattr(likelihood, "_TABLE_CACHE", {})
        builds, build = [], likelihood.PdfTable._build

        def recorded(table, columns):
            builds.append((table.columns, columns))
            return build(table, columns)

        monkeypatch.setattr(likelihood.PdfTable, "_build", recorded)
        prefix = tmp_path / "out"
        assert run(["scan", str(path), "-o", str(prefix), "--k-max", "2"]) == 0
        markers = [d["marker"] for d in
                   json.loads(prefix.with_suffix(".fits.json").read_text())["directions"]]
        assert markers[3:] == ["not_evaluated", "failed"]
        assert all(m in ("rice", "twdp", "rejected") for m in markers[:3])
        (table,) = likelihood._TABLE_CACHE.values()
        assert len(builds) == 1 and builds[0][0] == 0
        assert 0 < table.columns < likelihood.TableSpec.n_r + 2

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

    def test_spatial_maps_any_finite_grid_but_a_zero_one(self, tmp_path, capsys):
        # a dead tone made spatial exit 3 ("all-zero slice"), and a x1e160
        # grid wrote an all-NaN map with numpy warnings and exit 0
        h = np.random.default_rng(13).normal(size=(9, 9, 2, 3, 2)) @ [1, 1j]
        h[:, :, :, 1] = 0.0
        for name, grid, code in (("dead", h, 0), ("huge", 1e160 * h, 0), ("zero", 0 * h, 3)):
            path, out = tmp_path / f"{name}.csv", tmp_path / f"{name}_corr.csv"
            fileio.write_grid(path, SpatialGrid(grid, spacing=0.35))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run(["spatial", str(path), "-o", str(out), "--interp-factor", "2"]) == code
            err = capsys.readouterr().err
            if code:
                assert "all-zero grid" in err and not out.exists()
            else:
                assert err == ""
                assert np.all(np.isfinite(np.loadtxt(out, delimiter=",")))

    def test_synth_envelopes_then_fit_round_trip(self, tmp_path):
        env_path = tmp_path / "env.csv"
        assert run(["synth", "envelopes", "-o", str(env_path), "--k", "10",
                    "--delta", "0.9", "--n", "30000", "--seed", "21"]) == 0
        out = tmp_path / "report.json"
        assert run(["fit", str(env_path), "-o", str(out), *GRID_ARGS]) == 0
        report = fileio.read_report(out)
        assert report.chosen == "twdp"
        assert abs(report.twdp.delta_hat - 0.9) <= 0.1

    def test_synth_envelopes_beyond_the_draw_budget_exit_3(self, tmp_path, capsys):
        out = tmp_path / "env.csv"
        assert run(["synth", "envelopes", "-o", str(out), "--n", "10000000000000"]) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_synth_grid_requires_wave(self, tmp_path, capsys):
        assert run(["synth", "grid", "-o", str(tmp_path / "g.csv")]) == 3
        assert "scene needs at least one wave" in one_error_line(capsys)

    @pytest.mark.parametrize("lattice", [
        ["--shape", "100000,100000,100000"], ["--freqs", "6e10,1e6,10000000000000"]])
    def test_synth_grid_beyond_the_draw_budget_exits_3(self, tmp_path, capsys, lattice):
        # the lattice ended in a numpy memory error (exit 1), and the tone
        # axis was built before any check
        out = tmp_path / "g.csv"
        tracemalloc.start()
        try:
            code = run(["synth", "grid", "-o", str(out), "--wave", "1:1,0,0", *lattice])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and peak < 2 ** 20
        assert "bytes" in one_error_line(capsys)
        assert not out.exists()

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

    def test_symbols_beyond_the_draw_budget_exit_3(self, tmp_path, capsys):
        out = tmp_path / "ber.csv"
        assert run(["ber", "--k", "1", "--n-symbols", "10000000000000", "-o", str(out)]) == 3
        assert "Traceback" not in capsys.readouterr().err
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
    ("spatial", {"spacing": True}), ("spatial", {"direction": [True, 0]}),
    ("scan", {"directions": [{"azimuth": True, "elevation": 90.0, "noise_power": 1e-6}] * 2}),
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
    ("spatial", {"spacing": 1e308}, 3), ("scan", {"freq_axis": [6e10]}, 3),
])
def test_non_finite_or_out_of_range_sidecar(tmp_path, capsys, command, fields, code):
    # range checks that NaN passes would let spatial print "lag step nan"
    # and scan write a nan azimuth; a scan long enough to fit otherwise
    path = sidecar_input(tmp_path, command, fields, n_freq=1000)
    grid = ["--k-max", "2"] if command == "scan" else []
    assert run([command, str(path), "-o", str(tmp_path / "out.csv"), *grid]) == code
    one_error_line(capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name, path.with_suffix(".json").name]


@pytest.mark.parametrize("args", [
    ["--jitter", "inf"], ["--jitter", "nan"], ["--wavelength", "inf"], ["--wavelength", "nan"],
    ["--spacing", "inf"], ["--diffuse-sigma2", "inf"], ["--wave", "inf:1,0,0"],
    ["--wave", "nan:1,0,0"], ["--wave", "1:1,0,0:inf"], ["--wave", "1:1,0,0:0:inf"],
    ["--wave", "1:nan,0,0"], ["--wave", "1:inf,0,0"],
    # finite, but the lattice in metres or its phase overflows
    ["--jitter", "1e300", "--wavelength", "1e10"], ["--jitter", "1e308"],
    ["--wavelength", "1e300", "--spacing", "1e10"],
])
def test_non_finite_synth_grid_argument_exits_3(tmp_path, capsys, args):
    # each is refused before any arithmetic: no numpy warning, no traceback
    wave = [] if "--wave" in args else ["--wave", "1:1,0,0"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["synth", "grid", "-o", str(tmp_path / "g.csv"), "--shape", "3,3,1",
                    *wave, *args])
    assert (code, caught, list(tmp_path.iterdir())) == (3, [], [])
    one_error_line(capsys)


def test_infinite_k_step_exits_3_without_warning(tmp_path, capsys):
    src = tmp_path / "env.csv"
    fileio.write_envelopes(src, sample_twdp(FadingParams(3.0, 0.5, 1.0), 2000, 8).envelopes)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["fit", str(src), "-o", str(tmp_path / "r.json"), "--k-step", "inf",
                    "--k-max", "5"])
    assert (code, caught, list(tmp_path.iterdir())) == (3, [], [src])
    assert "grid steps" in one_error_line(capsys)


@pytest.mark.parametrize("step", [["--k-step", "1e-300"], ["--k-step", "5e-324"],
                                  ["--delta-step", "1e-300"], ["--k-step", "1e-6"]])
def test_oversized_grid_exits_3_without_warning(tmp_path, capsys, step):
    # counted before numpy is asked for the K or Delta values
    src = tmp_path / "env.csv"
    fileio.write_envelopes(src, sample_twdp(FadingParams(3.0, 0.5, 1.0), 2000, 8).envelopes)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["fit", str(src), "-o", str(tmp_path / "r.json"), "--k-max", "5", *step])
    assert (code, caught, list(tmp_path.iterdir())) == (3, [], [src])
    assert "exceeds the cap of 1e+07" in one_error_line(capsys)


@pytest.mark.parametrize("grid", [["--k-step", "1e-5", "--k-max", "2"],
                                  ["--delta-step", "2e-4", "--k-max", "50"]])
def test_oversized_table_exits_3_quickly(tmp_path, capsys, grid):
    # under the cell cap, but each would ask for a table of several GB
    src = tmp_path / "env.csv"
    fileio.write_envelopes(src, sample_twdp(FadingParams(3.0, 0.5, 1.0), 2000, 8).envelopes)
    start = time.perf_counter()
    code = run(["fit", str(src), "-o", str(tmp_path / "r.json"), *grid])
    assert time.perf_counter() - start < 2.0
    assert (code, list(tmp_path.iterdir())) == (3, [src])
    assert "exceeds the cap of 1000 MB" in one_error_line(capsys)


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
        # ber writes its sidecar before the CSV: a failed CSV removes it
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["env.csv", "existing_dir"]

    @pytest.mark.parametrize("target", ["missing_dir/o.csv", "existing_dir"])
    def test_unwritable_overlay_leaves_no_report(self, tmp_path, capsys, target):
        src = tmp_path / "env.csv"
        fileio.write_envelopes(src, sample_twdp(FadingParams(3.0, 0.5, 1.0), 2000, 5).envelopes)
        (tmp_path / "existing_dir").mkdir()
        out = tmp_path / "r.json"
        argv = ["fit", str(src), "--k-max", "2", "-o", str(out), "--overlay", str(tmp_path / target)]
        assert run(argv) == 2
        assert str(tmp_path / target.split("/")[0]) in one_error_line(capsys)
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["env.csv", "existing_dir"]

    def test_unwritable_scan_fits_leaves_no_power_map(self, tmp_path, capsys):
        samples = sample_twdp(FadingParams(3.0, 0.5, 1.0), 2000, 6).samples
        src = tmp_path / "scan.csv"
        fileio.write_scan(src, DirectionalScan([0.0], [90.0], samples[None, :], [1e-4]))
        (tmp_path / "out.fits.json").mkdir()
        assert run(["scan", str(src), "-o", str(tmp_path / "out"), "--k-max", "2"]) == 2
        assert str(tmp_path / "out.fits.json") in one_error_line(capsys)
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["out.fits.json", "scan.csv",
                                                              "scan.json"]


# ---------------------------------------------------------------------------
# fuzz: a malformed input file ends in a documented exit code
# ---------------------------------------------------------------------------

TOKENS = st.sampled_from(["", "0", "-1", "nan", "inf", "1e400", "1e-320", "x", ",", "\n", " ",
                          "\ufeff", "\x00", "\udcff", "[", "}", '"'])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([2 ** 63, 10 ** 400])
    | st.floats() | st.text(max_size=6) | TOKENS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                   max_size=3),
    max_leaves=6)


@st.composite
def spliced(draw, data: bytes) -> bytes:
    """data with one to three byte ranges of up to 40 replaced by a token (the
    lone surrogate writes the byte 0xff, which is not UTF-8)."""
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 40))
        data = data[:pos] + draw(TOKENS).encode("utf-8", "surrogateescape") + data[pos + cut:]
    return data


@st.composite
def mutated_json(draw, data: bytes) -> bytes:
    """A JSON document with one to three values replaced or deleted at any
    depth, then possibly spliced as bytes."""
    doc = json.loads(data)
    for _ in range(draw(st.integers(1, 3))):
        obj, parent, key = doc, None, None
        while isinstance(obj, (dict, list)) and obj and (parent is None or draw(st.booleans())):
            parent = obj
            key = draw(st.sampled_from(sorted(obj) if isinstance(obj, dict) else range(len(obj))))
            obj = obj[key]
        if parent is None:
            doc = draw(JSON_VALUES)
        elif isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(JSON_VALUES)
    text = json.dumps(doc).encode()
    return draw(spliced(text)) if draw(st.booleans()) else text


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory) -> dict[str, tuple[bytes, bytes | None]]:
    """Valid envelope, scan and grid files: (CSV bytes, sidecar bytes or None)."""
    work = tmp_path_factory.mktemp("fuzz_inputs")
    rng = np.random.default_rng(8)
    fileio.write_envelopes(work / "env.csv",
                           sample_twdp(FadingParams(3.0, 0.5, 1.0), 600, 8).envelopes)
    fileio.write_scan(work / "scan.csv", DirectionalScan(
        [0.0, 90.0], [90.0, 45.0], rng.normal(size=(2, 600)) + 1j * rng.normal(size=(2, 600)),
        [1e-6, 1e-6], 6e10 + 1e6 * np.arange(600)))
    fileio.write_grid(work / "grid.csv", SpatialGrid(
        rng.normal(size=(3, 3, 1, 2)) + 1j * rng.normal(size=(3, 3, 1, 2)),
        freq_axis=[6e10, 6.1e10], direction=(10.0, 90.0)))
    return {name: ((work / f"{name}.csv").read_bytes(),
                   None if name == "env" else (work / f"{name}.json").read_bytes())
            for name in ("env", "scan", "grid")}


@pytest.mark.parametrize("command, name", [("fit", "env"), ("scan", "scan"), ("spatial", "grid")])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_fuzz_mutated_input(tmp_path_factory, fuzz_inputs, command, name, data):
    # the envelope CSV, or the scan's or grid's JSON sidecar, mutated: every
    # outcome is a documented exit code, and main lets no exception escape
    csv, sidecar = fuzz_inputs[name]
    work = tmp_path_factory.mktemp("fuzz")
    path = work / f"{name}.csv"
    if sidecar is None:
        path.write_bytes(data.draw(spliced(csv)))
    else:
        path.write_bytes(csv)
        path.with_suffix(".json").write_bytes(data.draw(mutated_json(sidecar)))
    grid = [] if command == "spatial" else ["--k-max", "2"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, str(path), "-o", str(work / "out"), *grid])
    assert code in (0, 2, 3, 4)


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


def test_marcum_q1_loads_no_scipy(tmp_path):
    # Q1 is the survival of the CDF's own Poisson mixture, not scipy's chndtr
    probe = """
import sys
import numpy as np
from twdpfit import marcum_q1

q = marcum_q1(np.array([[0.0], [1.0], [20.0]]), np.linspace(0.0, 30.0, 7))
print(q.shape)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    lines = fresh_python(probe, tmp_path).stdout.splitlines()
    assert lines[-2:] == ["(3, 7)", "[]"]


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")        # Python 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert [d.split(">")[0].split("=")[0] for d in project["dependencies"]] == ["numpy"]


def test_fresh_fit_and_scan_load_no_scipy(tmp_path):
    # the package imports no scipy: the table, the CDF and the g-test
    # threshold are numpy and math
    probe = """
import sys
import numpy as np
from twdpfit import DirectionalScan, FadingParams, fileio, sample_twdp
from twdpfit.cli import main

fileio.write_envelopes("env.csv", sample_twdp(FadingParams(5.0, 0.8, 1.0), 5000, 2).envelopes)
fileio.write_scan("scan.csv", DirectionalScan(
    [0.0, 90.0], [90.0, 90.0], np.stack([sample_twdp(FadingParams(k, 0.5, 1.0), 2000, 3).samples
                                         for k in (2.0, 6.0)]), [1e-4, 1e-4]))
codes = [main(["fit", "env.csv", "-o", "report.json", "--overlay", "overlay.csv", "--k-max", "3"]),
         main(["scan", "scan.csv", "-o", "scan_out", "--k-max", "3"])]
print(codes)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print("jsonschema" in sys.modules)
"""
    lines = fresh_python(probe, tmp_path).stdout.splitlines()
    assert lines[-3] == "[0, 0]"
    assert lines[-2] == "[]"
    assert lines[-1] == "False"      # the report is checked without a validator library
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
    # a fresh process rejects the report without loading jsonschema
    probe = """
import sys
from twdpfit import ParseError, fileio
try:
    fileio.read_report("report.json")
except ParseError as exc:
    print("ParseError", "jsonschema" in sys.modules, exc)
"""
    out = fresh_python(probe, tmp_path).stdout
    assert out.startswith("ParseError False") and "chosen does not match the schema" in out


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_fit_peak_memory_per_envelope(tmp_path):
    """A fresh fit's own peak memory (VmHWM; ru_maxrss would carry the peak
    of the process that spawned it) grows by at most 40 bytes per envelope
    between 2.5e5 and 5e5 envelopes: 21-23 measured on the streamed reader,
    58 when the reader held the file's text and two lists of its lines."""
    values = sample_twdp(FadingParams(10.0, 0.9, 1.0), 500_000, 1).envelopes
    sizes = (250_000, 500_000)
    peaks = []
    for n in sizes:
        fileio.write_envelopes(tmp_path / f"env{n}.csv", values[:n])
        probe = f"""
from twdpfit.cli import main
assert main(["fit", "env{n}.csv", "-o", "report.json", "--k-max", "10"]) == 0
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""
        peaks.append(int(fresh_python(probe, tmp_path).stdout.splitlines()[-1]) * 1024)
    assert (peaks[1] - peaks[0]) / (sizes[1] - sizes[0]) <= 40


def test_spatial_past_the_lag_cap_exits_3(tmp_path, capsys):
    path = tmp_path / "grid.csv"
    fileio.write_grid(path, SpatialGrid(np.ones((9, 9, 1, 1), complex), spacing=0.35))
    out = tmp_path / "corr.csv"
    assert run(["spatial", str(path), "-o", str(out), "--interp-factor", "2000"]) == 3
    assert "lag cells, more than 1e+07" in capsys.readouterr().err
    assert not out.exists()


def test_each_call_logs_at_its_own_level_to_its_own_stderr(tmp_path, monkeypatch):
    # logging.basicConfig acted on the first call in a process only, so a
    # later call kept that call's stderr and ignored its own TWDPFIT_LOG
    env = tmp_path / "env.csv"
    fileio.write_envelopes(env, sample_twdp(FadingParams(4.0, 0.5), 20_000, 7).envelopes)
    errs = []
    for level in ("warning", "info"):
        monkeypatch.setenv("TWDPFIT_LOG", level)
        monkeypatch.setattr(likelihood, "_TABLE_CACHE", {})
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert run(["fit", str(env), "-o", str(tmp_path / f"{level}.json"),
                        "--k-max", "2"]) == 0
        errs.append(err.getvalue())
    assert "density table built" not in errs[0]
    assert "INFO twdpfit.likelihood: density table built" in errs[1]
    assert not cli.log.handlers


def test_unknown_log_level_falls_back_to_warning(tmp_path):
    probe = 'from twdpfit.cli import main; print(main(["ber", "--k", "1", "--snr-db", "0", ' \
            '"--n-symbols", "10000", "-o", "ber.csv"]))'
    done = fresh_python(probe, tmp_path, TWDPFIT_LOG="basic_format")
    assert done.stdout.splitlines()[-1] == "0"
    assert (tmp_path / "ber.csv").exists()
