#!/usr/bin/env python3
"""sha256 digests of everything the twdpfit CLI writes, on a fixed, seeded
input set.

Runs, in one process and inside OUT_DIR: `synth envelopes`, `fit` with an
overlay on that set and on a second set with two fit-class spikes above the
table's envelope range, `fit` on a set rounded to 0.01 of its rms (tied
samples), `scan` on four directions (clean, spiked, below the noise floor
and one whose mean power overflows, so marked failed with a NaN power),
`synth grid`, `spatial` and `ber`. Those fits build only the envelope
columns of their tables that their data read. Then three commands that
must fail: `scan --alpha 1.5`, `scan --per-cell 0` and `synth grid` with no
`--wave`; and `spatial` on three copies of the synthesized grid: one whose
tone 1 is all zero (a dead tone, which exited 3 before it was averaged in),
and two scaled by 2^600 and by 1e160 (which gave an all-NaN map before the
grid was scaled by a power of two; the 2^600 map equals `corr.csv`). It
then prints one "sha256  name" line per file in OUT_DIR, one per
command's standard output, one per failing or `spatial` copy command's
exit code, standard output and standard error (a failing command's
`error:` line), one for the k_max 30 `loglik_surface`
of a fixed set that reaches 3.9 root powers, on a fresh table that a fit
of a set reaching about 1.3 root powers built only part of the way (so the
surface extends it), one per density table's `log_rows` (k_max 30 and
100, and the default grid's 332 rows up to K = 1000, most of whose kernels
are evaluated in bands, so that the lines cover whole packed rows and
banded ones; each line first extends its table to full width), one for
the default grid's `loglik_surface` of a fixed set with spikes at 4.5, 6
and 9 root powers (banded rows over spikes, which no k_max 30 fit
reaches), one for the values of `rice_cdf`, `twdp_cdf` and `marcum_q1` on a fixed
(K, Delta, r) grid, one for the values of `fading._i0e` on a fixed sweep and
`chi2_quantile` at dof 1-2000 and p 0.95 and 0.99, one for the fit report's
schema, one per `autocorr2d` map of a fixed seeded 9 x 11 field and of its
copies scaled by 2^600 (the same map) and by 1e160, which no command
reads, and one per sidecar reader: the arrays
`read_grid` parses from a grid written with a direction and a frequency
axis, and those `read_scan` parses from the scan. Two source trees wrote
byte-identical outputs exactly when their lines are equal:

    PYTHONPATH=src python scripts/output_digests.py /tmp/a > a.txt
    PYTHONPATH=../other/src python scripts/output_digests.py /tmp/b > b.txt
    diff a.txt b.txt
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np

from twdpfit import cli, fileio, likelihood
from twdpfit.fading import FadingParams, _i0e, marcum_q1, rice_cdf, twdp_cdf
from twdpfit.inference import GridConfig, chi2_quantile, fit_envelopes, partition_stride
from twdpfit.likelihood import get_table
from twdpfit.measurement import DirectionalScan, SpatialGrid, autocorr2d
from twdpfit.synth import sample_twdp

K30 = ["--k-max", "30"]
CDF_KS = (0.0, 1.0, 10.0, 100.0, 1000.0)
CDF_DELTAS = (0.0, 0.5, 0.9, 1.0)
CDF_R = np.linspace(0.0, 4.0, 81)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parsed(*values) -> bytes:
    """The bytes of each value as an array, in turn; a None as b"None"."""
    return b"".join(b"None" if v is None else np.asarray(v).tobytes() for v in values)


def cdf_values() -> bytes:
    """The bytes of rice_cdf at each K of the grid, twdp_cdf at each
    (K, Delta), and marcum_q1 = 1 - rice_cdf at each K, all at every r of
    CDF_R (omega 1)."""
    values = [rice_cdf(CDF_R, k) for k in CDF_KS]
    values += [twdp_cdf(CDF_R, FadingParams(k, d)) for k in CDF_KS for d in CDF_DELTAS]
    values += [marcum_q1(math.sqrt(2.0 * k), CDF_R * math.sqrt(2.0 * (1.0 + k)))
               for k in CDF_KS]
    return parsed(*values)


def special_values() -> bytes:
    """The bytes of _i0e on a sweep across both of its expansions and far
    out, then of chi2_quantile at p 0.95 and 0.99 for every dof 1-2000."""
    z = np.concatenate([np.linspace(0.0, 40.0, 4001), np.geomspace(1e-8, 1e6, 1001)])
    quantiles = [chi2_quantile(p, dof) for p in (0.95, 0.99) for dof in range(1, 2001)]
    return parsed(_i0e(z), quantiles)


def spiked_surface(table) -> bytes:
    """The bytes of `table`'s log-likelihood surface of 20,000 seeded
    envelopes (K 10, Delta 0.9, omega 1), three of them replaced by spikes
    at 4.5, 6 and 9 root powers, above the table's envelope range."""
    x = sample_twdp(FadingParams(10.0, 0.9, 1.0), 20_000, 46).envelopes
    x[[5, 50, 500]] = [4.5, 6.0, 9.0]
    return parsed(table.loglik_surface(x))


def extended_surface() -> bytes:
    """The bytes of the k_max 30 log-likelihood surface of 20,000 seeded
    envelopes (K 4, Delta 0.5, omega 1), one of them replaced by 3.9, on a
    fresh table that a fit of 2e4 envelopes with Rician truth K = 100 (whose
    fit class reaches about 1.3 root powers) built first."""
    likelihood.clear_table_cache()
    grid = GridConfig(k_max=30)
    low = sample_twdp(FadingParams(100.0, 0.0, 1.0), 20_000, 47).envelopes
    fit_envelopes(partition_stride(low, 10), grid)
    x = sample_twdp(FadingParams(4.0, 0.5, 1.0), 20_000, 48).envelopes
    x[77] = 3.9
    (table,) = likelihood._TABLE_CACHE.values()        # as the fit left it
    return parsed(table.loglik_surface(x))


def write_inputs() -> None:
    """The spiked and the quantized envelope file, the four-direction scan, a
    small grid with a direction and a frequency axis and a 9 x 9 x 9 x 100
    grid, whose 72,900 rows span several of the CSV writer's blocks."""
    values = sample_twdp(FadingParams(4.0, 0.5, 1.0), 20_000, 40).envelopes
    values[[9, 19]] = [6.0, 7.5]               # fit class at the default stride 10
    fileio.write_envelopes("spiked.csv", values)
    values = sample_twdp(FadingParams(3.0, 0.4, 1.0), 100_000, 5).envelopes
    q = 0.01 * np.sqrt(np.mean(values ** 2))
    fileio.write_envelopes("quantized.csv", np.round(values / q) * q)
    n_freq = 2000
    clean = sample_twdp(FadingParams(8.0, 0.0, 1.0), n_freq, 41).samples
    spiked = sample_twdp(FadingParams(3.0, 0.7, 1.0), n_freq, 42).samples
    spiked[[9, 29]] *= 12.0
    weak = 1e-4 * sample_twdp(FadingParams(0.0), n_freq, 43).samples
    huge = 1e160 * sample_twdp(FadingParams(2.0, 0.5, 1.0), n_freq, 49).samples
    fileio.write_scan("scan.csv", DirectionalScan(
        azimuth=[10.0, 120.0, 200.0, 300.0], elevation=[90.0, 80.0, 90.0, 70.0],
        samples=np.stack([clean, spiked, weak, huge]), noise_power=np.full(4, 1e-4)))
    h = np.random.default_rng(44).normal(size=(3, 4, 2, 5, 2)) @ [1, 1j]
    fileio.write_grid("grid_dir.csv", SpatialGrid(
        h, spacing=0.3, freq_axis=6e10 + 1e6 * np.arange(5), direction=(30.0, 60.0)))
    h = np.random.default_rng(45).normal(size=(9, 9, 9, 100, 2)) @ [1, 1j]
    fileio.write_grid("grid_big.csv", SpatialGrid(h, spacing=0.35))


def write_spatial_copies() -> list[str]:
    """Copies of the grid `synth grid` wrote: with its tone 1 set to zero,
    and scaled by 2^600 and by 1e160; returns their names."""
    grid = fileio.read_grid("grid.csv")
    dead = grid.h.copy()
    dead[:, :, :, 1] = 0.0
    copies = {"dead_tone": dead, "2p600": grid.h * 2.0 ** 600, "1e160": grid.h * 1e160}
    for name, h in copies.items():
        fileio.write_grid(f"grid_{name}.csv",
                          SpatialGrid(h, grid.spacing, grid.freq_axis, grid.direction))
    return list(copies)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out_dir", help="empty or new directory for the outputs")
    out = Path(ap.parse_args().out_dir)
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)

    commands = {
        "synth_envelopes": ["synth", "envelopes", "-o", "envelopes.csv",
                            "--k", "10", "--delta", "0.9", "--n", "20000", "--seed", "5"],
        "fit": ["fit", "envelopes.csv", "-o", "fit.json", "--overlay", "overlay.csv",
                "--k-max", "100"],
        "fit_spiked": ["fit", "spiked.csv", "-o", "spiked.json",
                       "--overlay", "spiked_overlay.csv", *K30],
        "fit_quantized": ["fit", "quantized.csv", "-o", "quantized.json", *K30],
        "scan": ["scan", "scan.csv", "-o", "scan_out", *K30],
        "synth_grid": ["synth", "grid", "-o", "grid.csv", "--shape", "9,9,1",
                       "--wave", "1:1,0,0:0:37", "--wave", "0.8:-0.5,0.866,0:1:61",
                       "--freqs", "60e9,1e6,16", "--diffuse-sigma2", "0.05",
                       "--jitter", "0.01", "--seed", "3"],
        "spatial": ["spatial", "grid.csv", "-o", "corr.csv", "--interp-factor", "4"],
        "ber": ["ber", "--k", "10", "--delta", "0.5", "--snr-db", "0,10,20,30",
                "--n-symbols", "200000", "--seed", "9", "-o", "ber.csv"],
    }
    failing = {
        "scan_alpha": ["scan", "scan.csv", "-o", "scan_bad", *K30, "--alpha", "1.5"],
        "scan_per_cell": ["scan", "scan.csv", "-o", "scan_bad", *K30, "--per-cell", "0"],
        "synth_grid_no_wave": ["synth", "grid", "-o", "grid_bad.csv"],
    }
    write_inputs()
    lines = []
    for name, argv in commands.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"{name} exited {code}")
        lines.append(f"{sha(stdout.getvalue().encode())}  {name}.stdout")
    spatial_copies = {f"spatial_{name}": ["spatial", f"grid_{name}.csv", "-o",
                                          f"corr_{name}.csv", "--interp-factor", "4"]
                      for name in write_spatial_copies()}
    for name, argv in {**failing, **spatial_copies}.items():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        if code == 0 and name in failing:
            raise SystemExit(f"{name} exited 0")
        run = f"{code} {stdout.getvalue()}{stderr.getvalue()}"
        lines.append(f"{sha(run.encode())}  {name}.stderr")
    lines += [f"{sha(p.read_bytes())}  {p.name}" for p in sorted(Path().iterdir())]
    lines.append(f"{sha(extended_surface())}  loglik_surface k_max 30, extended")
    for k_max in (30, 100, None):
        grid = GridConfig() if k_max is None else GridConfig(k_max=k_max)
        table = get_table(grid.k_values, grid.delta_values)
        name = "default grid" if k_max is None else f"k_max {k_max}"
        lines.append(f"{sha(table.log_rows.tobytes())}  log_rows {name}")
    lines.append(f"{sha(spiked_surface(table))}  loglik_surface default grid, spiked")
    lines.append(f"{sha(cdf_values())}  rice_cdf twdp_cdf marcum_q1")
    lines.append(f"{sha(special_values())}  i0e chi2_quantile")
    lines.append(f"{sha(json.dumps(fileio.REPORT_SCHEMA).encode())}  REPORT_SCHEMA")
    field = np.random.default_rng(50).normal(size=(9, 11))
    for name, scale in (("", 1.0), (" x2^600", 2.0 ** 600), (" x1e160", 1e160)):
        lines.append(f"{sha(autocorr2d(field * scale).tobytes())}  autocorr2d{name}")
    grid, scan = fileio.read_grid("grid_dir.csv"), fileio.read_scan("scan.csv")
    grid_arrays = parsed(grid.h, grid.spacing, grid.freq_axis, grid.direction)
    big = fileio.read_grid("grid_big.csv")
    big_arrays = parsed(big.h, big.spacing, big.freq_axis, big.direction)
    scan_arrays = parsed(scan.azimuth, scan.elevation, scan.noise_power, scan.samples,
                         scan.freq_axis)
    lines += [f"{sha(grid_arrays)}  read_grid grid_dir.csv",
              f"{sha(big_arrays)}  read_grid grid_big.csv",
              f"{sha(scan_arrays)}  read_scan scan.csv"]
    print("\n".join(lines))


if __name__ == "__main__":
    main()
