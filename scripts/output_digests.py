#!/usr/bin/env python3
"""sha256 digests of everything the twdpfit CLI writes, on a fixed, seeded
input set.

Runs, in one process and inside OUT_DIR: `synth envelopes`, `fit` with an
overlay on that set and on a second set with two fit-class spikes above the
table's envelope range, `scan` on three directions (clean, spiked and below
the noise floor), `synth grid`, `spatial` and `ber`. It then prints one
"sha256  name" line per file in OUT_DIR, one per command's standard output,
and one per density table's `log_rows` (k_max 30 and 100). Two source trees
wrote byte-identical outputs exactly when their lines are equal:

    PYTHONPATH=src python scripts/output_digests.py /tmp/a > a.txt
    PYTHONPATH=../other/src python scripts/output_digests.py /tmp/b > b.txt
    diff a.txt b.txt
"""

import argparse
import contextlib
import hashlib
import io
import os
from pathlib import Path

import numpy as np

from twdpfit import cli, fileio
from twdpfit.fading import FadingParams
from twdpfit.inference import GridConfig
from twdpfit.likelihood import get_table
from twdpfit.measurement import DirectionalScan
from twdpfit.synth import sample_twdp

K30 = ["--k-max", "30"]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_inputs() -> None:
    """The spiked envelope file and the three-direction scan."""
    values = sample_twdp(FadingParams(4.0, 0.5, 1.0), 20_000, 40).envelopes
    values[[9, 19]] = [6.0, 7.5]               # fit class at the default stride 10
    fileio.write_envelopes("spiked.csv", values)
    n_freq = 2000
    clean = sample_twdp(FadingParams(8.0, 0.0, 1.0), n_freq, 41).samples
    spiked = sample_twdp(FadingParams(3.0, 0.7, 1.0), n_freq, 42).samples
    spiked[[9, 29]] *= 12.0
    weak = 1e-4 * sample_twdp(FadingParams(0.0), n_freq, 43).samples
    fileio.write_scan("scan.csv", DirectionalScan(
        azimuth=[10.0, 120.0, 200.0], elevation=[90.0, 80.0, 90.0],
        samples=np.stack([clean, spiked, weak]), noise_power=np.full(3, 1e-4)))


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
        "scan": ["scan", "scan.csv", "-o", "scan_out", *K30],
        "synth_grid": ["synth", "grid", "-o", "grid.csv", "--shape", "9,9,1",
                       "--wave", "1:1,0,0:0:37", "--wave", "0.8:-0.5,0.866,0:1:61",
                       "--freqs", "60e9,1e6,16", "--diffuse-sigma2", "0.05",
                       "--jitter", "0.01", "--seed", "3"],
        "spatial": ["spatial", "grid.csv", "-o", "corr.csv", "--interp-factor", "4"],
        "ber": ["ber", "--k", "10", "--delta", "0.5", "--snr-db", "0,10,20,30",
                "--n-symbols", "200000", "--seed", "9", "-o", "ber.csv"],
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
    lines += [f"{sha(p.read_bytes())}  {p.name}" for p in sorted(Path().iterdir())]
    for k_max in (30, 100):
        grid = GridConfig(k_max=k_max)
        table = get_table(grid.k_values, grid.delta_values)
        lines.append(f"{sha(table.log_rows.tobytes())}  log_rows k_max {k_max}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
