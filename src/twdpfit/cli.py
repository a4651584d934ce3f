"""Command-line front end.

Subcommands: fit, scan, spatial, ber, synth. All outputs are deterministic
given identical inputs and seeds, and all files are written atomically. A
command that fails leaves none of its output files.

Exit codes: 0 success, 2 input/parse error or a file that cannot be read or
written, 3 domain/estimation error, 4 internal numerical error. A ``scan``
direction whose data cannot be fitted (a domain, estimation or numerical
error, such as a g-test cell whose expected count is zero) does not fail the
command: it gets the marker ``failed``, its error message and a null report,
and the other directions are still written (exit 0). The only
environment variable honoured is TWDPFIT_LOG (debug|info|warning) for log
verbosity; any value that is not a logging level name means warning.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .errors import DomainError, EstimationError, NumericalError, ParseError, TwdpfitError
from .fading import FadingParams, rayleigh_cdf, rice_cdf, twdp_cdf
from .inference import (GridConfig, _check_test_options, estimate_omega, fit_envelopes,
                        partition_stride)
from .likelihood import get_table, table_reach
from .linksim import simulate_ber
from .measurement import average_corr, noise_mask, power_map
from .synth import PlaneWave, PlaneWaveScene, _check_field_bytes, sample_twdp, synth_field

log = logging.getLogger("twdpfit")

# the errors that mark one scan direction failed instead of failing the scan
_DIRECTION_ERRORS = (DomainError, EstimationError, NumericalError)


def _k_db(k: float) -> str:
    return f"{10.0 * math.log10(k):.2f} dB" if k > 0 else "-inf dB"


def _grid_from_args(args) -> GridConfig:
    return GridConfig(k_min=args.k_min, k_max=args.k_max,
                      k_step=args.k_step, delta_step=args.delta_step)


def _add_grid_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k-min", type=float, default=0.0, help="grid lower K bound (linear)")
    parser.add_argument("--k-max", type=float, default=1000.0, help="grid upper K bound (linear)")
    parser.add_argument("--k-step", type=float, default=0.05, help="K grid step")
    parser.add_argument("--delta-step", type=float, default=0.05, help="Delta grid step")
    parser.add_argument("--alpha", type=float, default=0.01, help="g-test significance level")
    parser.add_argument("--per-cell", type=int, default=10, help="observations per g-test cell")
    parser.add_argument("--stride", type=int, default=10,
                        help="every stride-th sample goes to the fit set")


def _print_report(report, label: str = "") -> None:
    head = f"[{label}] " if label else ""
    print(f"{head}omega_hat = {report.omega_hat:.6g}  "
          f"(n_fit={report.n_fit}, n_moment={report.n_moment})")
    for fit in (report.rice, report.twdp):
        extra = f", delta = {fit.delta_hat:.2f}" if fit.model == "twdp" else ""
        flag = "  [K at grid boundary]" if fit.boundary_hit else ""
        print(f"{head}{fit.model:>4}: K = {fit.k_hat:.4g} ({_k_db(fit.k_hat)}){extra}, "
              f"loglik = {fit.loglik:.4f}, AICc = {fit.aicc:.4f}{flag}")
    g = report.gtest
    print(f"{head}chosen = {report.chosen}; g-test: G = {g.statistic:.4f} vs "
          f"chi2({g.dof}) threshold {g.threshold:.4f} -> {g.verdict}")


def _overlay_table(report, values: np.ndarray) -> dict[str, np.ndarray]:
    fit = np.sort(values)
    scale = math.sqrt(report.omega_hat)
    x = fit / scale
    empirical = (np.arange(len(fit)) + 1.0) / len(fit)
    return {
        "envelope": fit,
        "empirical": empirical,
        "rice": rice_cdf(x, report.rice.k_hat, 1.0),
        "twdp": twdp_cdf(x, FadingParams(report.twdp.k_hat, report.twdp.delta_hat, 1.0)),
        "rayleigh": rayleigh_cdf(x, 1.0),
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_fit(args) -> int:
    values = fileio.read_envelopes(args.envelopes)
    env_set = partition_stride(values, args.stride)
    report = fit_envelopes(env_set, grid=_grid_from_args(args),
                           alpha=args.alpha, per_cell=args.per_cell)
    writes = [(fileio.write_report, args.output, report)]
    if args.overlay:
        writes.append((fileio.write_overlay, args.overlay,
                       _overlay_table(report, env_set.fit_values)))
    fileio.write_together(*writes)
    _print_report(report)
    return 0


def _cmd_scan(args) -> int:
    scan = fileio.read_scan(args.scan)
    # power_map raises if an above-margin direction cannot be partitioned; its
    # power is NaN below the margin and where estimate_omega fails
    power = power_map(scan, args.margin_db, args.stride)
    mask = noise_mask(scan, args.margin_db)
    grid = _grid_from_args(args)
    _check_test_options(args.alpha, args.per_cell)     # an option, not a direction, fails
    # build the table once, as far as the furthest direction with a power reads
    # it: each later extension would cost a fixed pass of its own. The NaN
    # directions fail, with their messages, in the loop below
    sets = (partition_stride(np.abs(scan.samples[i]), args.stride)
            for i in np.flatnonzero(~np.isnan(power)))
    reaches = [table_reach(s.fit_values / math.sqrt(estimate_omega(s))) for s in sets]
    if reaches:
        get_table(grid.k_values, grid.delta_values, x_max=max(reaches))
    records = []
    for i in range(scan.n_directions):
        az, el = float(scan.azimuth[i]), float(scan.elevation[i])
        record = {"azimuth": az, "elevation": el, "marker": "not_evaluated", "report": None}
        if mask[i]:
            try:
                env_set = partition_stride(np.abs(scan.samples[i]), args.stride)
                report = fit_envelopes(env_set, grid=grid,
                                       alpha=args.alpha, per_cell=args.per_cell)
            except _DIRECTION_ERRORS as exc:
                record.update(marker="failed", error=str(exc))
                log.warning("direction (%.1f, %.1f) failed: %s", az, el, exc)
            else:
                record.update(marker="rejected" if report.gtest.verdict == "rejected"
                              else report.chosen, report=fileio.report_to_dict(report))
                log.info("direction (%.1f, %.1f): %s", az, el, record["marker"])
        records.append(record)
    prefix = Path(args.out_prefix)
    power_table = {"azimuth": scan.azimuth, "elevation": scan.elevation,
                   "power_norm": power,     # NaN where masked or estimate_omega fails
                   "marker": [r["marker"] for r in records]}
    fileio.write_together(
        (fileio.write_power_map, prefix.with_suffix(".power.csv"), power_table),
        (fileio.write_json, prefix.with_suffix(".fits.json"),
         {"kind": "scan_fits", "directions": records}))
    evaluated = int(mask.sum())
    failed = sum(r["marker"] == "failed" for r in records)
    print(f"{evaluated}/{scan.n_directions} directions evaluated; "
          f"outputs at {prefix.with_suffix('.power.csv')} and {prefix.with_suffix('.fits.json')}"
          + (f"; {failed} failed" if failed else ""))
    return 0


def _cmd_spatial(args) -> int:
    grid = fileio.read_grid(args.grid)
    cmap = average_corr(grid, interp_factor=args.interp_factor)
    fileio.write_correlation_map(args.output, cmap)
    print(f"correlation map {cmap.values.shape[0]}x{cmap.values.shape[1]} "
          f"(lag step {cmap.lag_x[1] - cmap.lag_x[0]:.4g} wavelengths) -> {args.output}")
    return 0


def _cmd_ber(args) -> int:
    params = FadingParams(args.k, args.delta, args.omega)
    try:
        snr = np.array([float(s) for s in args.snr_db.split(",")])
    except ValueError:
        raise ParseError(f"bad --snr-db {args.snr_db!r}; expected comma-separated numbers")
    curve = simulate_ber(params, snr, args.n_symbols, args.seed)
    fileio.write_ber_curve(args.output, curve)
    for s, b in zip(curve.snr_db, curve.ber):
        print(f"SNR {s:6.1f} dB: BER = {b:.3e}")
    return 0


def _parse_wave(text: str) -> PlaneWave:
    # amplitude:dx,dy,dz[:phase_rad[:delay_ns]]
    try:
        parts = text.split(":")
        amp = float(parts[0])
        d = tuple(float(v) for v in parts[1].split(","))
        phase = float(parts[2]) if len(parts) > 2 else 0.0
        delay = float(parts[3]) * 1e-9 if len(parts) > 3 else 0.0
    except (ValueError, IndexError):
        raise ParseError(f"bad wave spec {text!r}; expected A:dx,dy,dz[:phase[:delay_ns]]")
    norm = math.sqrt(sum(v * v for v in d))
    if norm == 0:
        raise ParseError(f"bad wave spec {text!r}: zero direction")
    d = tuple(v / norm for v in d)
    return PlaneWave(amp, d, phase, delay)


def _cmd_synth(args) -> int:
    if args.what == "envelopes":
        params = FadingParams(args.k, args.delta, args.omega)
        samples = sample_twdp(params, args.n, args.seed)
        fileio.write_envelopes(args.output, samples.envelopes)
        print(f"{args.n} envelopes (K={args.k:g}, Delta={args.delta:g}, "
              f"Omega={args.omega:g}, seed={args.seed}) -> {args.output}")
        return 0
    # grid: the scene refuses one with no wave
    waves = [_parse_wave(w) for w in args.wave]
    try:
        nx, ny, nz = map(int, args.shape.split(","))
    except ValueError:
        raise ParseError("--shape must be nx,ny,nz")
    shape, n = (nx, ny, nz), 1
    if args.freqs:
        try:
            f0, df, n = args.freqs.split(",")
            f0, df, n = float(f0), float(df), int(n)
        except ValueError:
            raise ParseError("--freqs must be f0,df,count")
    _check_field_bytes(shape, n, written=True)      # before any array is made
    scene = PlaneWaveScene(
        waves=waves, wavelength=args.wavelength, shape=shape, spacing=args.spacing,
        freq_axis=f0 + df * np.arange(n) if args.freqs else None,
        diffuse_sigma2=args.diffuse_sigma2,
        position_jitter=args.jitter, seed=args.seed)
    grid = synth_field(scene)
    fileio.write_grid(args.output, grid)
    print(f"grid {shape} x {grid.shape[3]} freqs (spacing {args.spacing} wavelengths) "
          f"-> {args.output}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twdpfit",
        description="Rician vs TWDP fading identification and measurement processing")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one envelope file and decide the model")
    p_fit.add_argument("envelopes", help="envelope CSV, one value per line")
    p_fit.add_argument("-o", "--output", required=True, help="fit report JSON path")
    p_fit.add_argument("--overlay", help="optional CDF overlay table CSV path")
    _add_grid_options(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_scan = sub.add_parser("scan", help="per-direction power map and fits")
    p_scan.add_argument("scan", help="directional scan CSV (with JSON header sidecar)")
    p_scan.add_argument("-o", "--out-prefix", required=True,
                        help="output prefix for .power.csv and .fits.json")
    p_scan.add_argument("--margin-db", type=float, default=10.0,
                        help="noise floor margin in dB")
    _add_grid_options(p_scan)
    p_scan.set_defaults(func=_cmd_scan)

    p_spatial = sub.add_parser("spatial", help="averaged spatial correlation map")
    p_spatial.add_argument("grid", help="spatial grid CSV (with JSON header sidecar)")
    p_spatial.add_argument("-o", "--output", required=True, help="correlation CSV path")
    p_spatial.add_argument("--interp-factor", type=int, default=20,
                           help="lag grid refinement factor")
    p_spatial.set_defaults(func=_cmd_spatial)

    p_ber = sub.add_parser("ber", help="Monte Carlo 4-QAM BER curve")
    p_ber.add_argument("--k", type=float, required=True, help="K factor (linear)")
    p_ber.add_argument("--delta", type=float, default=0.0)
    p_ber.add_argument("--omega", type=float, default=1.0)
    p_ber.add_argument("--snr-db", default="0,10,20,30", help="comma-separated SNR points")
    p_ber.add_argument("--n-symbols", type=int, default=1_000_000)
    p_ber.add_argument("--seed", type=int, default=1)
    p_ber.add_argument("-o", "--output", required=True, help="BER CSV path")
    p_ber.set_defaults(func=_cmd_ber)

    p_synth = sub.add_parser("synth", help="generate synthetic input files")
    p_synth.add_argument("what", choices=["envelopes", "grid"])
    p_synth.add_argument("-o", "--output", required=True)
    p_synth.add_argument("--k", type=float, default=0.0, help="K factor (linear)")
    p_synth.add_argument("--delta", type=float, default=0.0)
    p_synth.add_argument("--omega", type=float, default=1.0)
    p_synth.add_argument("--n", type=int, default=100_000, help="number of envelope samples")
    p_synth.add_argument("--seed", type=int, default=1)
    p_synth.add_argument("--wave", action="append", default=[],
                         help="plane wave A:dx,dy,dz[:phase[:delay_ns]] (repeatable)")
    p_synth.add_argument("--shape", default="9,9,9", help="grid points nx,ny,nz")
    p_synth.add_argument("--spacing", type=float, default=0.35,
                         help="grid spacing in wavelengths")
    p_synth.add_argument("--wavelength", type=float, default=0.005,
                         help="reference wavelength in metres")
    p_synth.add_argument("--freqs", default="", help="frequency axis f0,df,count (Hz)")
    p_synth.add_argument("--diffuse-sigma2", type=float, default=0.0,
                         help="per-component diffuse variance added per point")
    p_synth.add_argument("--jitter", type=float, default=0.0,
                         help="uniform positional jitter in wavelengths")
    p_synth.set_defaults(func=_cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # this call's level and stderr, on a package handler for this call only
    level = logging.getLevelName(os.environ.get("TWDPFIT_LOG", "warning").upper())
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    previous = log.level
    log.setLevel(level if isinstance(level, int) else logging.WARNING)
    log.addHandler(handler)
    try:
        return args.func(args)
    except TwdpfitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:      # readers raise ParseError: an output cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        log.removeHandler(handler)
        log.setLevel(previous)


if __name__ == "__main__":
    sys.exit(main())
