"""twdpfit benchmark: fresh CLI processes, a warm batch-fit process and the
table-free commands, checked against the references in oracle.py.

Usage (from the repository root):

    python3 perfbench/run.py --workload cold-cli --seed 1 --seconds 10 --trace 0

Workloads: cold-cli, warm-fits, table-free (see README.md). A run sets
up, then repeats the workload's batch on the same inputs until
``--seconds`` have passed (at least one batch), so every run attempts
whole batches. The inputs come from ``--seed`` alone, except the edge-fit
file, whose seed is fixed.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` every command runs through
launch.py (and the warm worker with its tracer) and the object holds the
per-layer metrics instead.

The program runs only in subprocesses (``python3 -m twdpfit.cli`` with
``src`` on PYTHONPATH); this process never imports twdpfit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from scipy import stats

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_run"

# CLI commands whose process wall time is a per-layer metric
COMMANDS = ["fit", "scan", "spatial", "ber", "synth"]
# timed layer functions; each is reported as seconds spent in it per batch
# (inclusive of the layers it calls) plus calls per batch
LAYER_TIMES = [
    "likelihood.get_table", "likelihood.sample_weights", "likelihood.loglik_surface",
    "inference.ml_fit", "inference.fit_envelopes", "inference.g_test",
    "fading.twdp_cdf", "fading.rice_cdf",
    "fileio.read_envelopes", "fileio.write_report", "fileio.write_overlay",
    "fileio.read_scan", "measurement.power_map",
    "fileio.read_grid", "measurement.average_corr", "fileio.write_correlation_map",
    "fileio.write_grid", "synth.synth_field", "fileio.write_envelopes", "synth.sample_twdp",
    "linksim.simulate_ber",
]
# per-batch counts and their units
LAYER_COUNTS = {
    "likelihood.table_rows": "count", "likelihood.tables_built": "count",
    "likelihood.table_mb": "MB", "fading.twdp_cdf_points": "count",
    "linksim.symbols": "count", "fileio.bytes_read": "B", "fileio.bytes_written": "B",
}

ALPHA = 0.01
PER_CELL = 10
STRIDE = 10
K_STEP = 0.05
D_STEP = 0.05
EDGE_SEED = 3                 # the edge-fit file does not depend on --seed
EDGE_FAULT = "is not of type 'boolean'"

# cold-cli: fresh fits and a scan on the reduced-K grid
FIT_K_MAX = 30.0
FIT_FILES = [
    {"name": "twdp", "k": 10.0, "delta": 0.9, "n": 100_000, "overlay": True},
    {"name": "rice", "k": 4.0, "delta": 0.0, "n": 100_000, "overlay": True},
    # strong line of sight far above k_max: the argmax sits on the edge
    {"name": "edge", "k": 300.0, "delta": 0.3, "n": 100_000, "overlay": False, "edge": True},
]
# Evaluated scan directions cycle through these (K, Delta) truths: line of
# sight, reflection pair, misaligned line of sight. All stay far from both
# ends of the K grid.
SCAN = {"k_max": 30.0, "n_dirs": 36, "below": [4, 13, 22, 31], "n_freq": 10_000,
        "truths": [(6.0, 0.2), (5.0, 0.8), (3.0, 0.4)],
        # direction -> fit-class spike, in units of the direction's root power
        "spikes": {1: 5.0, 2: 6.0}}
# warm-fits: one process, one table, a sweep of envelope sets. Only
# two-wave truths that AICc decides as TWDP on every seed: on Rician sets
# the choice flips between seeds, and each flip changes the g-test cost
# of a pass by about a quarter.
WARM = {"k_max": 100.0, "n": 100_000, "truths": [
    (4.0, 0.9), (10.0, 0.5), (10.0, 0.9), (10.0, 1.0), (30.0, 0.5), (30.0, 0.9)]}
# table-free: synth grid, spatial on it, synth envelopes, ber
GRID = {"shape": (9, 9, 9), "n_freq": 64, "q": 20, "wavelength": 0.005, "spacing": 0.35}
SYNTH_ENV = {"k": 10.0, "delta": 0.9, "n": 100_000}
BER = {"k": 10.0, "delta": 1.0, "snr_db": [0.0, 10.0, 20.0, 30.0], "n": 1_000_000}

# fresh set-up probes per run of cold-cli and table-free
SETUP_PROBES = 3
# workload -> K grid of the table its set-up builds (None: no table)
WORKLOADS = {"cold-cli": FIT_K_MAX, "warm-fits": WARM["k_max"], "table-free": None}


# ---------------------------------------------------------------------------
# files in the program's formats
# ---------------------------------------------------------------------------

def write_envelope_file(path: Path, values: np.ndarray) -> None:
    path.write_text("envelope\n" + "\n".join(map(repr, values.tolist())) + "\n")


def write_scan_file(path: Path, samples: np.ndarray, noise: np.ndarray) -> None:
    n_dirs, n_freq = samples.shape
    header = {"kind": "directional_scan", "n_freq": n_freq, "freq_axis": None,
              "directions": [{"azimuth": 10.0 * i, "elevation": 90.0,
                              "noise_power": float(noise[i])} for i in range(n_dirs)]}
    path.with_suffix(".json").write_text(json.dumps(header, indent=2) + "\n")
    re, im = samples.real.tolist(), samples.imag.tolist()
    rows = ["idir,ifreq,re,im"]
    for i in range(n_dirs):
        ri, ii = re[i], im[i]
        rows.extend(f"{i},{j},{ri[j]!r},{ii[j]!r}" for j in range(n_freq))
    path.write_text("\n".join(rows) + "\n")


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as handle:
        names = handle.readline().strip().split(",")
    return names, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# running the program
# ---------------------------------------------------------------------------

class Layers:
    """Per-layer totals over the traced processes of a run."""

    def __init__(self):
        self.seconds = {name: 0.0 for name in LAYER_TIMES}
        self.calls = {name: 0 for name in LAYER_TIMES}
        self.counts = {name: 0.0 for name in LAYER_COUNTS}
        self.imports: list[float] = []
        self.commands = {name: [0.0, 0] for name in COMMANDS}

    def command(self, name: str, wall: float) -> None:
        self.commands[name][0] += wall
        self.commands[name][1] += 1

    def add(self, trace: dict) -> None:
        if trace.get("import_s") is not None:
            self.imports.append(trace["import_s"])
        for name, start, end, _parent in trace["spans"]:
            if name in self.seconds:
                self.seconds[name] += end - start
                self.calls[name] += 1
        for name, value in trace["counts"].items():
            self.counts[name] += value

    def metrics(self, batches: int) -> dict:
        """Per-layer metrics per batch; the import time is per process."""
        out = {"cli.import_s": (statistics.fmean(self.imports), "s"),
               "cli.import_calls": (len(self.imports) / batches, "count")}
        for name, (wall, calls) in self.commands.items():
            out[f"cli.{name}_s"] = (wall / batches, "s")
            out[f"cli.{name}_calls"] = (calls / batches, "count")
        for name in LAYER_TIMES:
            out[f"{name}_s"] = (self.seconds[name] / batches, "s")
            out[f"{name}_calls"] = (self.calls[name] / batches, "count")
        for name, unit in LAYER_COUNTS.items():
            out[name] = (self.counts[name] / batches, unit)
        return out


class Program:
    """Starts twdpfit processes one at a time and records their cost."""

    def __init__(self, work: Path, trace: bool):
        self.work = work
        self.trace = trace
        self.peak_rss_mb = 0.0
        self.layers = Layers()
        self.env = dict(os.environ)
        self.env.pop("TWDPFIT_LOG", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self._n = 0

    def _trace_file(self) -> Path:
        self._n += 1
        return self.work / f"trace{self._n}.json"

    def _finish(self, proc: subprocess.Popen, start: float) -> tuple[int, float]:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        return proc.returncode, wall

    def cli(self, *args: str) -> tuple[int, float, str]:
        """Run one twdpfit command; returns (exit code, wall seconds, stderr)."""
        trace = self._trace_file() if self.trace else None
        if trace is None:
            cmd = [sys.executable, "-m", "twdpfit.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH / "launch.py"), str(trace), "--", *args]
        with open(self.work / "stdout.txt", "wb") as out, \
                open(self.work / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.work, env=self.env)
            code, wall = self._finish(proc, start)
        if trace is not None and trace.exists():
            self.layers.add(json.loads(trace.read_text()))
        return code, wall, (self.work / "stderr.txt").read_text()

    def warm(self, config: dict, traced: bool = True) -> tuple[float, dict]:
        """Run the warm worker; returns (seconds from spawn to import done,
        its result). A traced run traces it unless ``traced`` is false."""
        cfg, result = self.work / "warm_config.json", self.work / "warm_result.json"
        cfg.write_text(json.dumps(config))
        result.unlink(missing_ok=True)
        trace = self._trace_file() if self.trace and traced else None
        cmd = [sys.executable, str(BENCH / "warm.py"), str(cfg), str(result)]
        cmd += [str(trace)] if trace is not None else []
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=self.work, env=self.env)
        line = proc.stdout.readline()
        imported = time.perf_counter() - start
        proc.stdout.read()
        proc.stdout.close()
        code, _ = self._finish(proc, start)
        if code != 0 or line.strip() != b"imported" or not result.exists():
            raise RuntimeError(f"warm worker failed with exit code {code}")
        if trace is not None:
            self.layers.add(json.loads(trace.read_text()))
        return imported, json.loads(result.read_text())


# ---------------------------------------------------------------------------
# checks shared by the fit paths
# ---------------------------------------------------------------------------

class Checker:
    def __init__(self):
        self.problems: list[str] = []
        self._bounds: dict[tuple, tuple[float, float]] = {}

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def close(self, got: float, want: float, rel: float, message: str) -> None:
        ok = math.isclose(got, want, rel_tol=rel, abs_tol=rel)
        self.expect(ok, f"{message}: got {float(got)!r}, expected {float(want)!r}")

    def bounds(self, k: float, delta: float, n: int) -> tuple[float, float]:
        key = (k, delta, n)
        if key not in self._bounds:
            self._bounds[key] = oracle.fisher_bounds(k, delta, n)
        return self._bounds[key]

    def report(self, label: str, rep: dict, values: np.ndarray, k_max: float,
               truth: tuple[float, float] | None) -> None:
        """One fit report against the data it was fitted on.

        ``values`` are the envelopes in file order; the fit class is every
        STRIDE-th one. ``truth`` enables the Cramer-Rao recovery check."""
        fit = values[STRIDE - 1::STRIDE]
        moment = np.delete(values, np.s_[STRIDE - 1::STRIDE])
        n = len(fit)
        self.expect(rep["n_fit"] == n and rep["n_moment"] == len(moment),
                    f"{label}: class sizes {rep['n_fit']}/{rep['n_moment']}")
        omega = float(np.mean(moment ** 2))
        self.close(rep["omega_hat"], omega, 1e-12, f"{label}: omega_hat")
        rice, twdp = rep["rice"], rep["twdp"]
        self.expect(twdp["loglik"] >= rice["loglik"], f"{label}: twdp loglik below rice")
        self.expect(rice["delta_hat"] == 0.0, f"{label}: rice delta_hat {rice['delta_hat']}")
        for model, order in (("rice", 1), ("twdp", 2)):
            fitted = rep[model]
            self.close(fitted["aicc"], oracle.aicc(fitted["loglik"], order, n), 1e-12,
                       f"{label}: {model} aicc")
            self.expect(0.0 <= fitted["k_hat"] <= k_max + 1e-9,
                        f"{label}: k_hat {fitted['k_hat']} off the grid")
        want = "twdp" if oracle.aicc(twdp["loglik"], 2, n) < oracle.aicc(rice["loglik"], 1, n) \
            else "rice"
        self.expect(rep["chosen"] == want, f"{label}: chose {rep['chosen']}, AICc says {want}")

        chosen = rep[rep["chosen"]]
        x = np.sort(fit) / math.sqrt(rep["omega_hat"])
        g, m = oracle.g_statistic(
            x, PER_CELL, lambda e: oracle.twdp_cdf(e, chosen["k_hat"], chosen["delta_hat"]))
        gt = rep["gtest"]
        e = 2 if rep["chosen"] == "rice" else 3
        self.expect(abs(gt["statistic"] - g) <= 1e-6 * n,
                    f"{label}: G {gt['statistic']!r}, oracle {g!r}")
        self.expect(gt["n_cells"] == m and gt["dof"] == m - e,
                    f"{label}: cells {gt['n_cells']} dof {gt['dof']}")
        self.close(gt["threshold"], float(stats.chi2.ppf(1.0 - ALPHA, m - e)), 1e-9,
                   f"{label}: g-test threshold")
        verdict = "rejected" if gt["statistic"] > gt["threshold"] else "accepted"
        self.expect(gt["verdict"] == verdict, f"{label}: verdict {gt['verdict']}")

        if truth is not None:
            k, delta = truth
            sk, sd = self.bounds(k, delta, n)
            est = twdp if delta > 0 else rice
            self.expect(abs(est["k_hat"] - k) <= 6.0 * sk + 2 * K_STEP,
                        f"{label}: K_hat {est['k_hat']} vs K {k} (sigma_CRB {sk:.3g})")
            if delta > 0:
                self.expect(abs(est["delta_hat"] - delta) <= 6.0 * sd + 2 * D_STEP,
                            f"{label}: Delta_hat {est['delta_hat']} vs {delta} "
                            f"(sigma_CRB {sd:.3g})")


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

class Bench:
    """One run of one workload: inputs, set-up, batches and their checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.program = Program(work, trace)
        self.check = Checker()
        self.samples: dict[str, list[float]] = {"batch_s": [], "setup_s": []}
        self.attempted = 0
        self.failed = 0
        self.batches = 0
        self.digests: dict[str, str] = {}
        self.index = list(WORKLOADS).index(workload)

    def rng(self, part: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.index, part])

    def once(self, key: str, *paths: Path) -> bool:
        """True the first time ``key`` is seen; later batches must reproduce
        the same output bytes."""
        d = digest(*paths)
        if key in self.digests:
            self.check.expect(self.digests[key] == d, f"{key}: output differs between batches")
            return False
        self.digests[key] = d
        return True

    def run_cli(self, command: str, *args: str, known_fault: str | None = None
                ) -> tuple[bool, float]:
        """One counted operation; a nonzero exit counts as failed, and is
        reported unless its stderr shows ``known_fault``."""
        self.attempted += 1
        code, wall, err = self.program.cli(command, *args)
        self.program.layers.command(command, wall)
        if code != 0:
            self.failed += 1
            if not (known_fault and code == 1 and known_fault in err):
                print(f"{command} {' '.join(args)}: exit {code}\n{err[-2000:]}",
                      file=sys.stderr)
        return code == 0, wall

    def run(self) -> None:
        if self.workload == "warm-fits":
            self.warm_fits()
            return
        if self.workload == "cold-cli":
            self.prepare_cold()
            batch = self.cold_batch
        else:
            self.prepare_table_free()
            batch = self.table_free_batch
        for _ in range(SETUP_PROBES):
            imported, result = self.program.warm(
                {"k_max": WORKLOADS[self.workload], "builds": 1}, traced=False)
            self.samples["setup_s"].append(imported + sum(result["builds"]))
        start = time.perf_counter()
        while True:
            self.samples["batch_s"].append(batch())
            self.batches += 1
            if time.perf_counter() - start >= self.seconds:
                break

    # -- cold-cli ----------------------------------------------------------

    def prepare_cold(self) -> None:
        self.fit_files = []
        for i, spec in enumerate(FIT_FILES):
            rng = np.random.default_rng(EDGE_SEED) if spec.get("edge") else self.rng(10 + i)
            values = oracle.envelopes(rng, spec["n"], spec["k"], spec["delta"])
            path = self.work / f"{spec['name']}.csv"
            write_envelope_file(path, values)
            self.fit_files.append((spec, path, values))

        rng = self.rng(20)
        n_dirs, n_freq = SCAN["n_dirs"], SCAN["n_freq"]
        samples = np.empty((n_dirs, n_freq), dtype=complex)
        noise = np.empty(n_dirs)
        evaluated = 0
        for i in range(n_dirs):
            power = 10.0 ** (-0.1 * (i % 7))
            if i in SCAN["below"]:
                samples[i] = oracle.complex_samples(rng, n_freq, 0.0, 0.0, 1e-3 * power)
                noise[i] = 1e-3 * power          # 0 dB, below the 10 dB margin
                continue
            k, d = SCAN["truths"][evaluated % len(SCAN["truths"])]
            evaluated += 1
            samples[i] = oracle.complex_samples(rng, n_freq, k, d, power)
            noise[i] = 1e-4 * power              # 40 dB above it
            if i in SCAN["spikes"]:
                # one fit-class sample beyond the table's envelope range
                samples[i, STRIDE * (n_freq // (2 * STRIDE)) + STRIDE - 1] = \
                    SCAN["spikes"][i] * math.sqrt(power)
        self.scan_path = self.work / "scan.csv"
        write_scan_file(self.scan_path, samples, noise)
        self.scan_samples, self.scan_noise = samples, noise

    def cold_batch(self) -> float:
        total = 0.0
        for spec, path, values in self.fit_files:
            total += self.fit(spec, path, values)
        return total + self.scan()

    def fit(self, spec: dict, path: Path, values: np.ndarray) -> float:
        name = spec["name"]
        out = self.work / f"{name}.json"
        overlay = self.work / f"{name}.overlay.csv"
        out.unlink(missing_ok=True)
        args = [path.name, "-o", out.name, "--k-max", repr(FIT_K_MAX)]
        if spec["overlay"]:
            args += ["--overlay", overlay.name]
        edge = spec.get("edge", False)
        ok, wall = self.run_cli("fit", *args, known_fault=EDGE_FAULT if edge else None)
        files = [out] + ([overlay] if spec["overlay"] else [])
        if not ok or not self.once(f"fit {name}", *files):
            return wall
        rep = json.loads(out.read_text())
        if not edge:
            self.check.report(f"fit {name}", rep, values, FIT_K_MAX, (spec["k"], spec["delta"]))
            if spec["overlay"]:
                self.check_overlay(name, overlay, rep, values)
            return wall
        # with the boundary_hit fault mended, the edge fit must say so
        twdp = rep["twdp"]
        self.check.expect(twdp["k_hat"] == FIT_K_MAX and twdp["boundary_hit"] is True,
                          f"edge fit: twdp fit {twdp}")
        for model in ("rice", "twdp"):
            if rep[model]["k_hat"] == FIT_K_MAX:
                self.check.expect(rep[model]["boundary_hit"] is True,
                                  f"edge fit: {model} K_hat at k_max without boundary_hit")
        self.check.report("edge fit", rep, values, FIT_K_MAX, None)
        return wall

    def check_overlay(self, name: str, path: Path, rep: dict, values: np.ndarray) -> None:
        names, table = read_csv(path)
        label = f"fit {name} overlay"
        ok = names == ["envelope", "empirical", "rice", "twdp", "rayleigh"]
        self.check.expect(ok, f"{label}: columns {names}")
        if not ok:
            return
        fit = np.sort(values[STRIDE - 1::STRIDE])
        n = len(fit)
        self.check.expect(table.shape[0] == n and np.array_equal(table[:, 0], fit),
                          f"{label}: envelope column is not the fit class, bit for bit")
        self.check.expect(np.array_equal(table[:, 1], (np.arange(n) + 1.0) / n),
                          f"{label}: empirical column")
        for j in (2, 3, 4):
            col = table[:, j]
            self.check.expect(bool(np.all(np.diff(col) >= 0) and col[0] >= 0 and col[-1] <= 1),
                              f"{label}: {names[j]} CDF not nondecreasing in [0, 1]")
        x = fit / math.sqrt(rep["omega_hat"])
        pick = np.linspace(0, n - 1, 64).astype(int)
        tw = oracle.twdp_cdf(x[pick], rep["twdp"]["k_hat"], rep["twdp"]["delta_hat"])
        ri = oracle.twdp_cdf(x[pick], rep["rice"]["k_hat"], 0.0)
        self.check.expect(np.max(np.abs(table[pick, 3] - tw)) <= 1e-9, f"{label}: twdp column")
        self.check.expect(np.max(np.abs(table[pick, 2] - ri)) <= 1e-9, f"{label}: rice column")
        self.check.expect(np.max(np.abs(table[:, 4] + np.expm1(-x * x))) <= 1e-12,
                          f"{label}: rayleigh column")

    def scan(self) -> float:
        prefix = self.work / "scan_out"
        power, fits = prefix.with_suffix(".power.csv"), prefix.with_suffix(".fits.json")
        power.unlink(missing_ok=True)
        ok, wall = self.run_cli("scan", self.scan_path.name, "-o", prefix.name,
                                   "--k-max", repr(SCAN["k_max"]))
        if ok and self.once("scan", power, fits):
            self.check_scan(power, fits)
        return wall

    def check_scan(self, power: Path, fits: Path) -> None:
        label = "scan"
        lines = power.read_text().splitlines()
        records = json.loads(fits.read_text())["directions"]
        n_dirs = len(self.scan_noise)
        ok = (lines[0] == "azimuth,elevation,power_norm,marker"
              and len(lines) == n_dirs + 1 and len(records) == n_dirs)
        self.check.expect(ok, f"{label}: {len(lines) - 1} power rows, {len(records)} records")
        if not ok:
            return
        mean_power = np.mean(np.abs(self.scan_samples) ** 2, axis=1)
        above = mean_power >= self.scan_noise * 10.0
        self.check.expect(set(np.nonzero(~above)[0]) == set(SCAN["below"]),
                          f"{label}: the generated below-margin directions moved")
        env = np.abs(self.scan_samples)
        omega = np.array([np.mean(np.delete(e, np.s_[STRIDE - 1::STRIDE]) ** 2) for e in env])
        omega_max = omega[above].max()
        for i, (line, rec) in enumerate(zip(lines[1:], records)):
            az, el, pn, marker = line.split(",")
            self.check.expect(float(az) == 10.0 * i and float(el) == 90.0
                              and rec["azimuth"] == 10.0 * i, f"{label}: direction {i} angles")
            if not above[i]:
                self.check.expect(marker == "not_evaluated" and pn == "nan"
                                  and rec["report"] is None,
                                  f"{label}: direction {i} below the margin but {marker}")
                continue
            rep = rec["report"]
            self.check.expect(rep is not None, f"{label}: direction {i} not evaluated")
            if rep is None:
                continue
            self.check.close(float(pn), omega[i] / omega_max, 1e-12,
                             f"{label}: direction {i} power_norm")
            want = "rejected" if rep["gtest"]["verdict"] == "rejected" else rep["chosen"]
            self.check.expect(marker == want == rec["marker"],
                              f"{label}: direction {i} marker {marker}")
            self.check.report(f"{label} direction {i}", rep, env[i], SCAN["k_max"], None)

    # -- warm-fits ---------------------------------------------------------

    def warm_fits(self) -> None:
        config = {"k_max": WARM["k_max"], "builds": 3, "n": WARM["n"],
                  "truths": WARM["truths"], "seed": [self.seed, self.index, 40],
                  "seconds": self.seconds}
        imported, result = self.program.warm(config)
        self.samples["setup_s"].append(imported + statistics.median(result["builds"]))
        self.attempted += len(WARM["truths"]) * len(result["passes"])
        self.batches = len(result["passes"])
        self.samples["batch_s"].extend(result["passes"])
        self.check.expect(result["repeatable"], "warm fits: a later pass differs from the first")
        rng = np.random.default_rng(config["seed"])
        for (k, d), rep in zip(WARM["truths"], result["reports"]):
            values = oracle.envelopes(rng, WARM["n"], k, d)
            self.check.report(f"warm fit K={k} Delta={d}", rep, values, WARM["k_max"], (k, d))

    # -- table-free --------------------------------------------------------

    def prepare_table_free(self) -> None:
        rng = self.rng(30)
        self.waves = []
        for amp, tau in ((1.0, 37e-9), (0.8, 61e-9)):
            az = rng.uniform(0.0, 2.0 * math.pi)
            d = (math.cos(az), math.sin(az), 0.0)
            self.waves.append((amp, d, float(rng.uniform(0.0, 2.0 * math.pi)), tau))

    def table_free_batch(self) -> float:
        shape, nf, q = GRID["shape"], GRID["n_freq"], GRID["q"]
        wavelength, spacing = GRID["wavelength"], GRID["spacing"]
        f0 = 299_792_458.0 / wavelength
        wave_args = []
        for amp, d, phase, tau in self.waves:
            wave_args += ["--wave", f"{amp!r}:{d[0]!r},{d[1]!r},{d[2]!r}:{phase!r}:{tau * 1e9!r}"]
        grid_path = self.work / "grid.csv"
        ok, wall_grid = self.run_cli(
            "synth", "grid", "-o", grid_path.name, *wave_args,
            "--shape", ",".join(map(str, shape)), "--wavelength", repr(wavelength),
            "--spacing", repr(spacing), "--freqs", f"{f0!r},1000000.0,{nf}")
        total = wall_grid
        if ok:
            h = self.check_grid(grid_path, shape, nf, spacing, wavelength, f0)
            corr = self.work / "corr.csv"
            ok, wall = self.run_cli("spatial", grid_path.name, "-o", corr.name,
                                       "--interp-factor", str(q))
            total += wall
            if ok and h is not None and self.once("spatial", corr, corr.with_suffix(".json")):
                self.check_corr(corr, h, q, spacing)

        env_path = self.work / "synth_env.csv"
        ok, wall = self.run_cli(
            "synth", "envelopes", "-o", env_path.name, "--k", repr(SYNTH_ENV["k"]),
            "--delta", repr(SYNTH_ENV["delta"]), "--n", str(SYNTH_ENV["n"]),
            "--seed", str(1000 + self.seed))
        total += wall
        if ok and self.once("synth envelopes", env_path):
            self.check_synth_envelopes(env_path, SYNTH_ENV)

        ber_path = self.work / "ber.csv"
        ok, wall = self.run_cli(
            "ber", "--k", repr(BER["k"]), "--delta", repr(BER["delta"]),
            "--snr-db", ",".join(map(repr, BER["snr_db"])), "--n-symbols", str(BER["n"]),
            "--seed", str(2000 + self.seed), "-o", ber_path.name)
        total += wall
        if ok and self.once("ber", ber_path, ber_path.with_suffix(".json")):
            self.check_ber(ber_path, BER)
        return total

    def check_synth_envelopes(self, path: Path, spec: dict) -> None:
        names, table = read_csv(path)
        values = table[:, 0]
        n = spec["n"]
        self.check.expect(names == ["envelope"] and len(values) == n and bool(np.all(values >= 0)),
                          f"synth envelopes: header {names}, {len(values)} values")
        grid, cdf = oracle.twdp_cdf_grid(spec["k"], spec["delta"])
        ks = stats.kstest(values, lambda r: np.interp(r, grid, cdf))
        self.check.expect(ks.pvalue > 1e-6, f"synth envelopes: KS p-value {ks.pvalue:.2e} "
                                            f"against the oracle TWDP CDF")
        p2 = values ** 2
        self.check.expect(abs(p2.mean() - 1.0) <= 6.0 * p2.std() / math.sqrt(n),
                          f"synth envelopes: mean power {p2.mean()}")

    def check_grid(self, path: Path, shape, nf, spacing, wavelength, f0):
        """The synthesized grid against the plane-wave sum; returns the grid
        as read back, or None."""
        header = json.loads(path.with_suffix(".json").read_text())
        _, data = read_csv(path)
        label = "synth grid"
        ok = header["shape"] == [*shape, nf] and data.shape == (math.prod(shape) * nf, 6)
        self.check.expect(ok, f"{label}: shape {header['shape']}, rows {data.shape}")
        if not ok:
            return None
        idx = data[:, :4].astype(int)
        h = np.zeros((*shape, nf), dtype=complex)
        h[idx[:, 0], idx[:, 1], idx[:, 2], idx[:, 3]] = data[:, 4] + 1j * data[:, 5]
        freqs = f0 + 1e6 * np.arange(nf)
        want = oracle.plane_wave_field(self.waves, shape, spacing, wavelength, freqs)
        err = float(np.max(np.abs(h - want)))
        self.check.expect(err <= 1e-9, f"{label}: off the plane-wave sum by {err:.2e}")
        self.check.expect(np.allclose(header["freq_axis"], freqs, rtol=1e-15, atol=0),
                          f"{label}: frequency axis")
        return h

    def check_corr(self, path: Path, h: np.ndarray, q: int, spacing: float) -> None:
        values = np.loadtxt(path, delimiter=",", ndmin=2)
        header = json.loads(path.with_suffix(".json").read_text())
        nx, ny = h.shape[:2]
        label = "spatial"
        ok = values.shape == (2 * (nx - 1) * q + 1, 2 * (ny - 1) * q + 1)
        self.check.expect(ok, f"{label}: map shape {values.shape}")
        if not ok:
            return
        err = float(np.max(np.abs(values[::q, ::q] - oracle.direct_corr(h))))
        self.check.expect(err <= 1e-10, f"{label}: integer lags off the direct sum by {err:.2e}")
        lag_x = np.asarray(header["lag_x"])
        self.check.expect(np.allclose(lag_x, (np.arange(len(lag_x)) - (nx - 1) * q)
                                      * spacing / q, rtol=0, atol=1e-12), f"{label}: lag axis")

    def check_ber(self, path: Path, spec: dict) -> None:
        names, table = read_csv(path)
        meta = json.loads(path.with_suffix(".json").read_text())
        label = "ber"
        self.check.expect(names == ["snr_db", "ber"] and table.shape == (len(spec["snr_db"]), 2)
                          and np.array_equal(table[:, 0], spec["snr_db"]),
                          f"{label}: table {names} {table.shape}")
        self.check.expect(meta["n_symbols"] == spec["n"] and meta["k"] == spec["k"]
                          and meta["delta"] == spec["delta"], f"{label}: sidecar {meta}")
        n = spec["n"]
        for snr, ber in table:
            p = oracle.qam4_ber(spec["k"], spec["delta"], snr)
            se = math.sqrt(p * (1.0 - p) / n)
            self.check.expect(abs(ber - p) <= 5.0 * se,
                              f"{label}: {snr} dB BER {ber:.4e}, oracle {p:.4e} "
                              f"(standard error {se:.1e})")

    # -- results -----------------------------------------------------------

    def end_to_end(self) -> dict:
        return {"batch_s": (statistics.median(self.samples["batch_s"]), "s"),
                "setup_s": (statistics.median(self.samples["setup_s"]), "s"),
                "peak_rss_mb": (self.program.peak_rss_mb, "MB")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (SRC / "twdpfit" / "cli.py").is_file():
        print(f"error: {SRC / 'twdpfit'} not found; run from a twdpfit checkout",
              file=sys.stderr)
        return 2

    problems = oracle.self_check()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
        bench.run()
        problems += bench.check.problems
        e2e = bench.end_to_end()
        if args.trace:
            metrics = bench.program.layers.metrics(bench.batches)
            print("traced wall times: " + json.dumps({k: v for k, (v, _) in e2e.items()}),
                  file=sys.stderr)
        else:
            metrics = e2e
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{bench.batches} batch(es), {bench.attempted} operations, {bench.failed} failed",
          file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
