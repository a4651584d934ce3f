"""Ground-truth generators: complex-baseband TWDP sampling and synthetic
plane-wave fields on spatial grids.

Randomness comes from the counter-based Philox generator keyed by the user
seed, so streams are reproducible across platforms and runs. Gaussian draws
use the Box-Muller transform on open-interval uniforms (1 - U in (0, 1]
avoids log(0)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fading import FadingParams, specular_amplitudes
from .inference import _freeze
from .measurement import SPEED_OF_LIGHT, SpatialGrid

__all__ = [
    "MAX_DRAW_BYTES",
    "ComplexSampleSet",
    "PlaneWave",
    "PlaneWaveScene",
    "sample_twdp",
    "synth_field",
]


# Bytes a Monte Carlo draw may hold at its peak, 2e9: a quarter of an 8 GB
# host. sample_twdp holds 56 bytes per sample (two phases, the Gaussian pair,
# a term vector and the complex output) and a BER point 58 per symbol (the
# channel, noise and estimate buffers and the bits), counted as _DRAW_BYTES
# each, so a draw takes at most 31.25 M samples, or 31.25 M symbols summed
# over the BER points in flight; a larger one is refused before any array
# is made. synth_field holds up to 96 bytes per lattice point (coordinates,
# positions, jitter and one tone's phase terms) and 48 per (point, tone)
# entry (the field and its diffuse Gaussian pairs), counted as _POINT_BYTES
# and _ENTRY_BYTES: a larger scene is refused when it is built.
MAX_DRAW_BYTES = 2 * 10 ** 9
_DRAW_BYTES = 64
_POINT_BYTES, _ENTRY_BYTES = 128, 64


def _check_field_bytes(shape, n_freq: int) -> None:
    """Refuse a lattice of `shape` points at n_freq tones whose synth_field
    evaluation would hold more than MAX_DRAW_BYTES, counted in Python ints;
    a dimension below 1 is left to the scene's own check."""
    points = math.prod(map(int, shape)) if min(shape) >= 1 else 0
    need = points * (_POINT_BYTES + n_freq * _ENTRY_BYTES)
    if need > MAX_DRAW_BYTES:
        raise DomainError(f"a {'x'.join(map(str, (*shape, n_freq)))} grid would take about "
                          f"{need:.3g} bytes, more than {MAX_DRAW_BYTES:.3g}")


def _rng(seed: int | np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _gaussian_pairs(rng: np.random.Generator, n: int, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Two independent N(0, sigma^2) arrays via Box-Muller."""
    radius = sigma * np.sqrt(-2.0 * np.log(1.0 - rng.random(n)))    # 1 - U in (0, 1]
    angle = 2.0 * np.pi * rng.random(n)
    return radius * np.cos(angle), radius * np.sin(angle)


@dataclass
class ComplexSampleSet:
    """Independent complex-baseband fading realizations."""

    samples: np.ndarray
    seed: int | np.random.SeedSequence
    params: FadingParams

    @property
    def envelopes(self) -> np.ndarray:
        return np.abs(self.samples)


def sample_twdp(params: FadingParams, n: int,
                seed: int | np.random.SeedSequence) -> ComplexSampleSet:
    """Draw n independent realizations of the two-wave-plus-diffuse sum.

    Per sample, the two specular phases are independent and uniform on
    (0, 2pi) and the diffuse part is circular Gaussian with per-component
    variance sigma^2 = omega / (2 (1 + k)). Identical seeds give
    bit-identical sample sets.

    The real and imaginary parts, v1 cos phi1 + v2 cos phi2 + x and
    v1 sin phi1 + v2 sin phi2 + y, are summed in place in the two halves of
    the output, with no complex temporaries. They are the same bits as
    v1 exp(j phi1) + v2 exp(j phi2) + x + j y in complex arithmetic; tests
    pin golden hashes of the samples.
    """
    if n < 1:
        raise DomainError("need at least one sample")
    if n * _DRAW_BYTES > MAX_DRAW_BYTES:
        raise DomainError(f"{n} samples would take about {n * _DRAW_BYTES:.3g} bytes, "
                          f"more than {MAX_DRAW_BYTES:.3g}")
    rng = _rng(seed)
    v1, v2 = specular_amplitudes(params.k, params.delta, params.omega)
    sigma = np.sqrt(params.sigma2)
    phi1 = 2.0 * np.pi * rng.random(n)
    phi2 = 2.0 * np.pi * rng.random(n)
    x, y = _gaussian_pairs(rng, n, sigma)
    samples = np.empty(n, dtype=complex)
    term = np.empty(n)
    for part, trig, diffuse in ((samples.real, np.cos, x), (samples.imag, np.sin, y)):
        np.multiply(v1, trig(phi1, out=term), out=part)
        part += np.multiply(v2, trig(phi2, out=term), out=term)
        part += diffuse
    return ComplexSampleSet(samples, seed, params)


@dataclass(frozen=True)
class PlaneWave:
    """One deterministic plane wave: amplitude, unit propagation direction,
    phase offset (rad) and an optional propagation delay (s) that rotates
    the phase across the frequency axis."""

    amplitude: float
    direction: tuple[float, float, float]
    phase: float = 0.0
    delay: float = 0.0

    def __post_init__(self):
        # each check is written so that NaN and inf fail it
        if not 0 <= self.amplitude < np.inf:
            raise DomainError("amplitude must be nonnegative and finite")
        if not np.isfinite([self.phase, self.delay]).all():
            raise DomainError("phase and delay must be finite")
        d = np.asarray(self.direction, dtype=float)
        if d.shape != (3,) or not abs(np.linalg.norm(d) - 1.0) <= 1e-12:
            raise DomainError("direction must be a 3-D unit vector (tol 1e-12)")
        _freeze(self, direction=tuple(d.tolist()))


@dataclass(frozen=True)
class PlaneWaveScene:
    """Superposition scene evaluated on a spatial lattice.

    ``wavelength`` (metres) sets the lattice scale; ``spacing`` is in
    wavelengths. When ``freq_axis`` is omitted the single sounding
    frequency c/wavelength is used. ``diffuse_sigma2`` adds an i.i.d.
    circular Gaussian field (per-component variance) per lattice point and
    frequency. ``position_jitter`` perturbs each lattice coordinate by a
    uniform offset within +-jitter wavelengths (repeat-accuracy emulation,
    off by default). A scene whose extent in metres or whose largest phase
    argument is not a finite double is refused before any arithmetic on it,
    and so is one with no wave or whose evaluation would hold more than
    ``MAX_DRAW_BYTES``.
    """

    waves: tuple[PlaneWave, ...]
    wavelength: float
    shape: tuple[int, int, int] = (9, 9, 9)
    spacing: float = 0.35
    freq_axis: np.ndarray | None = None
    diffuse_sigma2: float = 0.0
    position_jitter: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _freeze(self, waves=tuple(self.waves), freq_axis=None if self.freq_axis is None
                else np.asarray(self.freq_axis, dtype=float))
        # each check is written so that NaN and inf fail it
        if not (0 < self.wavelength < np.inf and 0 < self.spacing < np.inf):
            raise DomainError("wavelength and spacing must be positive and finite")
        if not (0 <= self.diffuse_sigma2 < np.inf and 0 <= self.position_jitter < np.inf):
            raise DomainError("diffuse_sigma2 and position_jitter must be finite and >= 0")
        if min(self.shape) < 1:
            raise DomainError("grid dimensions must be >= 1")
        _check_field_bytes(self.shape, 1 if self.freq_axis is None else self.freq_axis.size)
        # in Python floats, which overflow to inf without a warning: the
        # extent bounds every coordinate, sqrt(3) extent every projection
        extent = ((float(self.spacing) * float(max(self.shape)) + 2.0 * float(self.position_jitter))
                  * float(self.wavelength))
        f_max = (SPEED_OF_LIGHT / float(self.wavelength) if self.freq_axis is None
                 else float(np.max(np.abs(self.freq_axis), initial=0.0)))
        turn = max((abs(float(w.phase)) + 2.0 * math.pi * f_max * abs(float(w.delay))
                    for w in self.waves), default=0.0)
        phase = 2.0 * math.pi * f_max / SPEED_OF_LIGHT * math.sqrt(3.0) * extent + turn
        if not (math.isfinite(extent) and math.isfinite(phase)):
            raise DomainError("the lattice extent in metres or its largest phase is not finite")
        if not self.waves:
            raise DomainError("scene needs at least one wave")


def synth_field(scene: PlaneWaveScene) -> SpatialGrid:
    """Evaluate the plane-wave superposition at every lattice point.

    H(p, f) = sum_w A_w exp(j (2 pi f / c) d_w . p + j phi_w - j 2 pi f tau_w)
    with p the point coordinates in metres, plus the optional diffuse field.
    """
    nx, ny, nz = scene.shape
    freqs = (scene.freq_axis if scene.freq_axis is not None
             else np.array([SPEED_OF_LIGHT / scene.wavelength]))
    rng = _rng(scene.seed)

    step = scene.spacing * scene.wavelength
    axes = [np.arange(n) * step for n in (nx, ny, nz)]
    px, py, pz = np.meshgrid(*axes, indexing="ij")
    pos = np.stack([px, py, pz], axis=-1)                       # (nx, ny, nz, 3)
    if scene.position_jitter > 0:
        jit = scene.position_jitter * scene.wavelength
        pos = pos + rng.uniform(-jit, jit, size=pos.shape)

    nf = len(freqs)
    h = np.zeros((nx, ny, nz, nf), dtype=complex)
    for wave in scene.waves:
        proj = pos @ np.asarray(wave.direction, dtype=float)    # (nx, ny, nz)
        for jf, f in enumerate(freqs):
            k_f = 2.0 * np.pi * f / SPEED_OF_LIGHT
            phase = k_f * proj + wave.phase - 2.0 * np.pi * f * wave.delay
            h[:, :, :, jf] += wave.amplitude * np.exp(1j * phase)
    if scene.diffuse_sigma2 > 0:
        sigma = np.sqrt(scene.diffuse_sigma2)
        size = nx * ny * nz * nf
        gx, gy = _gaussian_pairs(rng, size, sigma)
        h += (gx + 1j * gy).reshape(h.shape)
    return SpatialGrid(h, spacing=scene.spacing, freq_axis=freqs)
