"""Directional-scan and spatial-sampling post-processing.

Covers noise-floor masking, normalized receive-power maps, the windowed 2-D
spatial autocorrelation with rectangular-window compensation (``autocorr2d``
is the single-slice case of ``average_corr``), delay-domain conversion of
frequency sweeps, and per-tap envelope sets for the fading pipeline.

Correlation conventions: fields are sampled on a uniform grid measured in
wavelengths; only the real part of the complex samples enters the spatial
correlation. The finite sampling aperture acts as a rectangular window; its
triangular footprint is removed by element-wise division with the
identically computed correlation of an all-ones window, which makes the
compensation exact at every computed lag.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError
from .inference import (EnvelopeSet, _freeze, estimate_omega, partition_chequerboard,
                        partition_stride)

__all__ = [
    "SPEED_OF_LIGHT",
    "MAX_LAG_CELLS",
    "SpatialGrid",
    "DirectionalScan",
    "CorrelationMap",
    "noise_mask",
    "power_map",
    "autocorr2d",
    "average_corr",
    "cir",
    "excess_distance",
    "tap_envelopes",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s
# cells of one refined (2 nx q) x (2 ny q) lag array in average_corr
MAX_LAG_CELLS = 10 ** 7


def _on_sphere(azimuth, elevation):
    """Azimuth in [0, 360) and elevation in [0, 180] degrees; False for NaN."""
    return (0 <= azimuth) & (azimuth < 360) & (0 <= elevation) & (elevation <= 180)


def _frequencies(freq_axis, n_freq: int) -> np.ndarray | None:
    """freq_axis as n_freq positive, finite frequencies in Hz, or None."""
    if freq_axis is None:
        return None
    freq_axis = np.asarray(freq_axis, dtype=float)
    if freq_axis.shape != (n_freq,):
        raise DomainError("freq_axis length must match the frequency dimension")
    if not np.all((freq_axis > 0) & (freq_axis < np.inf)):
        raise DomainError("frequencies must be positive and finite")
    return freq_axis


@dataclass(frozen=True)
class SpatialGrid:
    """Complex channel samples on a uniform spatial lattice.

    ``h`` is indexed (ix, iy, iz, ifreq); ``spacing`` is the lattice
    constant in wavelengths; ``freq_axis`` holds the sounding frequencies
    in Hz; ``direction`` is optional (azimuth, elevation) metadata in
    degrees.
    """

    h: np.ndarray
    spacing: float = 0.35
    freq_axis: np.ndarray | None = None
    direction: tuple[float, float] | None = None

    def __post_init__(self):
        _freeze(self, h=np.asarray(self.h, dtype=complex))
        if self.h.ndim != 4 or min(self.h.shape) < 1:
            raise DomainError("grid must be a 4-D array (ix, iy, iz, ifreq) with dims >= 1")
        if not np.all(np.isfinite(self.h)):
            raise DomainError("grid samples must be finite")
        # correlation lags reach (n - 1) spacings on the longer side; n leaves room to round
        if not 0 < self.spacing < np.finfo(float).max / max(self.h.shape[:2]):
            raise DomainError("spacing must be positive, with a finite largest lag")
        _freeze(self, freq_axis=_frequencies(self.freq_axis, self.h.shape[3]))
        if self.direction is not None:
            _freeze(self, direction=tuple(map(float, self.direction)))
            if len(self.direction) != 2 or not _on_sphere(*self.direction):
                raise DomainError("direction must be (azimuth in [0, 360), "
                                  "elevation in [0, 180]) degrees")

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.h.shape


@dataclass(frozen=True)
class DirectionalScan:
    """Per-direction frequency-domain records of a directional sweep."""

    azimuth: np.ndarray          # degrees, [0, 360)
    elevation: np.ndarray        # degrees, [0, 180]
    samples: np.ndarray          # complex, (n_directions, n_freq)
    noise_power: np.ndarray      # linear power per direction
    freq_axis: np.ndarray | None = None

    def __post_init__(self):
        _freeze(self, azimuth=np.asarray(self.azimuth, dtype=float),
                elevation=np.asarray(self.elevation, dtype=float),
                samples=np.asarray(self.samples, dtype=complex),
                noise_power=np.asarray(self.noise_power, dtype=float))
        nd = len(self.azimuth)
        if self.samples.ndim != 2 or self.samples.shape[0] != nd:
            raise DomainError("samples must be (n_directions, n_freq)")
        if not np.all(np.isfinite(self.samples)):
            raise DomainError("scan samples must be finite")
        _freeze(self, freq_axis=_frequencies(self.freq_axis, self.samples.shape[1]))
        if self.elevation.shape != (nd,) or self.noise_power.shape != (nd,):
            raise DomainError("per-direction arrays must have equal length")
        if not np.all(_on_sphere(self.azimuth, self.elevation)):
            raise DomainError("azimuth must lie in [0, 360) and elevation in [0, 180]")

    @property
    def n_directions(self) -> int:
        return len(self.azimuth)


@dataclass(frozen=True)
class CorrelationMap:
    """Real spatial correlation on an interpolated lag grid (wavelengths)."""

    lag_x: np.ndarray
    lag_y: np.ndarray
    values: np.ndarray
    cut_x: np.ndarray            # values along lag_x at zero y-lag
    cut_y: np.ndarray            # values along lag_y at zero x-lag

    def __post_init__(self):
        _freeze(self, **{f.name: np.asarray(getattr(self, f.name), dtype=float)
                         for f in fields(self)})
        cx, cy = len(self.lag_x) // 2, len(self.lag_y) // 2
        if not abs(self.values[cx, cy] - 1.0) <= 1e-9:
            raise DomainError("correlation must equal 1 at zero lag")
        if not np.max(np.abs(self.values - self.values[::-1, ::-1])) <= 1e-9:
            raise DomainError("correlation must be point-symmetric")


# ---------------------------------------------------------------------------
# directional power
# ---------------------------------------------------------------------------

def noise_mask(scan: DirectionalScan, margin_db: float = 10.0) -> np.ndarray:
    """True where the mean received power sits at least margin_db above the
    per-direction noise power (boundary inclusive). A power that overflows
    is inf, above any margin."""
    if np.any(~np.isfinite(scan.noise_power)):
        raise DomainError("missing noise power estimate")
    if np.any(scan.noise_power <= 0):
        raise DomainError("noise power must be positive")
    with np.errstate(over="ignore"):
        mean_power = np.mean(np.abs(scan.samples) ** 2, axis=1)
    return mean_power >= scan.noise_power * 10.0 ** (margin_db / 10.0)


def power_map(scan: DirectionalScan, margin_db: float = 10.0, stride: int = 10) -> np.ndarray:
    """Normalized mean receive power per direction.

    The per-direction power estimate uses the moment partition (every
    stride-th frequency sample is reserved for fitting, as in the decision
    pipeline) so power and shape estimates stay decoupled. It raises if any
    direction above the noise margin cannot be partitioned. NaN marks
    exactly the directions below the margin and those whose mean power
    leaves the double range (``estimate_omega``'s DomainError); the maximum
    over the other directions is 1.
    """
    if scan.n_directions == 0:
        raise DomainError("empty scan")
    mask = noise_mask(scan, margin_db)
    if not np.any(mask):
        raise DomainError("no direction lies above the noise margin")
    out = np.full(scan.n_directions, np.nan)
    for i in np.nonzero(mask)[0]:
        env_set = partition_stride(np.abs(scan.samples[i]), stride)
        try:
            out[i] = estimate_omega(env_set)
        except DomainError:
            pass        # the direction's fit fails with the same message
    if not np.isnan(out).all():
        out /= np.nanmax(out)
    return out


# ---------------------------------------------------------------------------
# spatial correlation
# ---------------------------------------------------------------------------

def _unit_scaled(re: np.ndarray) -> np.ndarray:
    """`re` times the power of two that brings max |re| into [0.5, 1): exact, so
    a normalized correlation keeps its bits, and no FFT square leaves the double range."""
    return np.ldexp(re, -np.frexp(np.max(np.abs(re)))[1])


def _windowed_corr(field: np.ndarray) -> np.ndarray:
    """Unnormalized windowed autocorrelation of a real 2-D field on the
    doubled circular grid (zero padding mimics the linear correlation)."""
    nx, ny = field.shape
    padded = np.zeros((2 * nx, 2 * ny))
    padded[:nx, :ny] = field
    return np.real(np.fft.ifft2(np.abs(np.fft.fft2(padded)) ** 2))


def _center_crop(arr: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """Reorder circular lags so zero lag is centered; crop to |lag| <= n-1."""
    rolled = np.roll(np.roll(arr, nx - 1, axis=0), ny - 1, axis=1)
    return rolled[: 2 * nx - 1, : 2 * ny - 1]


def autocorr2d(field: np.ndarray) -> np.ndarray:
    """Window-compensated spatial autocorrelation of one real 2-D slice, as
    ``average_corr`` of its one-slice grid at interp_factor 1.

    Returns the correlation at integer lags -(n-1)..(n-1) per axis (zero
    lag centered), normalized to 1 at zero lag. Lags where the window
    correlation vanishes are dropped by the crop; the compensation makes a
    constant field correlate to exactly 1 everywhere.
    """
    arr = np.asarray(field, dtype=float)
    if arr.ndim != 2:
        raise DomainError("field slice must be a 2-D array")
    return average_corr(SpatialGrid(arr[:, :, None, None]), 1).values


def _spectral_upsample(arr: np.ndarray, q: int) -> np.ndarray:
    """Band-limited (zero-padded spectrum) upsampling on the circular grid:
    scipy.signal.resample's real-input path along axis 0, then 1, to the bit
    (it divides by n / (n q) rather than multiplying by q), without scipy."""
    for axis in (0, 1):
        n = arr.shape[axis]
        spec = np.fft.rfft(arr, axis=axis)
        if n % 2 == 0 and q > 1:    # split the unpaired Nyquist bin between +-n/2
            spec[(slice(None),) * axis + (n // 2,)] *= 0.5
        arr = np.fft.irfft(spec / (n / (n * q)), n * q, axis=axis)
    return arr


def average_corr(grid: SpatialGrid, interp_factor: int = 20) -> CorrelationMap:
    """Spatial correlation averaged over all height and frequency slices.

    The windowed correlations of the real parts of every (z, f) slice are
    averaged, compensated by the window correlation and refined to a lag
    step of spacing/interp_factor by spectral zero padding. Windowed and
    window correlations are upsampled identically before the element-wise
    division, so a constant field stays exactly 1 on the fine grid as well.
    Averaging precedes normalization; per-slice normalization would bias
    the mean through the fluctuating zero-lag power.
    """
    if interp_factor < 1:
        raise DomainError("interp_factor must be >= 1")
    nx, ny, nz, nf = grid.shape
    q = int(interp_factor)
    if 4 * nx * ny * q * q > MAX_LAG_CELLS:
        raise DomainError(f"interp_factor {q} refines the {nx}x{ny} window to "
                          f"{4 * nx * ny * q * q:g} lag cells, more than {MAX_LAG_CELLS:g}")
    if nx < 2 or ny < 2:
        raise DomainError("field slice must be at least 2x2")
    slices = _unit_scaled(np.real(grid.h)).reshape(nx, ny, nz * nf)
    acc = _windowed_corr(slices[:, :, 0])
    for j in range(1, nz * nf):
        acc += _windowed_corr(slices[:, :, j])
    acc /= nz * nf
    if not acc[0, 0] > 0.0:     # a dead tone adds nothing; only a zero grid fails
        raise DomainError("all-zero grid; correlation normalization undefined")
    s_w = _windowed_corr(np.ones((nx, ny)))
    if q > 1:       # skipped at q = 1: an upsampling round trip is not bit-exact
        acc, s_w = _spectral_upsample(acc, q), _spectral_upsample(s_w, q)
    valid = s_w > 1e-9 * s_w[0, 0]
    fine = np.zeros_like(acc)
    fine[valid] = acc[valid] / s_w[valid]
    cx, cy = (nx - 1) * q, (ny - 1) * q
    fine = _center_crop(fine, cx + 1, cy + 1)
    # numerical symmetrization (inputs are symmetric to rounding)
    fine = 0.5 * (fine + fine[::-1, ::-1])
    fine = fine / fine[cx, cy]
    lag_x = np.arange(-cx, cx + 1) * (grid.spacing / q)
    lag_y = np.arange(-cy, cy + 1) * (grid.spacing / q)
    return CorrelationMap(lag_x, lag_y, fine, fine[:, cy], fine[cx, :])


# ---------------------------------------------------------------------------
# delay domain
# ---------------------------------------------------------------------------

def cir(spectrum: np.ndarray, f_spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """Channel impulse response of a uniformly sampled frequency sweep.

    Returns (taps, delay_axis). Delay resolution is 1/(N f_spacing) and the
    unambiguous delay span is 1/f_spacing.
    """
    spec = np.asarray(spectrum, dtype=complex)
    if spec.ndim != 1 or len(spec) < 2:
        raise DomainError("need at least two frequency samples")
    if not np.all(np.isfinite(spec)):
        raise DomainError("spectrum must be finite")
    if not 0.0 < f_spacing < np.inf:
        raise DomainError(f"frequency spacing must be positive and finite, got {f_spacing}")
    taps = np.fft.ifft(spec)
    delays = np.arange(len(spec)) / (len(spec) * f_spacing)
    return taps, delays


def excess_distance(delay_axis: np.ndarray, los_delay: float) -> np.ndarray:
    """Convert delays to path-length excess relative to the direct path."""
    if not np.isfinite(los_delay):
        raise DomainError(f"line-of-sight delay must be finite, got {los_delay}")
    return (np.asarray(delay_axis, dtype=float) - los_delay) * SPEED_OF_LIGHT


def tap_envelopes(grid: SpatialGrid, tap_index: int) -> EnvelopeSet:
    """Envelope of one delay tap at every spatial point, chequerboard split.

    The impulse response is computed per spatial sample over the frequency
    axis; the requested tap's magnitudes become the envelope set feeding
    the fading pipeline.
    """
    nx, ny, nz, nf = grid.shape
    if nf < 2:
        raise DomainError("need at least two frequencies to form an impulse response")
    if grid.freq_axis is not None:
        df = np.diff(grid.freq_axis)
        if np.any(np.abs(df - df[0]) > 1e-6 * abs(df[0])) or df[0] <= 0:
            raise DomainError("frequency axis must be uniform and increasing")
    if not 0 <= tap_index < nf:
        raise DomainError(f"tap index {tap_index} outside 0..{nf - 1}")
    taps = np.fft.ifft(grid.h, axis=3)[:, :, :, tap_index]
    values = np.abs(taps).reshape(-1)
    mask = partition_chequerboard((nx, ny, nz)).reshape(-1)
    return EnvelopeSet(values, mask)
