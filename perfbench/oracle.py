"""Reference computations the benchmark checks twdpfit against.

Nothing here imports twdpfit: the generator, densities, CDFs, information
bound, AICc, G statistic, spatial correlation and BER are written again
from their definitions, so a fault in the program cannot hide in its own
reference.

Conventions follow the package: K is the linear specular-to-diffuse power
ratio, Delta the amplitude balance of the two specular waves, Omega the
mean envelope power.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats

# Midpoint nodes on (0, pi) of the phase-balance average. The integrand is
# smooth, even and 2 pi-periodic in alpha, so the rule converges spectrally;
# 128 nodes agree with 1024 to ~1e-15 up to K = 300.
N_ALPHA = 128
_COS_ALPHA = np.cos((np.arange(N_ALPHA) + 0.5) * math.pi / N_ALPHA)

# 8-point Gauss-Legendre rule on [0, 1].
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
_GL_X = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W


def amplitudes(k: float, delta: float, omega: float = 1.0) -> tuple[float, float, float]:
    """(v1, v2, sigma): specular amplitudes and per-component diffuse std.

    v1^2 + v2^2 = K Omega / (1 + K), 2 v1 v2 / (v1^2 + v2^2) = Delta and
    2 sigma^2 = Omega / (1 + K).
    """
    p = k * omega / (1.0 + k)
    half = 0.5 * math.sqrt(p)
    v1 = half * (math.sqrt(1.0 + delta) + math.sqrt(1.0 - delta))
    v2 = half * (math.sqrt(1.0 + delta) - math.sqrt(1.0 - delta))
    return v1, v2, math.sqrt(omega / (2.0 * (1.0 + k)))


def complex_samples(rng: np.random.Generator, n: int, k: float, delta: float,
                    omega: float = 1.0) -> np.ndarray:
    """v1 e^{j phi1} + v2 e^{j phi2} + sigma (n1 + j n2), independent draws."""
    v1, v2, sigma = amplitudes(k, delta, omega)
    phi1 = rng.uniform(0.0, 2.0 * math.pi, n)
    phi2 = rng.uniform(0.0, 2.0 * math.pi, n)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v1 * np.exp(1j * phi1) + v2 * np.exp(1j * phi2) + sigma * noise


def envelopes(rng: np.random.Generator, n: int, k: float, delta: float,
              omega: float = 1.0) -> np.ndarray:
    return np.abs(complex_samples(rng, n, k, delta, omega))


# ---------------------------------------------------------------------------
# densities and CDFs (Omega = 1 unless given)
# ---------------------------------------------------------------------------

def twdp_pdf(r, k: float, delta: float, omega: float = 1.0) -> np.ndarray:
    """TWDP envelope density as the phase-balance mean of Rician densities.

    For phase difference alpha the two waves add to one wave of power
    2 sigma^2 K (1 + Delta cos alpha), so the density is that Rician
    density averaged over alpha uniform on (0, pi).
    """
    r = np.asarray(r, dtype=float)
    s2 = omega / (2.0 * (1.0 + k))
    spec = np.sqrt(np.maximum(2.0 * s2 * k * (1.0 + delta * _COS_ALPHA), 0.0))
    rr = r.reshape(-1, 1)
    terms = (rr / s2) * np.exp(-0.5 * (rr - spec) ** 2 / s2) * special.i0e(rr * spec / s2)
    return terms.mean(axis=1).reshape(r.shape)


def rice_cdf_closed(r, k: float, omega: float = 1.0) -> np.ndarray:
    """Rician CDF 1 - Q1(s / sigma, r / sigma) for K > 0, through the
    noncentral chi-square law with two degrees of freedom and
    noncentrality (s / sigma)^2 = 2 K."""
    s2 = omega / (2.0 * (1.0 + k))
    return stats.ncx2.cdf(np.asarray(r, dtype=float) ** 2 / s2, 2, 2.0 * k)


def twdp_cdf(points, k: float, delta: float, omega: float = 1.0) -> np.ndarray:
    """TWDP CDF at arbitrary points by Gauss-Legendre integration of the
    density between consecutive sorted points (16 panels up to the first)."""
    pts = np.asarray(points, dtype=float)
    order = np.argsort(pts.ravel())
    xs = pts.ravel()[order]
    lo = np.concatenate([np.linspace(0.0, xs[0], 17)[:-1], xs[:-1]])
    hi = np.concatenate([np.linspace(0.0, xs[0], 17)[1:], xs[1:]])
    nodes = lo[:, None] + (hi - lo)[:, None] * _GL_X[None, :]
    mass = (twdp_pdf(nodes, k, delta, omega) * _GL_W[None, :]).sum(axis=1) * (hi - lo)
    cum = np.cumsum(mass)[15:]
    out = np.empty_like(xs)
    out[order] = np.minimum(cum, 1.0)
    return out.reshape(pts.shape)


def twdp_cdf_grid(k: float, delta: float, omega: float = 1.0,
                  n: int = 8001) -> tuple[np.ndarray, np.ndarray]:
    """CDF on a uniform grid covering the support, for interpolation."""
    hi = math.sqrt(omega) * (math.sqrt(k / (1.0 + k)) * math.sqrt(1.0 + delta)
                             + 12.0 / math.sqrt(2.0 * (1.0 + k)))
    grid = np.linspace(0.0, hi, n)
    return grid, np.concatenate([[0.0], twdp_cdf(grid[1:], k, delta, omega)])


def self_check() -> list[str]:
    """The mixture CDF at Delta = 0 against the closed-form Rician CDF, and
    the density's normalization."""
    problems = []
    for k in (0.5, 4.0, 30.0):
        r = np.linspace(0.02, 2.5, 40)
        err = float(np.max(np.abs(twdp_cdf(r, k, 0.0) - rice_cdf_closed(r, k))))
        if err > 1e-9:
            problems.append(f"oracle TWDP CDF at Delta=0, K={k}: off the Rice CDF by {err:.2e}")
    for k, d in ((10.0, 0.9), (3.0, 0.5)):
        tail = float(twdp_cdf(np.array([4.0]), k, d)[0])
        if abs(tail - 1.0) > 1e-9:
            problems.append(f"oracle TWDP density at K={k}, Delta={d} integrates to {tail}")
    return problems


# ---------------------------------------------------------------------------
# estimation references
# ---------------------------------------------------------------------------

def fisher_bounds(k: float, delta: float, n: int) -> tuple[float, float]:
    """Cramer-Rao standard deviations of (K, Delta) from n envelopes at
    Omega = 1. With Delta = 0 (the Rician family) only K is estimated and
    the Delta bound is returned as infinity."""
    r = np.linspace(1e-6, 4.0 + 8.0 / math.sqrt(1.0 + k), 3001)
    dr = r[1] - r[0]
    f = twdp_pdf(r, k, delta)
    hk = 1e-4 * max(1.0, k)
    if k >= hk:
        dfk = (twdp_pdf(r, k + hk, delta) - twdp_pdf(r, k - hk, delta)) / (2.0 * hk)
    else:
        dfk = (twdp_pdf(r, k + hk, delta) - f) / hk
    ok = f > 1e-300
    if delta == 0.0:
        info = n * float(np.sum(dfk[ok] ** 2 / f[ok])) * dr
        return 1.0 / math.sqrt(info), math.inf
    hd = 1e-4
    if delta + hd <= 1.0:
        dfd = (twdp_pdf(r, k, delta + hd) - twdp_pdf(r, k, max(delta - hd, 0.0))) \
            / (delta + hd - max(delta - hd, 0.0))
    else:
        dfd = (f - twdp_pdf(r, k, delta - hd)) / hd
    a = float(np.sum(dfk[ok] ** 2 / f[ok])) * dr
    b = float(np.sum(dfk[ok] * dfd[ok] / f[ok])) * dr
    c = float(np.sum(dfd[ok] ** 2 / f[ok])) * dr
    cov = np.linalg.inv(n * np.array([[a, b], [b, c]]))
    return math.sqrt(cov[0, 0]), math.sqrt(cov[1, 1])


def aicc(loglik: float, order: int, n: int) -> float:
    return -2.0 * loglik + 2.0 * order + 2.0 * order * (order + 1.0) / (n - order - 1.0)


def g_statistic(fit_sorted_norm: np.ndarray, per_cell: int, cdf) -> tuple[float, int]:
    """G = 2 sum O ln(O / E) over cells of per_cell sorted observations (the
    last cell takes the remainder), cell edges halfway between neighbours,
    expected counts from the model CDF. Returns (G, number of cells)."""
    x = fit_sorted_norm
    n = len(x)
    m = n // per_cell
    cut = per_cell * np.arange(1, m)
    edges = 0.5 * (x[cut - 1] + x[cut])
    cum = np.concatenate([[0.0], cdf(edges), [1.0]])
    expected = np.diff(cum) * n
    observed = np.full(m, float(per_cell))
    observed[-1] = n - per_cell * (m - 1)
    return 2.0 * float(np.sum(observed * np.log(observed / expected))), m


# ---------------------------------------------------------------------------
# spatial correlation and link level
# ---------------------------------------------------------------------------

def direct_corr(h: np.ndarray) -> np.ndarray:
    """Window-compensated correlation of the real parts at integer lags,
    summed directly over every overlapping pair of points in each (z, f)
    slice, averaged over slices and normalized at zero lag. Returns shape
    (2 nx - 1, 2 ny - 1) with zero lag at the centre."""
    re = np.real(h).reshape(h.shape[0], h.shape[1], -1)
    nx, ny, _ = re.shape
    out = np.empty((2 * nx - 1, 2 * ny - 1))
    for dx in range(-(nx - 1), nx):
        for dy in range(-(ny - 1), ny):
            a = re[max(0, -dx):nx - max(0, dx), max(0, -dy):ny - max(0, dy)]
            b = re[max(0, dx):nx - max(0, -dx), max(0, dy):ny - max(0, -dy)]
            out[dx + nx - 1, dy + ny - 1] = float(np.sum(a * b)) / a[:, :, 0].size
    return out / out[nx - 1, ny - 1]


def plane_wave_field(waves, shape, spacing, wavelength, freqs) -> np.ndarray:
    """Sum of A exp(j(2 pi f / c) d.p + j phase - j 2 pi f tau) on the lattice
    p = spacing * wavelength * (ix, iy, iz); waves are (A, d, phase, tau)."""
    c = 299_792_458.0
    step = spacing * wavelength
    ix, iy, iz = np.meshgrid(*(np.arange(n) * step for n in shape), indexing="ij")
    h = np.zeros(tuple(shape) + (len(freqs),), dtype=complex)
    for amp, d, phase, tau in waves:
        proj = ix * d[0] + iy * d[1] + iz * d[2]
        for jf, f in enumerate(freqs):
            h[..., jf] += amp * np.exp(1j * (2.0 * math.pi * f / c * proj + phase
                                             - 2.0 * math.pi * f * tau))
    return h


def qam4_ber(k: float, delta: float, snr_db: float) -> float:
    """Gray 4-QAM bit error ratio with zero-forcing equalization, averaged
    over the envelope density: E[Q(sqrt(r^2 SNR))] at Omega = 1."""
    snr = 10.0 ** (snr_db / 10.0)
    r = np.linspace(0.0, 4.0 + 10.0 / math.sqrt(1.0 + k), 40001)
    integrand = special.ndtr(-np.sqrt(r * r * snr)) * twdp_pdf(r, k, delta)
    return float(np.trapezoid(integrand, r))
