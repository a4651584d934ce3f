"""Envelope distributions for Rayleigh, Rician and two-wave-with-diffuse-power
(TWDP) fading, plus the parameter conversions between (K, Delta, Omega) and
the specular amplitudes (V1, V2) with diffuse power sigma^2.

Conventions
-----------
* K is the linear power ratio of specular to diffuse power (never dB).
* Delta in [0, 1] is the amplitude balance of the two specular components
  (0: single wave, i.e. Rician; 1: equal amplitudes).
* Omega is the mean envelope power E[r^2] and acts as a pure scale factor.

The TWDP CDF and density are phase-balance averages of the Rician ones
(``_phase_average``); the density table shares their Rician kernel and
trapezoid rule. The CDF evaluates each batch of phase-node columns over row
blocks of its envelopes on the shared pool (``pool.map_row_blocks``):
scipy's ``chndtr`` is elementwise and releases the GIL, so the values are
the same bits on any number of threads. As with the likelihood GEMV, these
are numpy's and scipy's own loops on twdpfit's threads, because OpenBLAS
busy-waits after a threaded product and would hold the core a second block
runs on. ``TWDPFIT_LOG=debug`` logs each TWDP CDF's points, converged phase
nodes, milliseconds and threads.

scipy.special (~0.3 s to import) is imported by the functions that call it, so
synth, spatial and ber never load it; a fit first loads it in the row pool.

All functions are pure and thread-safe; array inputs broadcast in the usual
numpy fashion. K is capped at ``K_MAX_SUPPORTED`` = 1e4, above which the
numerics of the distribution kernels are not guaranteed.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .pool import map_row_blocks, threads

__all__ = [
    "FadingParams",
    "K_MAX_SUPPORTED",
    "marcum_q1",
    "sigma2_from_k",
    "specular_amplitudes",
    "k_delta_from_amplitudes",
    "rayleigh_cdf",
    "rice_cdf",
    "rice_pdf",
    "twdp_cdf",
    "twdp_pdf",
]

log = logging.getLogger(__name__)

# Above this K the quadrature accuracy targets are not validated.
K_MAX_SUPPORTED = 1.0e4

# Phase-balance quadrature of the TWDP CDF and density. The integrand is
# smooth and 2pi-periodic in alpha, so the uniform trapezoid rule converges
# spectrally. It starts at _CDF_NODES_START nodes and doubles until two
# successive sums agree to _CDF_TOL; K <= 1e4 converges by 4096 nodes, and
# a rule not converged at _CDF_NODES_CAP raises NumericalError.
_CDF_NODES_START = 16
_CDF_NODES_CAP = 2 ** 15
_CDF_TOL = 1e-13


def _validate_k_delta_omega(k: float, delta: float, omega: float,
                            enforce_cap: bool = False) -> None:
    if not (np.isfinite(k) and np.isfinite(delta) and np.isfinite(omega)):
        raise DomainError("k, delta, omega must be finite")
    if k < 0:
        raise DomainError(f"k must be nonnegative, got {k}")
    if enforce_cap and k > K_MAX_SUPPORTED:
        # cap applies to distribution evaluation only; the parameter
        # conversions and the sampler are elementary and stay exact
        raise DomainError(f"k={k} exceeds the supported cap {K_MAX_SUPPORTED:g}")
    if not 0.0 <= delta <= 1.0:
        raise DomainError(f"delta must lie in [0, 1], got {delta}")
    if omega <= 0:
        raise DomainError(f"omega must be positive, got {omega}")


@dataclass(frozen=True)
class FadingParams:
    """TWDP model state (K, Delta, Omega) with derived quantities.

    ``sigma2`` is the per-component diffuse variance, ``v1 >= v2 >= 0`` the
    specular amplitudes. The power budget v1^2 + v2^2 + 2 sigma2 == omega
    holds to rounding.
    """

    k: float
    delta: float = 0.0
    omega: float = 1.0

    def __post_init__(self):
        _validate_k_delta_omega(self.k, self.delta, self.omega)

    @property
    def sigma2(self) -> float:
        return sigma2_from_k(self.k, self.omega)

    @property
    def v1(self) -> float:
        return specular_amplitudes(self.k, self.delta, self.omega)[0]

    @property
    def v2(self) -> float:
        return specular_amplitudes(self.k, self.delta, self.omega)[1]


def sigma2_from_k(k: float, omega: float = 1.0) -> float:
    """Diffuse per-component variance that normalizes E[r^2] to omega."""
    _validate_k_delta_omega(k, 0.0, omega)
    return omega / (2.0 * (1.0 + k))


def specular_amplitudes(k: float, delta: float, omega: float = 1.0) -> tuple[float, float]:
    """Amplitudes (v1, v2) of the two constant waves, v1 >= v2 >= 0."""
    _validate_k_delta_omega(k, delta, omega)
    scale = 0.5 * math.sqrt(k / (k + 1.0) * omega)
    v1 = scale * (math.sqrt(1.0 + delta) + math.sqrt(1.0 - delta))
    v2 = scale * (math.sqrt(1.0 + delta) - math.sqrt(1.0 - delta))
    return v1, v2


def k_delta_from_amplitudes(v1: float, v2: float, sigma2: float) -> tuple[float, float]:
    """Inverse conversion; (k, delta) from wave amplitudes and diffuse power.

    For v1 = v2 = 0 the amplitude balance is undefined and delta = 0 is
    returned (Rayleigh).
    """
    if v1 < 0 or v2 < 0 or sigma2 <= 0:
        raise DomainError("require v1, v2 >= 0 and sigma2 > 0")
    p = v1 * v1 + v2 * v2
    k = p / (2.0 * sigma2)
    delta = 0.0 if p == 0.0 else 2.0 * v1 * v2 / p
    return k, min(delta, 1.0)


# ---------------------------------------------------------------------------
# Marcum Q
# ---------------------------------------------------------------------------

def marcum_q1(a, b):
    """First-order Marcum Q function Q1(a, b), absolute accuracy <= 1e-10.

    Evaluated as the noncentral chi-square survival function,
    Q1(a, b) = P[X > b^2] with X ~ ncx2(df=2, nc=a^2). Accepts scalars or
    arrays (elementwise); scalar input gives a float.
    """
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if not (np.all(np.isfinite(a_arr)) and np.all(np.isfinite(b_arr))):
        raise DomainError("marcum_q1 arguments must be finite")
    if np.any(a_arr < 0) or np.any(b_arr < 0):
        raise DomainError("marcum_q1 arguments must be nonnegative")
    q = 1.0 - _ncx2_cdf(b_arr * b_arr, a_arr * a_arr)
    return float(q) if q.ndim == 0 else q


def _ncx2_cdf(x, nc):
    """CDF at x of the 2-dof noncentral chi-square with noncentrality nc.
    scipy's chndtr errs at subnormal nc (by 3.6e-4 at 1e-320), so nc below the
    smallest normal double is taken as 0, which is exact to double precision."""
    from scipy import special
    return special.chndtr(x, 2.0, np.where(nc < np.finfo(float).tiny, 0.0, nc))


# ---------------------------------------------------------------------------
# CDFs / PDFs
# ---------------------------------------------------------------------------

def _check_r(r) -> np.ndarray:
    arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("envelope values must be finite")
    if np.any(arr < 0):
        raise DomainError("envelope values must be nonnegative")
    return arr


def _shaped_like(r, out):
    """`out` in the shape of the input `r`; a float for scalar input."""
    out = np.reshape(out, np.shape(r))
    return float(out) if out.ndim == 0 else out


def _rice_kernel(a, b, prec):
    """Rician envelope density over the envelope, prec I0(ab) exp(-(a^2 + b^2)/2),
    for specular amplitude a and envelope b in units of sigma, prec = 1/sigma^2.
    Exactly 0 where the exponential underflows."""
    from scipy import special
    return prec * special.i0e(a * b) * np.exp(-0.5 * (a - b) ** 2)


def _trapezoid_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node periodic trapezoid rule on [0, 2pi), folded onto the
    n/2 + 1 distinct values of cos(alpha): returns (cos_alpha, weights)."""
    m = n // 2 + 1
    w = np.full(m, 2.0 / n)
    w[0] = w[-1] = 1.0 / n
    return np.cos(2.0 * np.pi * np.arange(m) / n), w


def rayleigh_cdf(r, omega: float = 1.0):
    """CDF of the zero-specular-power envelope, 1 - exp(-r^2/omega)."""
    arr = _check_r(r)
    if omega <= 0:
        raise DomainError("omega must be positive")
    return _shaped_like(r, -np.expm1(-arr * arr / omega))


def rice_cdf(r, k: float, omega: float = 1.0):
    """Rician envelope CDF, 1 - Q1(sqrt(2k), r/sigma), as the ncx2 CDF so
    that its lower tail keeps its digits."""
    arr = _check_r(r)
    _validate_k_delta_omega(k, 0.0, omega, enforce_cap=True)
    a = math.sqrt(2.0 * k)
    b = arr / math.sqrt(sigma2_from_k(k, omega))
    return _shaped_like(r, np.clip(_ncx2_cdf(b * b, a * a), 0.0, 1.0))


def rice_pdf(r, k: float, omega: float = 1.0):
    """Closed-form Rician envelope density."""
    arr = _check_r(r)
    _validate_k_delta_omega(k, 0.0, omega)
    s2 = sigma2_from_k(k, omega)
    return _shaped_like(r, arr * _rice_kernel(math.sqrt(2.0 * k), arr / math.sqrt(s2), 1.0 / s2))


def _phase_average(node_values, k: float, delta: float,
                   relative: bool = False) -> tuple[np.ndarray, int]:
    """Mean over alpha of node_values(a), a = sqrt(2k(1 + delta cos alpha)).

    ``node_values`` maps node amplitudes to one column per node. Nested
    trapezoid doubling on [0, 2pi): the n-node set is a subset of the 2n-node
    set, so T_2n = T_n / 2 + (midpoint sum) / (2n), and each doubling
    evaluates only the n new midpoints. The integrand depends on alpha only
    through cos(alpha), so the nodes fold onto n/2 + 1 distinct values and
    the midpoints onto n/2. Returns T_2n and 2n once |T_2n - T_n| <= _CDF_TOL
    everywhere, times |T_2n| pointwise when ``relative``. Nodes run along the
    last axis, where numpy sums pairwise.
    """
    def values_at(cos_alpha):
        return node_values(np.sqrt(2.0 * k * (1.0 + delta * cos_alpha)))

    n = _CDF_NODES_START
    cos_alpha, w = _trapezoid_nodes(n)
    total = values_at(cos_alpha) @ w
    while n < _CDF_NODES_CAP:
        mid = np.cos(np.pi * (2.0 * np.arange(n // 2) + 1.0) / n)
        refined = 0.5 * total + values_at(mid).sum(axis=1) / n
        n *= 2
        bound = _CDF_TOL * np.abs(refined) if relative else _CDF_TOL
        if np.all(np.abs(refined - total) <= bound):
            return refined, n
        total = refined
    raise NumericalError(
        f"phase-balance quadrature not converged at {n} nodes for k={k}, delta={delta}")


def twdp_cdf(r, params: FadingParams):
    """TWDP envelope CDF, the phase-balance average of Rician CDFs with
    specular power K (1 + Delta cos alpha) and common sigma set by K.
    Successive sums must agree to 1e-13 at every envelope."""
    arr = _check_r(r)
    _validate_k_delta_omega(params.k, params.delta, params.omega, enforce_cap=True)
    start = time.perf_counter()
    b = arr.ravel() / math.sqrt(sigma2_from_k(params.k, params.omega))
    b2 = b * b

    def columns(a):
        return map_row_blocks(lambda rows: _ncx2_cdf(rows[:, None], (a * a)[None, :]), b2)

    out, nodes = _phase_average(columns, params.k, params.delta)
    log.debug("twdp cdf: %d points x %d nodes, %.1f ms on %d threads", b.size, nodes,
              1e3 * (time.perf_counter() - start), max(1, min(threads(), b.size)))
    return _shaped_like(r, np.clip(out, 0.0, 1.0))


def twdp_pdf(r, params: FadingParams):
    """TWDP envelope density, the exact phase-balance average of Rician
    densities (Durgin, Rappaport & de Wolf 2002). Successive sums must agree
    to 1e-13 relative at every envelope: the density spans too many decades
    for an absolute bound."""
    arr = _check_r(r)
    _validate_k_delta_omega(params.k, params.delta, params.omega, enforce_cap=True)
    s2 = sigma2_from_k(params.k, params.omega)
    b = arr.ravel() / math.sqrt(s2)
    out, _ = _phase_average(lambda a: _rice_kernel(a[None, :], b[:, None], 1.0 / s2),
                            params.k, params.delta, relative=True)
    return _shaped_like(r, arr.ravel() * out)
