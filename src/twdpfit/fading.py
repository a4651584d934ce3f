"""Envelope distributions for Rayleigh, Rician and two-wave-with-diffuse-power
(TWDP) fading, plus the parameter conversions between (K, Delta, Omega) and
the specular amplitudes (V1, V2) with diffuse power sigma^2.

Conventions
-----------
* K is the linear power ratio of specular to diffuse power (never dB).
* Delta in [0, 1] is the amplitude balance of the two specular components
  (0: single wave, i.e. Rician; 1: equal amplitudes).
* Omega is the mean envelope power E[r^2] and acts as a pure scale factor.

The TWDP density is the phase-balance average of Rician densities
(``_phase_average``); the density table shares its Rician kernel and
trapezoid rule. The TWDP CDF is the same average of Rician CDFs, taken as a
Poisson mixture (Durgin, Rappaport & de Wolf 2002 for the phase average;
Loader 2000 for the Poisson pmf): a 2-dof noncentral chi-square CDF is a
Poisson mixture of central ones, and each of those is a Poisson tail. So
with y = r^2 / (2 sigma^2), F(r) = sum_m Pois(m; y) S_(m-1), where S is the
CDF of the phase mixture of Poisson(K (1 + Delta cos alpha)). S is averaged
once per (K, Delta) to 1e-13; then each envelope costs one pmf row of a few
hundred terms, reached by ratio products from an anchor near its mode,
instead of one scipy ``chndtr`` call (~430 ns) per phase node. Every term is
positive, so both tails keep their relative digits. The rows go in fixed
blocks, at most 2 MB of terms each, on the shared pool (``pool.executor``):
numpy's own loops, never an OpenBLAS product, which would busy-wait on the
pool's cores. Each block is summed on its own, so the values are the same
bits on any number of threads. ``TWDPFIT_LOG=debug`` logs each TWDP CDF's
points, the phase nodes its mixing weights converged at, milliseconds and
threads. ``rice_cdf`` is this CDF at Delta = 0, where N is Poisson(K).

``marcum_q1`` is the survival of the same mixture at Delta = 0, K = a^2 / 2,
one mixture per distinct a, so its upper tail keeps its relative digits too
(down to the support's cut-off, P[N > J] <= e^-40). Arrays of many distinct
a cost more than scipy's ``chndtr`` did (3000 random pairs ~0.9 s against
~3 ms on 2 vCPUs), and a is capped at 200, the largest noncentrality
amplitude of the supported TWDP family.

The Rician kernel's i0e is Cephes's two expansions by Horner's rule in numpy
(``_i0e``, within 9e-16 relative of scipy.special.i0e; the tests hold 5e-15),
and the CDF needs no incomplete gamma function, so the package imports no
scipy: numpy is its only dependency.

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
from .pool import executor, threads

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

# Above this K the quadrature accuracy targets are not validated, so the
# distributions refuse it (the conversions and the sampler stay exact).
K_MAX_SUPPORTED = 1.0e4

# Phase-balance quadrature of the TWDP density and of the CDF's mixing
# weights. The integrand is smooth and 2pi-periodic in alpha, so the uniform
# trapezoid rule converges spectrally. It starts at _CDF_NODES_START nodes
# and doubles until two successive sums agree to _CDF_TOL; K <= 1e4
# converges by 4096 nodes, and a rule not converged at _CDF_NODES_CAP raises
# NumericalError.
_CDF_NODES_START = 16
_CDF_NODES_CAP = 2 ** 15
_CDF_TOL = 1e-13


def _validate_k_delta_omega(k: float, delta: float, omega: float) -> None:
    if not (np.isfinite(k) and np.isfinite(delta) and np.isfinite(omega)):
        raise DomainError("k, delta, omega must be finite")
    if k < 0:
        raise DomainError(f"k must be nonnegative, got {k}")
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
    if not (0.0 <= v1 < np.inf and 0.0 <= v2 < np.inf and 0.0 < sigma2 < np.inf):
        raise DomainError("require finite v1, v2 >= 0 and sigma2 > 0")
    p = v1 * v1 + v2 * v2
    k = p / (2.0 * sigma2)
    delta = 0.0 if p == 0.0 else 2.0 * v1 * v2 / p
    return k, min(delta, 1.0)


# ---------------------------------------------------------------------------
# Marcum Q
# ---------------------------------------------------------------------------

# The largest a that marcum_q1 takes: a^2 / 2 = 2 K_MAX_SUPPORTED is the
# largest specular power of a phase node in the supported TWDP family.
_MARCUM_A_MAX = math.sqrt(4.0 * K_MAX_SUPPORTED)


def marcum_q1(a, b):
    """First-order Marcum Q function Q1(a, b) for 0 <= a <= 200.

    Q1(a, b) = P[M <= N] for M ~ Poisson(b^2 / 2) and N ~ Poisson(a^2 / 2):
    the Rician survival at K = a^2 / 2 and unit sigma, taken from the
    Poisson mixture of the TWDP CDF (``_cdf_sums`` at Delta = 0) as one
    minus its lower sum where that is at most 1/2, and as its upper sum
    elsewhere. It is within 3e-15 absolute of scipy's chndtr on random pairs
    in [0, 60]^2, and the upper tail keeps its relative digits where chndtr
    has none: exact to rounding at Q1(1, 8) = 3.7e-12 (chndtr: 4.5e-5
    relative) and 4.7e-9 relative at Q1(20, 27) = 1.5e-12 (chndtr: 5.9e-4).
    Deeper in the tail the support's cut-off P[N > J] <= e^-40 limits the
    relative error: 2.6e-6 at Q1(10, 19) = 1.6e-19.

    Accepts scalars or arrays (broadcast, elementwise); scalar input gives
    a float. Pairs are grouped by distinct a, one mixture each, and cost
    grows with a^2: one a against 3000 b takes 2 ms at a = 1, 18 ms at
    a = 30 and 0.24 s at a = 200, and 3000 pairs of distinct a in [0, 60]
    about 0.9 s, where chndtr took 3 ms (2 vCPUs). An a above
    200 = sqrt(4 K_MAX_SUPPORTED), the largest noncentrality amplitude of
    the supported TWDP family, raises DomainError.
    """
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if not (np.all(np.isfinite(a_arr)) and np.all(np.isfinite(b_arr))):
        raise DomainError("marcum_q1 arguments must be finite")
    if np.any(a_arr < 0) or np.any(b_arr < 0):
        raise DomainError("marcum_q1 arguments must be nonnegative")
    if np.any(a_arr > _MARCUM_A_MAX):
        raise DomainError(f"marcum_q1 argument a={a_arr.max():g} exceeds the supported "
                          f"cap {_MARCUM_A_MAX:g}")
    a_arr, b_arr = np.broadcast_arrays(a_arr, b_arr)
    q = np.empty(a_arr.shape)
    values, group = np.unique(a_arr.ravel(), return_inverse=True)
    for i, value in enumerate(values):
        at = (group == i).reshape(q.shape)
        below, above, _, _ = _cdf_sums(b_arr[at], 0.5 * value * value, 0.0, 1.0)
        q[at] = np.where(below <= 0.5, 1.0 - below, above)
    return float(q) if q.ndim == 0 else q


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


# Cephes's two Chebyshev expansions of i0e (i0.c: z <= 8 in y = z/2 - 2,
# z > 8 in y = 32/z - 2), converted exactly to powers of y and rounded once,
# highest power first.
_I0E_SMALL = (
    -2.2076708232396698e-18, 1.6653972594111192e-17, -5.754153845344732e-17,
    3.9138441014245315e-16, -3.392730546518342e-15, 2.1909731188746867e-14,
    -1.2974016630736014e-13, 7.699344355202896e-13, -4.411545078483895e-12,
    2.4034812232090875e-11, -1.2494776515237521e-10, 6.195275178099863e-10,
    -2.921311153416899e-09, 1.3066334149585426e-08, -5.529439678765027e-08,
    2.2077187798443865e-07, -8.29150375131002e-07, 2.919940895270073e-06,
    -9.610671235640793e-06, 2.9470617209939805e-05, -8.395693252889864e-05,
    0.00022178528132780055, -0.0005432905907593267, 0.001238675404799429,
    -0.002655105653630096, 0.005458963510970197, -0.011130430170094945,
    0.023628907134987744, -0.05650216344310276, 0.2070019212239867)
_I0E_LARGE = (
    -3.616590243937377e-18, -2.415252242972091e-18, 1.0912627295598085e-16,
    7.28569159268454e-17, -1.5439802967306916e-15, -1.0902106979756753e-15,
    1.3877695602039773e-14, 1.1597302973880182e-14, -9.084426022743058e-14,
    -1.0699360750974524e-13, 4.5351957094271396e-13, 9.219461745756084e-13,
    -1.3195243084912007e-12, -6.547323017621943e-12, -6.589509722761254e-12,
    1.4755257580564078e-11, 8.417335146402968e-11, 3.072331511369494e-10,
    1.3862843340475084e-09, 9.292495589273101e-09, 9.27404728642453e-08,
    1.392879223866505e-06, 3.405401859798263e-05, 0.001680275991833931,
    0.40217650944500805)


def _horner(y: np.ndarray, coefs, out=None) -> np.ndarray:
    """The polynomial with coefficients `coefs` (highest power first) at y,
    by Horner's rule, into `out` when given. It starts as y c0 + c1, the
    bits of c0 y + c1."""
    acc = np.multiply(y, coefs[0], out=out)
    acc += coefs[1]
    for c in coefs[2:]:
        acc *= y
        acc += c
    return acc


def _i0e(z, out=None, work=None) -> np.ndarray:
    """Exponentially scaled modified Bessel function, e^-z I0(z), as an
    array, at z >= 0: Cephes's expansions by Horner's rule, within 9e-16
    relative of scipy.special.i0e on [0, 1e6] (two passes per power against
    Clenshaw's three, and no scipy import). 0 at infinity, NaN at NaN.

    The arguments of both expansions, gathered in `out` (z <= 8 first),
    share each Horner step's multiply once the longer expansion has taken
    its first steps alone; the values are then scattered back in place.
    `out` (contiguous; it may be z itself) and the vector `work[0]` (at
    least z.size long, for the sums) are allocated when not given. Only two
    masks and each expansion's gathered z are allocated on every call."""
    z = np.asarray(z, dtype=float)
    if out is None:
        out = np.empty_like(z)
    flat, y = z.reshape(-1), out.reshape(-1)
    acc = (np.empty(flat.size) if work is None else work[0])[:flat.size]
    small = flat <= 8.0
    large = ~small
    m = np.count_nonzero(small)
    root = flat[large]
    np.multiply(flat[small], 0.5, out=y[:m])
    y[:m] -= 2.0
    np.divide(32.0, root, out=y[m:])
    y[m:] -= 2.0
    lead = len(_I0E_SMALL) - len(_I0E_LARGE)
    below = _horner(y[:m], _I0E_SMALL[:lead + 2], acc[:m])
    above = _horner(y[m:], _I0E_LARGE[:2], acc[m:])
    for c_below, c_above in zip(_I0E_SMALL[lead + 2:], _I0E_LARGE[2:]):
        acc *= y
        below += c_below
        above += c_above
    above /= np.sqrt(root, out=root)
    y[small] = below
    y[large] = above
    return out


def _rice_kernel(a, b, prec, out=None, work=None):
    """Rician envelope density over the envelope, prec I0(ab) exp(-(a^2 + b^2)/2)
    as prec i0e(ab) exp(-(a - b)^2/2), for specular amplitude a and envelope
    b in units of sigma, prec = 1/sigma^2, in the broadcast shape of a and b
    (prec broadcasts into it). Exactly 0 where the exponential underflows.

    With lists a, b and prec of equal length it evaluates one kernel per
    triple, packed one after another into one flat vector: every entry has
    the bits of its own kernel's evaluation, while each numpy pass but the
    three per triple spans them all. `out` (a flat vector at least as long
    as the result) receives the kernel and `work[0]` (another) is its
    scratch; either is allocated when not given."""
    pieces = isinstance(a, list)
    if not pieces:
        a, b, prec = [a], [b], [prec]
    shapes = [np.broadcast_shapes(np.shape(p), np.shape(q)) for p, q in zip(a, b)]
    ends = np.cumsum([math.prod(s) for s in shapes]).tolist()
    n = ends[-1] if ends else 0
    kern = (np.empty(n) if out is None else out)[:n]
    gauss = (np.empty(n) if work is None else work[0])[:n]
    spans = list(zip(shapes, [0] + ends, ends))
    for p, q, (shape, start, end) in zip(a, b, spans):
        np.multiply(p, q, out=kern[start:end].reshape(shape))
    _i0e(kern, kern, [gauss])
    for p, q, c, (shape, start, end) in zip(a, b, prec, spans):
        part = kern[start:end].reshape(shape)
        part *= c
        np.subtract(p, q, out=gauss[start:end].reshape(shape))
    gauss *= gauss
    gauss *= -0.5
    kern *= np.exp(gauss, out=gauss)
    return kern if pieces else kern.reshape(shapes[0])


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
    _validate_k_delta_omega(0.0, 0.0, omega)
    return _shaped_like(r, -np.expm1(-arr * arr / omega))


def rice_cdf(r, k: float, omega: float = 1.0):
    """Rician envelope CDF: the TWDP CDF at Delta = 0, whose phase mixture is
    the single Poisson(K), so both tails keep their relative digits."""
    return twdp_cdf(r, FadingParams(k, 0.0, omega))


def rice_pdf(r, k: float, omega: float = 1.0):
    """Closed-form Rician envelope density."""
    arr = _check_r(r)
    s2 = sigma2_from_k(k, omega)
    return _shaped_like(r, arr * _rice_kernel(math.sqrt(2.0 * k), arr / math.sqrt(s2), 1.0 / s2))


def _phase_average(node_sum, k: float, delta: float,
                   relative: bool = False) -> tuple[np.ndarray, int]:
    """Mean over alpha of f(a), a = sqrt(2k(1 + delta cos alpha)).

    ``node_sum(a, w)`` returns sum_i w_i f(a_i) over node amplitudes a, or
    the unweighted sum where w is None. Nested trapezoid doubling on
    [0, 2pi): the n-node set is a subset of the 2n-node set, so T_2n = T_n / 2
    + (midpoint sum) / (2n), and each doubling evaluates only the n new
    midpoints. The integrand depends on alpha only through cos(alpha), so
    the nodes fold onto n/2 + 1 distinct values and the midpoints onto n/2.
    Returns T_2n and 2n once |T_2n - T_n| <= _CDF_TOL everywhere, times
    |T_2n| pointwise when ``relative``.
    """
    def sum_at(cos_alpha, w=None):
        return node_sum(np.sqrt(2.0 * k * (1.0 + delta * cos_alpha)), w)

    n = _CDF_NODES_START
    total = sum_at(*_trapezoid_nodes(n))
    while n < _CDF_NODES_CAP:
        mid = np.cos(np.pi * (2.0 * np.arange(n // 2) + 1.0) / n)
        refined = 0.5 * total + sum_at(mid) / n
        n *= 2
        bound = _CDF_TOL * np.abs(refined) if relative else _CDF_TOL
        if np.all(np.abs(refined - total) <= bound):
            return refined, n
        total = refined
    raise NumericalError(
        f"phase-balance quadrature not converged at {n} nodes for k={k}, delta={delta}")


# ---------------------------------------------------------------------------
# Poisson mixture form of the TWDP CDF
# ---------------------------------------------------------------------------

# Loader's stirlerr(n) = ln n! - ((n + 1/2) ln n - n + ln sqrt(2 pi)) for
# n = 1..15, where its asymptotic series is not yet accurate to double
# precision (entry 0 is unused).
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801])

# A Poisson pmf term below e^-_UNDERFLOW is exactly 0 in double precision,
# and the mixing distribution's mass beyond its last term is below
# e^-_SUPPORT_TAIL (4e-18).
_UNDERFLOW = 750.0
_SUPPORT_TAIL = 40.0

# Rows of pmf terms per block: at most _BLOCK_ROWS, and at most
# _BLOCK_ENTRIES terms (2 MB per temporary), whatever K.
_BLOCK_ROWS = 512
_BLOCK_ENTRIES = 2 ** 18


def _stirlerr(n):
    """ln n! - ((n + 1/2) ln n - n + ln sqrt(2 pi)) at integer-valued n >= 1:
    the table up to 15, Stirling's series above (Loader 2000)."""
    nn = n * n
    with np.errstate(divide="ignore", invalid="ignore"):
        series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn)
                  / nn) / n
    return np.where(n <= 15, _STIRLERR[np.minimum(n, 15).astype(int)], series)


def _poisson_pmf(x, lam):
    """Poisson(lam) pmf at integer-valued x >= 0 in Loader's saddle-point
    form, exp(-stirlerr(x) - bd0(x, lam)) / sqrt(2 pi x). The deviance
    bd0 = x ln(x / lam) + lam - x is taken as x log1p((x - lam) / lam) -
    (x - lam), whose absolute error is a few ulps of |x - lam| (x / lam):
    at x = floor(lam) the pmf is good to a few ulps, where the naive
    x ln(lam) - lam - ln x! loses ~ln(x!) ulps. Below lam / 2 it takes
    ln(x / lam), since (x - lam) / lam rounds to -1 where x is an anchor
    held far below lam."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = (x - lam) / lam
        bd0 = x * np.where(u > -0.5, np.log1p(u), np.log(x / lam)) - (x - lam)
        saddle = np.exp(-_stirlerr(x) - bd0) / np.sqrt(2.0 * math.pi * x)
    return np.where(x == 0, np.exp(-lam), saddle)


def _tail_end(lam, nats):
    """lam + t such that P[N >= lam + t] <= e^-nats for N ~ Poisson(lam)
    (Bernstein: exp(-t^2 / (2 (lam + t / 3))))."""
    return lam + nats / 3.0 + np.sqrt(nats * nats / 9.0 + 2.0 * nats * lam)


def _window(lam, top: int) -> tuple[int, int]:
    """Columns [lo, hi) of 0..top-1 where some Poisson(lam) pmf is not
    exactly 0: below lam - sqrt(2 _UNDERFLOW lam) the pmf is at most
    exp(-(lam - j)^2 / (2 lam)) < e^-_UNDERFLOW, and above
    ``_tail_end(lam, _UNDERFLOW)`` it is below the tail that it starts."""
    low, high = float(lam.min()), float(lam.max())
    hi = min(top, int(math.ceil(_tail_end(high, _UNDERFLOW))) + 1)
    lo = max(0, int(math.floor(low - math.sqrt(2.0 * _UNDERFLOW * low))))
    return min(lo, hi), hi


def _anchors(lam, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's anchor, the integer below lam but at most ``top``, and
    the pmf there. In the window [lo, hi) of any block of rows that holds
    it, an anchor lies in [lo, hi], as ``_poisson_rows`` needs."""
    anchor = np.minimum(np.floor(lam), top)
    return anchor, _poisson_pmf(anchor, lam)


def _poisson_rows(lam, anchor, at_anchor, lo: int, hi: int) -> np.ndarray:
    """Pois(j; lam_i) for j in [lo, hi), one row per lam_i, from the pmf
    ``at_anchor`` at each row's ``anchor`` by ratio products outward:
    Pois(j + 1) = Pois(j) lam / (j + 1) above the anchor and Pois(j - 1) =
    Pois(j) j / lam below it. Every ratio on the way out is at most 1, so
    clipping lam / j and (j + 1) / lam at 1 keeps exactly the factors of
    each side, and no product overflows. Only columns above the lowest
    anchor take upward products, and only those below the highest downward
    ones: about half each where the rows are sorted."""
    j = np.arange(lo, hi, dtype=float)
    rows = np.ones((lam.size, hi - lo))
    up = rows[:, min(int(anchor.min()) + 1 - lo, hi - lo):]     # so j >= 1 there
    np.multiply.outer(lam, 1.0 / j[j.size - up.shape[1]:], out=up)
    np.minimum(up, 1.0, out=up)
    np.cumprod(up, axis=1, out=up)
    with np.errstate(divide="ignore", over="ignore"):
        down = np.multiply.outer(1.0 / lam, j[:max(0, int(anchor.max()) - lo)] + 1.0)
    np.minimum(down, 1.0, out=down)
    np.cumprod(down[:, ::-1], axis=1, out=down[:, ::-1])
    rows[:, :down.shape[1]] *= down
    rows *= at_anchor[:, None]
    return rows


def _block_rows(width: int) -> int:
    return max(1, min(_BLOCK_ROWS, _BLOCK_ENTRIES // width))


def _mixing_tails(k: float, delta: float) -> tuple[np.ndarray, int]:
    """The phase-balance mixture N of Poisson(K (1 + Delta cos alpha)) as its
    two tails, rows P[N <= m - 1] and P[N >= m] for m = 0..J + 1, and the
    trapezoid nodes they converged at. J ends the support: P[N > J] <=
    e^-_SUPPORT_TAIL. The mixing weights W_j = avg_alpha Pois(j; K_alpha) are
    summed over blocks of nodes, each in the window where it is not 0, and
    each tail sums positive weights, so it keeps its relative digits where
    it is small."""
    top = int(math.ceil(_tail_end(k * (1.0 + delta), _SUPPORT_TAIL))) + 1    # J + 1
    step = _block_rows(top)

    def node_sum(a, w):
        lam = 0.5 * a * a
        anchor, at_anchor = _anchors(lam, top)
        weights = np.ones(lam.size) if w is None else w
        mix = np.zeros(top)
        for i in range(0, lam.size, step):
            block = slice(i, i + step)
            lo, hi = _window(lam[block], top)
            rows = _poisson_rows(lam[block], anchor[block], at_anchor[block], lo, hi)
            mix[lo:hi] += np.einsum("ij,i->j", rows, weights[block])
        return np.concatenate([[0.0], np.cumsum(mix), np.cumsum(mix[::-1])[::-1], [0.0]])

    tails, nodes = _phase_average(node_sum, k, delta)
    return tails.reshape(2, top + 1), nodes


def _beyond_support(below, y, n: int) -> np.ndarray:
    """P[M >= n] for M ~ Poisson(y) and n = J + 2, the term of the lower sum
    ``below`` beyond the support, wherever it can decide or change that sum:
    1 where y >= n (the CDF is above 1/2 there, so the term only picks the
    upper sum), pmf(n; y) times its ratio series 1 + y/(n + 1) + ... on rows
    whose lower sum is at most 1/2 and whose bound pmf / (1 - y/(n + 1))
    reaches 2^-60 of it, and 0 elsewhere, where adding it would not change
    a bit of the CDF."""
    tail = np.where(y >= n, 1.0, 0.0)
    rows = np.flatnonzero((below <= 0.5) & (y < n))
    lam = y[rows]
    pmf = _poisson_pmf(float(n), lam)
    need = pmf / (1.0 - lam / (n + 1)) >= 2.0 ** -60 * below[rows]
    rows, lam, pmf = rows[need], lam[need], pmf[need]
    term, series, m = np.ones(rows.size), np.ones(rows.size), n
    while np.any(term > 2.0 ** -60 * series):
        m += 1
        term *= lam / m
        series += term
    tail[rows] = pmf * series
    return tail


def _cdf_sums(r, k: float, delta: float, sigma2: float):
    """Both positive sums of the TWDP CDF at the flat envelopes r, for specular
    power K (1 + Delta cos alpha) and diffuse variance sigma2 per component.

    With y = r^2 / (2 sigma^2), a Rician CDF is P[M > N_alpha] for
    M ~ Poisson(y) and N_alpha ~ Poisson(K (1 + Delta cos alpha)): the
    noncentral chi-square CDF is a Poisson mixture of central ones, each a
    Poisson tail. So the TWDP CDF is P[M > N] for the phase mixture N, whose
    tails are averaged once per (K, Delta) to 1e-13 (``_mixing_tails``).
    Each envelope then takes one pmf row of M over N's support J. Returns
    the lower sum ``below``, sum_m Pois(m; y) P[N <= m - 1] plus P[M >= J + 2]
    beyond the support (``_beyond_support``), the upper sum ``above``,
    sum_m Pois(m; y) P[N >= m] over the support, and the trapezoid nodes and
    row blocks they took. The CDF is ``below`` where that is at most 1/2 and
    1 - ``above`` elsewhere; the survival is the complement. Both add
    positive terms, so each tail keeps its relative digits, down to the
    support's cut-off P[N > J] <= e^-_SUPPORT_TAIL, which ``above`` leaves
    out. The rows go in fixed blocks on the shared pool, each summed on its
    own over the same columns, so a value depends on its envelope alone and
    is the same bits on any number of threads."""
    with np.errstate(over="ignore"):    # beyond 1e154 sigma the CDF is 1 all the same
        y = np.minimum(r ** 2 / (2.0 * sigma2), np.finfo(float).max)
    tails, nodes = _mixing_tails(k, delta)
    top = tails.shape[1]                                                    # J + 2
    anchor, at_anchor = _anchors(y, top)
    step = _block_rows(top)

    def block_sums(i):
        block = slice(i, i + step)
        rows = _poisson_rows(y[block], anchor[block], at_anchor[block], 0, top)
        return np.einsum("ij,kj->ik", rows, tails)

    starts = range(0, y.size, step)
    sums = (executor().map if len(starts) > 1 else map)(block_sums, starts)
    below, above = np.concatenate([np.zeros((0, 2)), *sums]).T
    return below + _beyond_support(below, y, top), above, nodes, len(starts)


def twdp_cdf(r, params: FadingParams):
    """TWDP envelope CDF, the phase-balance average of Rician CDFs with
    specular power K (1 + Delta cos alpha) and common sigma set by K: the
    lower sum of ``_cdf_sums`` where it is at most 1/2, one minus the upper
    sum elsewhere."""
    arr = _check_r(r)
    if params.k > K_MAX_SUPPORTED:      # params passed every other check when built
        raise DomainError(f"k={params.k} exceeds the supported cap {K_MAX_SUPPORTED:g}")
    start = time.perf_counter()
    below, above, nodes, blocks = _cdf_sums(arr.ravel(), params.k, params.delta, params.sigma2)
    out = np.where(below <= 0.5, below, 1.0 - above)
    log.debug("twdp cdf: %d points x %d nodes, %.1f ms on %d threads", below.size, nodes,
              1e3 * (time.perf_counter() - start), max(1, min(threads(), blocks)))
    return _shaped_like(r, np.clip(out, 0.0, 1.0))


def twdp_pdf(r, params: FadingParams):
    """TWDP envelope density, the exact phase-balance average of Rician
    densities (Durgin, Rappaport & de Wolf 2002). Successive sums must agree
    to 1e-13 relative at every envelope: the density spans too many decades
    for an absolute bound."""
    arr = _check_r(r)
    if params.k > K_MAX_SUPPORTED:      # params passed every other check when built
        raise DomainError(f"k={params.k} exceeds the supported cap {K_MAX_SUPPORTED:g}")
    s2 = params.sigma2
    b = arr.ravel() / math.sqrt(s2)

    def kernel_sum(a, w):
        values = _rice_kernel(a[None, :], b[:, None], 1.0 / s2)
        return values.sum(axis=1) if w is None else values @ w

    out, _ = _phase_average(kernel_sum, params.k, params.delta, relative=True)
    return _shaped_like(r, arr.ravel() * out)
