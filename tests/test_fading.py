"""Distribution functions: Marcum Q, parameter conversions, CDFs/PDFs.

Derived expectations are computed by independent oracles inside the tests
(direct Bessel series, noncentral chi-square, Monte Carlo, quadrature), not
by the code paths under test.
"""

import logging
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, special

from twdpfit import (
    DomainError,
    FadingParams,
    NumericalError,
    marcum_q1,
    rayleigh_cdf,
    rice_cdf,
    rice_pdf,
    sigma2_from_k,
    specular_amplitudes,
    twdp_cdf,
    twdp_pdf,
)
from twdpfit import fading, pool
from twdpfit.fading import k_delta_from_amplitudes


def series_oracle_q1(a: float, b: float, cutoff: float = 1e-14) -> float:
    """Direct Bessel-series sum, truncated once terms fall below cutoff.

    Safe only where the unscaled terms are representable; used as the
    independent reference on moderate arguments.
    """
    if b == 0:
        return 1.0
    total = 0.0
    k = 0
    scale = math.exp(-0.5 * (a * a + b * b))
    while True:
        term = (a / b) ** k * special.iv(k, a * b)
        total += term
        if k > max(2.0, a * a / 2.0) and term * scale < cutoff:
            break
        k += 1
        assert k < 100_000
    return total * scale


def scaled_series_oracle_q1(a: float, b: float, n_terms: int = 20_000) -> float:
    """The same Bessel series with exponentially scaled terms over a fixed
    range of orders, summed exactly: a second independent reference where
    a*b is too large for the unscaled sum. Needs terms past n* = (a^2 -
    b^2)/2 whose ive(n, a*b) does not underflow, i.e. a close to b."""
    n = np.arange(n_terms)
    z = a * b
    with np.errstate(divide="ignore"):
        logs = n * math.log(a / b) + np.log(special.ive(n, z)) + z - 0.5 * (a * a + b * b)
    return math.fsum(np.exp(logs))


def poisson_oracle_q1(a: float, b: float) -> float:
    """Q1(a, b) = P[M <= N] for M ~ Poisson(b^2/2) and N ~ Poisson(a^2/2),
    summed over N in 60-digit arithmetic, term by term, until the terms
    fall below 1e-40 of the sum past the peak of both pmf(n; a^2/2) and
    the product, near n = a b / 2: every term is positive, so both tails
    keep their digits."""
    with mpmath.workdps(60):
        lam_n, lam_m = mpmath.mpf(a) ** 2 / 2, mpmath.mpf(b) ** 2 / 2
        pmf_n, pmf_m = mpmath.exp(-lam_n), mpmath.exp(-lam_m)
        cdf_m, total, n = pmf_m, mpmath.mpf(0), 0
        while True:
            term = pmf_n * cdf_m
            total += term
            if n > max(lam_n, a * b / 2) and term < total * mpmath.mpf(10) ** -40:
                return float(total)
            n += 1
            pmf_n *= lam_n / n
            pmf_m *= lam_m / n
            cdf_m += pmf_m


def quad_oracle_q1(a: float, b: float) -> float:
    """Q1 as the tail integral of the Rician density of unit diffuse
    deviation, x I0(a x) exp(-(x^2 + a^2)/2), written with i0e so no term
    overflows. Integrates the side of b away from the peak at x ~ a, so
    the result never is a small difference of two numbers near 1."""
    def density(x):
        return x * special.i0e(a * x) * math.exp(-0.5 * (x - a) ** 2)

    if b >= a:
        return integrate.quad(density, b, math.inf, epsabs=1e-14, limit=200)[0]
    return 1.0 - integrate.quad(density, 0.0, b, epsabs=1e-14, limit=200)[0]


def rice_cdf_quad(r: float, k: float) -> float:
    """Rician CDF (omega = 1) by quadrature of the density in units of
    sigma: from 0 with a relative tolerance where that is at most 1/2, so
    the lower tail keeps its relative digits, else one minus the upper
    tail."""
    a, b = math.sqrt(2.0 * k), r * math.sqrt(2.0 * (1.0 + k))

    def density(x):
        return x * special.i0e(a * x) * math.exp(-0.5 * (x - a) ** 2)

    lower = integrate.quad(density, 0.0, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    if lower <= 0.5:
        return lower
    return 1.0 - integrate.quad(density, b, math.inf, epsabs=1e-15, limit=200)[0]


def chndtr_phase_average(r, k, delta):
    """The TWDP CDF as the phase-balance average of scipy's 2-dof noncentral
    chi-square CDF (chndtr) over the package's trapezoid doubling: the
    algorithm before the Poisson mixture, kept as an oracle."""
    b2 = np.ravel(r) ** 2 / sigma2_from_k(k)

    def node_sum(a, w):
        a2 = np.where(a * a < np.finfo(float).tiny, 0.0, a * a)
        values = special.chndtr(b2[:, None], 2.0, a2[None, :])
        return values.sum(axis=1) if w is None else values @ w

    out, _ = fading._phase_average(node_sum, k, delta)
    return np.clip(out, 0.0, 1.0).reshape(np.shape(r))


def fixed_trapezoid(n_nodes):
    """The n_nodes-point trapezoid rule over the phase balance, folded onto
    the distinct cos(alpha) values: (cos_alpha, weights)."""
    m = n_nodes // 2 + 1
    w = np.full(m, 2.0 / n_nodes)
    w[0] = w[-1] = 1.0 / n_nodes
    return np.cos(2.0 * np.pi * np.arange(m) / n_nodes), w


def twdp_cdf_reference(r, k, delta, n_nodes=8192):
    """TWDP CDF by a fixed n_nodes-point trapezoid rule over the phase
    balance, summed exactly with math.fsum, so rounding stays far below
    the 1e-13 under test."""
    cos_alpha, w = fixed_trapezoid(n_nodes)
    a2 = 2.0 * k * (1.0 + delta * cos_alpha)
    sigma2 = 1.0 / (2.0 * (1.0 + k))  # omega = 1
    return np.array([math.fsum(w * special.chndtr(x * x / sigma2, 2.0, a2))
                     for x in np.ravel(r)]).reshape(np.shape(r))


def twdp_pdf_reference(r, k, delta, n_nodes=8192):
    """TWDP density by a fixed n_nodes-point trapezoid rule over the phase
    balance of Rician densities, summed exactly with math.fsum.

    Each Rician density is written in units of sigma, with specular
    amplitude a = sqrt(2K(1 + Delta cos alpha)) and b = x / sigma, as
    x / sigma^2 I0(a b) exp(-(a - b)^2 / 2). Far in the tail, rounding in
    that exponent alone differs by ~1e-13 relative between algebraically
    equal forms (by ln pdf ~ -400), so the reference keeps this form and
    tests the quadrature rather than that rounding."""
    cos_alpha, w = fixed_trapezoid(n_nodes)
    s2 = 1.0 / (2.0 * (1.0 + k))  # omega = 1
    a = np.sqrt(2.0 * k * (1.0 + delta * cos_alpha))
    out = []
    for x in np.ravel(r):
        b = x / math.sqrt(s2)
        out.append(math.fsum(w * special.i0e(a * b) * np.exp(-0.5 * (a - b) ** 2)) * x / s2)
    return np.array(out).reshape(np.shape(r))


def mc_envelopes(k, delta, omega, n, seed):
    """Monte Carlo draws of the two-wave-plus-diffuse sum, written
    independently of the package sampler."""
    rng = np.random.default_rng(seed)
    scale = 0.5 * math.sqrt(k / (k + 1.0) * omega) if k > 0 else 0.0
    v1 = scale * (math.sqrt(1 + delta) + math.sqrt(1 - delta))
    v2 = scale * (math.sqrt(1 + delta) - math.sqrt(1 - delta))
    sig = math.sqrt(omega / (2.0 * (1.0 + k)))
    p1 = rng.uniform(0, 2 * np.pi, n)
    p2 = rng.uniform(0, 2 * np.pi, n)
    z = v1 * np.exp(1j * p1) + v2 * np.exp(1j * p2) \
        + rng.normal(0, sig, n) + 1j * rng.normal(0, sig, n)
    return np.abs(z)


class TestMarcumQ:
    def test_b_zero_is_one(self):
        assert marcum_q1(3.0, 0.0) == 1.0

    def test_a_zero_is_gaussian_tail(self):
        assert marcum_q1(0.0, 1.0) == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_series_oracle_at_1_1(self):
        oracle = series_oracle_q1(1.0, 1.0)
        assert oracle == pytest.approx(0.7328798037968204, abs=1e-13)  # frozen
        assert marcum_q1(1.0, 1.0) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("a,b", [
        (0.3, 0.1), (0.5, 2.0), (2.0, 0.5), (3.0, 3.0), (5.0, 1.0), (1.0, 5.0),
    ])
    def test_against_series_oracle(self, a, b):
        assert marcum_q1(a, b) == pytest.approx(series_oracle_q1(a, b), abs=1e-10)

    def test_against_ncx2_sweep(self):
        # marcum_q1 is the Rician survival of the package's Poisson mixture;
        # the reference is the quadratured Rician tail, which shares no code
        # with it
        rng = np.random.default_rng(11)
        a = rng.uniform(0, 60, 300)
        b = rng.uniform(0, 60, 300)
        got = marcum_q1(a, b)
        want = np.array([quad_oracle_q1(ai, bi) for ai, bi in zip(a, b)])
        assert np.max(np.abs(got - want)) < 1e-10

    def test_large_arguments_no_overflow(self):
        # K up to the documented cap: a = sqrt(2*2*1e4) = 200
        for a, b in [(200.0, 199.0), (199.0, 200.0), (200.0, 0.3), (0.2, 150.0),
                     (63.0, 63.0), (140.0, 141.0)]:
            q = marcum_q1(a, b)
            assert 0.0 <= q <= 1.0
            assert q == pytest.approx(quad_oracle_q1(a, b), abs=1e-10)
            if abs(a - b) <= 1.0:
                assert q == pytest.approx(scaled_series_oracle_q1(a, b), abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            marcum_q1(-1.0, 1.0)
        with pytest.raises(DomainError):
            marcum_q1(np.nan, 1.0)
        with pytest.raises(DomainError):
            marcum_q1(1.0, np.inf)

    @given(st.floats(0, 30), st.floats(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_bounds_property(self, a, b):
        assert 0.0 <= marcum_q1(a, b) <= 1.0

    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
    def test_upper_tail_against_poisson_oracle(self, a):
        # scipy's chndtr is 4.5e-5 relative off at Q1(1, 8) = 3.7e-12 and
        # 5.9e-4 at Q1(20, 27) = 1.5e-12; the mixture's upper sum keeps
        # relative digits down to its support's cut-off (2.6e-6 relative
        # at Q1(10, 19) = 1.6e-19)
        b = a + np.array([3.0, 5.0, 7.0, 9.0])
        got = marcum_q1(a, b)
        want = np.array([poisson_oracle_q1(a, bi) for bi in b])
        assert np.all(np.abs(got - want) <= 1e-13)
        big = want >= 1e-12
        assert np.all(np.abs(got - want)[big] <= 1e-8 * want[big])

    def test_broadcast_shapes(self):
        b = np.linspace(0.0, 6.0, 7)
        row = marcum_q1(2.0, b)
        assert row.shape == (7,)
        assert np.array_equal(row, [marcum_q1(2.0, bi) for bi in b])
        a = np.array([[0.0], [1.0], [2.0]])
        grid = marcum_q1(a, b)
        assert grid.shape == (3, 7)
        assert np.array_equal(grid, [[marcum_q1(ai, bi) for bi in b] for ai in a[:, 0]])
        assert marcum_q1(np.array([]), 1.0).shape == (0,)
        assert marcum_q1(np.zeros((2, 0)), np.array([])).shape == (2, 0)

    def test_scalar_input_gives_float(self):
        assert type(marcum_q1(1.0, 2.0)) is float
        assert type(marcum_q1(np.float64(1.0), 2)) is float

    def test_amplitude_cap(self):
        # a = 200 = sqrt(4 K_MAX_SUPPORTED), the largest noncentrality
        # amplitude of the supported TWDP family; cost grows with a^2
        assert 0.0 <= marcum_q1(200.0, 200.0) <= 1.0
        with pytest.raises(DomainError, match="cap 200"):
            marcum_q1(np.nextafter(200.0, np.inf), 1.0)
        with pytest.raises(DomainError, match="cap 200"):
            marcum_q1(np.array([1.0, 1000.0]), 1.0)


class TestParamConversions:
    @pytest.mark.parametrize("k,omega,expected", [
        (0.0, 1.0, 0.5),
        (1.0, 1.0, 0.25),
        (3.0, 2.0, 0.25),
    ])
    def test_sigma2(self, k, omega, expected):
        assert sigma2_from_k(k, omega) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("v1,v2,sigma2", [
        (np.nan, 1.0, 1.0), (1.0, np.nan, 1.0), (1.0, 1.0, np.nan),
        (np.inf, 1.0, 1.0), (1.0, np.inf, 1.0), (1.0, 1.0, np.inf),
    ])
    def test_amplitudes_reject_non_finite(self, v1, v2, sigma2):
        # (nan, 1, 1) gave (nan, nan) and (1, 1, inf) gave (0.0, 1.0)
        with pytest.raises(DomainError):
            k_delta_from_amplitudes(v1, v2, sigma2)

    def test_sigma2_rejects_bad_omega(self):
        with pytest.raises(DomainError):
            sigma2_from_k(1.0, 0.0)
        with pytest.raises(DomainError):
            sigma2_from_k(1.0, -2.0)

    def test_amplitude_examples(self):
        v1, v2 = specular_amplitudes(1.0, 0.0, 1.0)
        assert v1 == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert v2 == 0.0
        v1, v2 = specular_amplitudes(1.0, 1.0, 1.0)
        assert (v1, v2) == (pytest.approx(0.5, abs=1e-12), pytest.approx(0.5, abs=1e-12))
        assert specular_amplitudes(0.0, 0.0, 1.0) == (0.0, 0.0)

    def test_amplitude_domain(self):
        with pytest.raises(DomainError):
            specular_amplitudes(1.0, 1.5, 1.0)
        with pytest.raises(DomainError):
            specular_amplitudes(1.0, -0.1, 1.0)

    def test_round_trip_grid(self):
        # (k, delta) -> (v1, v2, sigma2) -> (k, delta) across the full grid
        ks = np.arange(0, 100.0001, 0.05)
        deltas = np.arange(0, 1.0001, 0.05)
        worst = 0.0
        for k in ks:
            s2 = sigma2_from_k(float(k), 1.0)
            for d in deltas:
                v1, v2 = specular_amplitudes(float(k), float(d), 1.0)
                k2, d2 = k_delta_from_amplitudes(v1, v2, s2)
                worst = max(worst, abs(k2 - k), abs(d2 - d) if k > 0 else 0.0)
        assert worst < 1e-10

    def test_power_budget_invariant(self):
        for k, d, om in [(0.0, 0.0, 1.0), (7.0, 0.3, 2.5), (100.0, 1.0, 0.1)]:
            p = FadingParams(k, d, om)
            total = p.v1 ** 2 + p.v2 ** 2 + 2 * p.sigma2
            assert total == pytest.approx(om, rel=1e-12)
            assert p.v1 >= p.v2 >= 0.0


@pytest.mark.parametrize("omega", [0.0, -1.0, np.nan, np.inf])
def test_rayleigh_cdf_rejects_bad_omega(omega):
    # nan gave nan and inf gave 0.0
    with pytest.raises(DomainError, match="omega"):
        rayleigh_cdf(1.0, omega)


class TestRiceCdf:
    def test_rayleigh_special_case(self):
        assert rice_cdf(1.0, 0.0, 1.0) == pytest.approx(1 - math.exp(-1.0), abs=1e-12)

    def test_zero_radius(self):
        assert rice_cdf(0.0, 4.0, 1.0) == 0.0

    def test_against_monte_carlo(self):
        n = 10 ** 6
        r = mc_envelopes(4.0, 0.0, 1.0, n, seed=101)
        emp = np.mean(r <= 2.0)
        assert rice_cdf(2.0, 4.0, 1.0) == pytest.approx(emp, abs=0.002)

    def test_negative_radius(self):
        with pytest.raises(DomainError):
            rice_cdf(-0.1, 1.0)

    @pytest.mark.parametrize("k", [10.0, 100.0])
    def test_lower_tail_keeps_its_digits(self, k):
        # 1 - Q1 rounded every value below ~1e-16 to 0; rice_cdf(0.3, 100)
        # is 1.405e-23
        r = np.linspace(0.05, 0.6, 12)
        want = np.array([rice_cdf_quad(x, k) for x in r])
        got = rice_cdf(r, k, 1.0)
        keep = want >= np.finfo(float).tiny
        assert keep.sum() >= 8
        assert np.all(np.abs(got[keep] - want[keep]) <= 1e-12 * want[keep])
        assert rice_cdf(0.3, 100.0) == pytest.approx(1.405e-23, rel=1e-3)

    @pytest.mark.parametrize("r,k", [(0.016, 100.0), (0.668, 2869.0), (0.914, 8750.0)])
    def test_deep_lower_tail_against_quadrature(self, r, k):
        # scipy's chndtr is 3.9e-3, 8.4e-7 and 2.0e-12 off at these points
        want = rice_cdf_quad(r, k)
        assert abs(rice_cdf(r, k) - want) <= 1e-12 * want


class TestTwdpCdf:
    def test_reduces_to_rice(self):
        # the Rician CDF as scipy's 2-dof noncentral chi-square CDF, which
        # shares no code with the mixture
        r = np.linspace(0, 3, 100)
        for k in (0.5, 4.0, 50.0):
            got = twdp_cdf(r, FadingParams(k, 0.0, 1.0))
            want = special.chndtr(r * r * 2.0 * (1.0 + k), 2.0, 2.0 * k)
            assert np.max(np.abs(got - want)) < 1e-13

    def test_reduces_to_rayleigh(self):
        r = np.linspace(0, 3, 100)
        got = twdp_cdf(r, FadingParams(0.0, 0.7, 2.0))
        want = rayleigh_cdf(r, 2.0)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_against_monte_carlo(self):
        r = mc_envelopes(10.0, 0.9, 1.0, 10 ** 6, seed=55)
        emp = np.mean(r <= 1.0)
        assert twdp_cdf(1.0, FadingParams(10.0, 0.9, 1.0)) == pytest.approx(emp, abs=0.003)

    def test_monotone_and_bounded(self):
        r = np.linspace(0, 5, 400)
        for k, d in [(0.0, 0.0), (3.0, 0.5), (40.0, 1.0)]:
            f = twdp_cdf(r, FadingParams(k, d, 1.0))
            assert np.all(np.diff(f) >= -1e-12)
            assert np.all((f >= 0) & (f <= 1))
            assert f[0] == 0.0

    def test_deep_fade_crossing_vs_rayleigh(self):
        # two equal strong waves fade deeper than pure scattering
        r_probe = 0.05
        mc = np.mean(mc_envelopes(10.0, 1.0, 1.0, 10 ** 6, seed=7) <= r_probe)
        ray = rayleigh_cdf(r_probe, 1.0)
        assert mc > ray  # Monte Carlo confirms the sign first
        assert twdp_cdf(r_probe, FadingParams(10.0, 1.0, 1.0)) > ray

    def test_k_cap_enforced(self):
        with pytest.raises(DomainError):
            twdp_cdf(1.0, FadingParams(2e4, 0.5, 1.0))

    @pytest.mark.parametrize("k", [0.0, 0.05, 4.0, 10.0, 30.0, 100.0, 1000.0, 1e4])
    def test_converged_against_fixed_8192_node_rule(self, k):
        # spans the bulk and both tails of every (K, Delta) on the grid
        r = np.linspace(0.0, 3.0, 41).reshape(1, 41, 1)
        for delta in (0.0, 0.3, 0.9, 1.0):
            p = FadingParams(k, delta, 1.0)
            want = twdp_cdf_reference(r, k, delta)
            got = twdp_cdf(r, p)
            assert got.shape == r.shape
            assert np.max(np.abs(got - want)) <= 1e-13
            for i in (0, 13, 20, 33):
                x = float(r.ravel()[i])
                got_scalar = twdp_cdf(x, p)
                assert isinstance(got_scalar, float)
                assert abs(got_scalar - float(want.ravel()[i])) <= 1e-13

    def test_unconverged_quadrature_raises(self, monkeypatch):
        # a tolerance no sum can meet drives the doubling to its node cap
        monkeypatch.setattr(fading, "_CDF_TOL", -1.0)
        with pytest.raises(NumericalError, match="32768 nodes"):
            twdp_cdf(1.0, FadingParams(10.0, 0.9, 1.0))

    def test_empty_input(self):
        out = twdp_cdf(np.array([]), FadingParams(10.0, 0.9, 1.0))
        assert out.shape == (0,)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_same_bits_on_any_number_of_threads(self, pool_threads, workers):
        # fixed blocks of pmf rows, each summed on its own: the bits do not
        # depend on how many threads share the blocks (10 of them here),
        # also for a scalar on more threads than envelopes
        p = FadingParams(30.0, 0.9, 1.0)
        r = np.linspace(0.0, 3.0, 5000)
        pool_threads(1)
        many, one = twdp_cdf(r, p), twdp_cdf(r[400], p)
        pool_threads(workers)
        assert np.array_equal(twdp_cdf(r, p), many)
        assert twdp_cdf(r[400], p) == one

    def test_each_cdf_is_logged_at_debug(self, caplog, pool_threads):
        # "nodes" counts the phase nodes of the mixing weights; 999 points
        # at K = 10 are two blocks of pmf rows
        pool_threads(2)
        caplog.set_level(logging.DEBUG, logger="twdpfit.fading")
        twdp_cdf(np.linspace(0.0, 3.0, 999), FadingParams(10.0, 0.9, 1.0))
        twdp_cdf(1.0, FadingParams(10.0, 0.9, 1.0))
        many, one = [r.getMessage() for r in caplog.records if r.name == "twdpfit.fading"]
        assert re.fullmatch(r"twdp cdf: 999 points x \d+ nodes, [\d.]+ ms on 2 threads", many)
        assert re.fullmatch(r"twdp cdf: 1 points x \d+ nodes, [\d.]+ ms on 1 threads", one)

    def test_far_upper_tail_is_one(self):
        # far beyond N's support the row anchors sit at its end, far below
        # y, and past r = 1e154 y is the largest double: each gives exactly
        # 1, with no numpy warning
        r = np.array([0.5, 10.0, 1e10, 1e200, 1.7e308])
        for k in (0.0, 10.0, 1000.0):
            f = twdp_cdf(r, FadingParams(k, 0.9, 1.0))
            assert f[0] < 1.0 and np.all(f[1:] == 1.0)

    @pytest.mark.parametrize("k", [10.0, 30.0, 1000.0])
    def test_sorted_points_give_nondecreasing_bits(self, k):
        # fit --overlay evaluates the CDF at every sorted fit envelope, and
        # its column must not step down, also where F is within 1e-16 of 1
        p = FadingParams(k, 0.9, 1.0)
        for r in (np.linspace(0.0, 4.0, 10_000), np.sort(mc_envelopes(k, 0.9, 1.0, 10_000, 3))):
            f = twdp_cdf(r, p)
            assert np.all(np.diff(f) >= 0.0)
            assert f[-1] <= 1.0

    def test_large_input_in_bounded_memory(self):
        # the overlay of a 4e6-envelope fit: 4e5 points at K = 1000 would be
        # 7 GB of pmf terms at once; blocks keep the peak to a few arrays
        # of one float per point and a few blocks per thread
        r = np.sort(mc_envelopes(1000.0, 0.9, 1.0, 400_000, 5))
        p = FadingParams(1000.0, 0.9, 1.0)
        twdp_cdf(r[:10], p)
        tracemalloc.start()
        try:
            f = twdp_cdf(r, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_point, block = 8 * r.size, 8 * fading._BLOCK_ENTRIES
        assert peak <= 10 * per_point + 4 * pool.threads() * block
        assert np.all(np.diff(f) >= 0.0)
        assert f[0] >= 0.0 and f[-1] <= 1.0


class TestTwdpPdf:
    def test_k_cap_enforced(self):
        with pytest.raises(DomainError, match="supported cap"):
            twdp_pdf(1.0, FadingParams(2e4, 0.5, 1.0))

    def test_normalization(self):
        p = FadingParams(5.0, 0.5, 1.0)
        upper = 6.0 * math.sqrt(p.omega) * (1.0 + math.sqrt(p.k))
        val, _ = integrate.quad(lambda r: twdp_pdf(r, p), 0, upper, limit=200)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_matches_analytic_rice(self):
        r = np.linspace(0.01, 3, 50)
        for k in (0.5, 8.0):
            got = twdp_pdf(r, FadingParams(k, 0.0, 1.0))
            want = rice_pdf(r, k, 1.0)
            assert np.all(np.abs(got - want) <= 1e-13 * want)

    def test_matches_rayleigh(self):
        r = np.linspace(0.01, 3, 50)
        got = twdp_pdf(r, FadingParams(0.0, 0.0, 1.0))
        want = 2 * r * np.exp(-r ** 2)  # omega = 1
        assert np.all(np.abs(got - want) <= 1e-13 * want)

    def test_nonnegative(self):
        r = np.linspace(0, 4, 100)
        assert np.all(twdp_pdf(r, FadingParams(30.0, 0.9, 1.0)) >= 0)

    @pytest.mark.parametrize("k", [0.0, 0.05, 4.0, 10.0, 30.0, 100.0, 1000.0, 1e4])
    def test_converged_against_fixed_8192_node_rule(self, k):
        # bulk, both tails, and spikes beyond the table's r_max = 4
        r = np.concatenate([np.linspace(0.0, 3.0, 41), np.linspace(4.1, 8.0, 14)])
        r = r.reshape(1, 55, 1)
        for delta in (0.0, 0.3, 0.9, 1.0):
            p = FadingParams(k, delta, 1.0)
            want = twdp_pdf_reference(r, k, delta)
            got = twdp_pdf(r, p)
            assert got.shape == r.shape
            keep = want > 1e-280
            assert np.all(np.abs(got[keep] - want[keep]) <= 1e-13 * want[keep])
            # a lone point may stop at fewer nodes than the whole array
            # (each sum stops at its own 1e-13), so it is compared with the
            # same point evaluated as an array
            for i in (0, 13, 20, 33, 50):
                x = float(r.ravel()[i])
                got_scalar = twdp_pdf(x, p)
                assert isinstance(got_scalar, float)
                assert got_scalar == twdp_pdf(np.array([x]), p)[0]

    def test_unconverged_quadrature_raises(self, monkeypatch):
        monkeypatch.setattr(fading, "_CDF_TOL", -1.0)
        with pytest.raises(NumericalError, match="32768 nodes"):
            twdp_pdf(1.0, FadingParams(10.0, 0.9, 1.0))

    def test_empty_input(self):
        out = twdp_pdf(np.array([]), FadingParams(10.0, 0.9, 1.0))
        assert out.shape == (0,)


@pytest.mark.parametrize("a2", [5e-324, 1e-320, 1e-315, 4.4e-313])
def test_subnormal_noncentrality_equals_zero(a2):
    # to double precision Q1 and the mixture CDFs at a subnormal
    # noncentrality are their K = 0 values (scipy's chndtr errs there, by
    # 3.6e-4 at 1e-320)
    r = np.linspace(0.0, 4.0, 41)
    assert np.array_equal(rice_cdf(r, a2 / 2), rice_cdf(r, 0.0))
    for delta in (0.0, 0.5, 1.0):
        assert np.array_equal(twdp_cdf(r, FadingParams(a2 / 2, delta)),
                              twdp_cdf(r, FadingParams(0.0, delta)))
    assert np.array_equal(marcum_q1(math.sqrt(a2), r), marcum_q1(0.0, r))
    assert rice_cdf(1.5, a2 / 2) == pytest.approx(rayleigh_cdf(1.5), rel=1e-15, abs=0)


@given(
    k=st.floats(0, 100),
    delta=st.floats(0, 1),
    r1=st.floats(0, 4),
    r2=st.floats(0, 4),
)
@settings(max_examples=60, deadline=None)
@example(k=2.2250738585e-313, delta=0.0, r1=0.0, r2=1.5)   # a subnormal K once failed
def test_pdf_integrates_to_cdf_property(k, delta, r1, r2):
    lo, hi = min(r1, r2), max(r1, r2)
    p = FadingParams(k, delta, 1.0)
    mass, _ = integrate.quad(lambda r: twdp_pdf(r, p), lo, hi, epsabs=1e-14, limit=200)
    assert mass == pytest.approx(twdp_cdf(hi, p) - twdp_cdf(lo, p), abs=1e-12)


@given(
    k=st.floats(0, 100),
    delta=st.floats(0, 1),
    r1=st.floats(0, 4),
    r2=st.floats(0, 4),
)
@settings(max_examples=30, deadline=None)
def test_cdf_monotone_property(k, delta, r1, r2):
    lo, hi = min(r1, r2), max(r1, r2)
    p = FadingParams(k, delta, 1.0)
    assert twdp_cdf(lo, p) <= twdp_cdf(hi, p) + 1e-12


@given(
    k=st.floats(0, 1e4),
    delta=st.floats(0, 1),
    r=st.floats(0, 4),
)
@settings(max_examples=60, deadline=None)
@example(k=100.0, delta=0.0, r=0.016)        # chndtr is 3.9e-3 off at F = 2.8e-45
@example(k=8750.0, delta=0.0, r=0.914)       # and 2.2e-12 off at F = 2.8e-30
@example(k=1e4, delta=1.0, r=1.0)
def test_cdf_matches_chndtr_phase_average_property(k, delta, r):
    p = FadingParams(k, delta, 1.0)
    got = twdp_cdf(r, p)
    assert abs(got - float(chndtr_phase_average(r, k, delta))) <= 1e-13
    if delta == 0.0:
        # relative digits in the lower tail: chndtr loses them there (see
        # the examples), the quadrature keeps them wherever it is normal
        want = rice_cdf_quad(r, k)
        if want >= np.finfo(float).tiny:
            assert abs(got - want) <= 1e-12 * want


def test_stirlerr_table():
    # Loader's table of ln n! - ((n + 1/2) ln n - n + ln sqrt(2 pi)); the
    # lgamma difference loses ~ln(n!) ulps, hence the looser bound
    n = np.arange(1.0, 40.0)
    want = [math.lgamma(m + 1) - (m + 0.5) * math.log(m) + m - 0.5 * math.log(2 * math.pi)
            for m in n]
    assert np.allclose(fading._stirlerr(n), want, rtol=0, atol=2e-14)


def test_i0e_matches_scipy():
    # Cephes's expansions in monomial form by Horner's rule, against scipy's
    # Clenshaw sums of the same expansions
    z = np.concatenate([np.linspace(0.0, 1e6, 100_001), np.linspace(0.0, 40.0, 40_001),
                        np.geomspace(1e-300, 1e6, 2001), [0.0, 8.0, np.nextafter(8.0, 9.0)]])
    assert np.all(np.abs(fading._i0e(z) / special.i0e(z) - 1.0) <= 5e-15)
    edge = fading._i0e(np.array([np.inf, np.nan]))
    assert edge[0] == 0.0 and np.isnan(edge[1])


def test_packed_kernels_have_the_bits_of_each_broadcast():
    # rows' kernel pieces packed into one vector, in caller buffers that
    # hold stale values, against each piece's own broadcast evaluation; the
    # entries reach i0e at 0, 8 and just above, infinity and NaN
    rng = np.random.default_rng(12)
    eight = np.nextafter(8.0, 9.0)
    a = [rng.uniform(0.0, 20.0, (7, 1)), np.array([[0.0], [2.0], [1.0], [1.0]]),
         np.array([1.0, np.nan]), np.array(3.5)]
    b = [np.sort(rng.uniform(0.0, 60.0, 300)), np.array([0.0, 4.0, eight, np.inf]),
         np.array([np.inf, 2.0]), rng.uniform(0.0, 9.0, (3, 5))]
    prec = [0.25, 2.0, 1.5, rng.uniform(0.5, 2.0, 5)]
    with np.errstate(invalid="ignore"):        # 0 * inf
        want = [fading._rice_kernel(p, q, c) for p, q, c in zip(a, b, prec)]
        n = sum(w.size for w in want)
        out, work = np.full(n + 9, np.pi), np.full((2, n + 9), -1.0)
        packed = fading._rice_kernel(a, b, prec, out, work)
    assert [w.shape for w in want] == [(7, 300), (4, 4), (2,), (3, 5)]
    assert np.shares_memory(packed, out) and packed.size == n
    parts = np.split(packed, np.cumsum([w.size for w in want])[:-1])
    for part, w in zip(parts, want):
        assert np.array_equal(part, w.ravel(), equal_nan=True)
    # a * b of the second piece holds 0, 8, nextafter(8, 9) and inf
    z = np.array([0.0, 8.0, eight, np.inf, np.nan, 7.5, 9.0, 1e3])
    assert np.array_equal(fading._i0e(z.copy(), work=work), fading._i0e(z), equal_nan=True)
    in_place = z.copy()
    assert fading._i0e(in_place, in_place, work) is in_place
    assert np.array_equal(in_place, fading._i0e(z), equal_nan=True)


def test_beyond_support_term():
    # P[M >= n] is 1 at y >= n, the ratio series (scipy's gammainc to
    # rounding) where it can change a lower sum of at most 1/2, and 0 where
    # adding gammainc would change no bit of that sum
    n = 78
    rng = np.random.default_rng(4)
    y = rng.uniform(0.0, n + 5.0, 4000)
    below = np.where(rng.random(4000) < 0.8, 10.0 ** rng.uniform(-300, math.log10(0.5), 4000),
                     rng.uniform(0.5, 1.0, 4000))
    tail = fading._beyond_support(below, y, n)
    want = special.gammainc(n, y)
    assert np.all(tail[y >= n] == 1.0)
    inside = (y < n) & (below <= 0.5)
    series = inside & (tail > 0.0)
    assert series.sum() > 100
    assert np.allclose(tail[series], want[series], rtol=1e-13, atol=0)
    skipped = (y < n) & (tail == 0.0)
    assert np.all((below + want == below)[skipped & inside])
    assert np.all(tail[(y < n) & (below > 0.5)] == 0.0)
