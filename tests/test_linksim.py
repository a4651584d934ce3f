"""BER simulation against closed-form oracles, and the capacity-loss bound."""

import logging
import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from twdpfit import (
    BerCurve,
    DomainError,
    FadingParams,
    NumericalError,
    capacity_loss,
    sample_twdp,
    simulate_ber,
)
from twdpfit import linksim, pool
from twdpfit.linksim import _point_streams


def q_func(x):
    return 0.5 * special.erfc(x / math.sqrt(2.0))


def awgn_ber_oracle(snr_db):
    """Per-bit error of unit-power 4-QAM in pure AWGN: Q(sqrt(SNR))."""
    return q_func(np.sqrt(10.0 ** (np.asarray(snr_db) / 10.0)))


def rayleigh_ber_oracle(snr_db):
    """Closed form for zero-forcing 4-QAM over unit-power scattering."""
    snr = 10.0 ** (np.asarray(snr_db) / 10.0)
    return 0.5 * (1.0 - np.sqrt(snr / (2.0 + snr)))


def mc_sigma(p, n_bits):
    return np.sqrt(np.maximum(p * (1 - p), 1e-300) / n_bits)


class TestSimulateBer:
    def test_symbols_beyond_the_draw_budget_are_refused_before_any_array(self):
        # 64 bytes a symbol for each point in flight at once
        in_flight = min(pool.threads(), 4)
        tracemalloc.start()
        try:
            for n in (linksim.MAX_DRAW_BYTES // (64 * in_flight) + 1, 10 ** 13):
                with pytest.raises(DomainError, match="bytes"):
                    simulate_ber(FadingParams(1.0), [0.0, 10.0, 20.0, 30.0], n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_awgn_limit(self):
        snr = [0.0, 10.0]
        curve = simulate_ber(FadingParams(1e6, 0.0, 1.0), snr, 200_000, seed=3)
        want = awgn_ber_oracle(snr)
        err = np.abs(curve.ber - want)
        assert np.all(err <= 3.0 * mc_sigma(want, 400_000) + 1e-12)

    def test_rayleigh_limit(self):
        snr = [0.0, 10.0, 20.0]
        curve = simulate_ber(FadingParams(0.0, 0.0, 1.0), snr, 200_000, seed=4)
        want = rayleigh_ber_oracle(snr)
        err = np.abs(curve.ber - want)
        assert np.all(err <= 3.0 * mc_sigma(want, 400_000))

    def test_equal_waves_worse_than_rayleigh_at_high_snr(self):
        curve = simulate_ber(FadingParams(10.0, 1.0, 1.0), [30.0], 400_000, seed=5)
        assert curve.ber[0] > rayleigh_ber_oracle(30.0)

    def test_monotone_in_snr(self):
        curve = simulate_ber(FadingParams(3.0, 0.5, 1.0), [0, 10, 20, 30], 100_000, seed=6)
        n_bits = 200_000
        for i in range(3):
            slack = 3.0 * mc_sigma(curve.ber[i], n_bits)
            assert curve.ber[i + 1] <= curve.ber[i] + slack

    def test_reproducible(self):
        a = simulate_ber(FadingParams(2.0, 0.3, 1.0), [10.0], 50_000, seed=9)
        b = simulate_ber(FadingParams(2.0, 0.3, 1.0), [10.0], 50_000, seed=9)
        assert np.array_equal(a.ber, b.ber)

    def test_bounds_and_shapes(self):
        curve = simulate_ber(FadingParams(1.0, 0.0, 1.0), [0, 5], 20_000, seed=1)
        assert isinstance(curve, BerCurve)
        assert len(curve.snr_db) == len(curve.ber) == 2
        assert np.all((curve.ber >= 0) & (curve.ber <= 1))

    def test_bits_independent_of_previous_channel(self):
        # With one Philox key per (point, role), the I bits of point i + 1
        # replayed the first uniforms of point i's channel: [phi1(i) < pi].
        n, seed = 10_000, 7
        for i in range(3):
            channel = _point_streams(seed, i)[0]
            phi1 = 2.0 * np.pi * np.random.Generator(np.random.Philox(channel)).random(n)
            bits = np.random.Generator(np.random.Philox(_point_streams(seed, i + 1)[1]))
            agree = np.mean((bits.random(n) < 0.5) == (phi1 < np.pi))
            assert abs(agree - 0.5) < 5.0 * 0.5 / math.sqrt(n)

    def test_zero_channel_resample_draws_fresh_values(self, monkeypatch):
        seeds = []

        def fake(params, n, seed):
            seeds.append(seed)
            out = sample_twdp(params, n, seed)
            if len(seeds) <= 3:
                out.samples[0] = 0.0      # the first draw and two resamples hit |h| = 0
            return out

        monkeypatch.setattr(linksim, "sample_twdp", fake)
        curve = simulate_ber(FadingParams(1.0, 0.0, 1.0), [10.0], 10_000, seed=1)
        assert len(seeds) == 4 and np.isfinite(curve.ber[0])
        states = [tuple(s.generate_state(4)) for s in seeds]
        assert len(set(states)) == 4

    def test_pinned_curve(self):
        # exact values pinned across versions; five points are more than
        # the cores, so the pool's read-back order is covered too
        curve = simulate_ber(FadingParams(10.0, 1.0, 1.0), [0.0, 5.0, 10.0, 20.0, 30.0],
                             100_000, seed=3)
        assert curve.ber.tolist() == [0.204245, 0.10227, 0.0451, 0.00633, 0.00075]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_curve_independent_of_thread_count(self, pool_threads, workers):
        params, snr = FadingParams(2.0, 0.7, 1.0), [0.0, 10.0, 20.0]
        want = simulate_ber(params, snr, 20_000, seed=11).ber
        pool_threads(workers)
        assert np.array_equal(simulate_ber(params, snr, 20_000, seed=11).ber, want)
        assert pool.threads() == workers

    def test_point_error_reaches_caller(self, monkeypatch):
        calls = []

        def failing(params, n, seed):
            calls.append(seed.spawn_key)
            if seed.spawn_key[0] == 2:
                raise NumericalError("channel draw failed")
            return sample_twdp(params, n, seed)

        monkeypatch.setattr(linksim, "sample_twdp", failing)
        with pytest.raises(NumericalError, match="channel draw failed"):
            simulate_ber(FadingParams(1.0), [0.0, 10.0, 20.0, 30.0], 10_000, seed=1)
        assert (2, 0) in calls

    def test_run_is_logged(self, caplog):
        caplog.set_level(logging.INFO, logger="twdpfit.linksim")
        simulate_ber(FadingParams(1.0), [0.0, 10.0, 20.0], 10_000, seed=1)
        (record,) = [r for r in caplog.records if r.name == "twdpfit.linksim"]
        assert record.levelno == logging.INFO
        message = record.getMessage()
        assert message.startswith("BER curve simulated: 3 SNR points x 10000 symbols, ")
        assert message.endswith(f" s on {min(pool.threads(), 3)} threads")

    def test_too_few_symbols(self):
        with pytest.raises(DomainError):
            simulate_ber(FadingParams(1.0), [10.0], 5000, seed=1)


class TestCapacityLoss:
    def test_endpoints_exact(self):
        assert capacity_loss(0.0) == 0.0
        assert capacity_loss(1.0) == 1.0

    def test_half(self):
        # 1 - log2(1 + sqrt(0.75)), evaluated independently
        want = 1.0 - math.log2(1.0 + math.sqrt(0.75))
        assert want == pytest.approx(0.10003137304700838, abs=1e-12)
        assert capacity_loss(0.5) == pytest.approx(want, abs=1e-12)

    def test_monotone_increasing(self):
        d = np.linspace(0, 1, 201)
        vals = np.array([capacity_loss(x) for x in d])
        assert np.all(np.diff(vals) > 0)

    def test_continuity(self):
        # the slope diverges like 1/sqrt(1 - delta) at the upper endpoint,
        # so the sharp step bound is log2(1 + sqrt(2 h))
        d = np.linspace(0, 1, 2001)
        vals = np.array([capacity_loss(x) for x in d])
        h = d[1] - d[0]
        assert np.max(np.abs(np.diff(vals))) <= math.log2(1 + math.sqrt(2 * h)) + 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            capacity_loss(-0.01)
        with pytest.raises(DomainError):
            capacity_loss(1.01)
