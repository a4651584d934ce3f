"""Sampler and plane-wave field generators."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from twdpfit import (
    DomainError,
    FadingParams,
    PlaneWave,
    PlaneWaveScene,
    rayleigh_cdf,
    sample_twdp,
    synth_field,
)
from twdpfit import fileio, synth


class TestSampleTwdp:
    def test_reproducible_bit_identical(self):
        p = FadingParams(3.0, 0.4, 2.0)
        a = sample_twdp(p, 5000, seed=99)
        b = sample_twdp(p, 5000, seed=99)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seed_differs(self):
        p = FadingParams(3.0, 0.4, 2.0)
        assert not np.array_equal(sample_twdp(p, 100, 1).samples,
                                  sample_twdp(p, 100, 2).samples)

    def test_rayleigh_limit_cdf(self):
        env = sample_twdp(FadingParams(0.0, 0.0, 1.0), 10 ** 6, 5).envelopes
        xs = np.sort(env)
        model = rayleigh_cdf(xs[::500], 1.0)
        emp = (np.arange(len(xs)) / len(xs))[::500]
        assert np.max(np.abs(model - emp)) < 0.005

    def test_deterministic_limit_high_k(self):
        p = FadingParams(1e6, 0.0, 1.0)
        env = sample_twdp(p, 1000, 3).envelopes
        assert np.all(np.abs(env - p.v1) < 0.01 * p.v1)

    def test_mean_power(self):
        env = sample_twdp(FadingParams(10.0, 0.9, 1.0), 10 ** 6, 17).envelopes
        assert np.mean(env ** 2) == pytest.approx(1.0, abs=0.01)

    def test_envelope_independence_lag1(self):
        env = sample_twdp(FadingParams(4.0, 0.7, 1.0), 10 ** 6, 23).envelopes
        x = env - env.mean()
        rho = np.dot(x[:-1], x[1:]) / np.dot(x, x)
        assert abs(rho) < 0.01

    def test_rejects_zero_count(self):
        with pytest.raises(DomainError):
            sample_twdp(FadingParams(1.0), 0, 1)

    def test_count_beyond_the_draw_budget_is_refused_before_any_array(self, monkeypatch):
        # 64 bytes a sample: one sample past the budget is a typed error,
        # raised before any array is made; under a small budget its last
        # sample is still drawn
        tracemalloc.start()
        try:
            for n in (synth.MAX_DRAW_BYTES // 64 + 1, 10 ** 13):
                with pytest.raises(DomainError, match="bytes"):
                    sample_twdp(FadingParams(1.0), n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        monkeypatch.setattr(synth, "MAX_DRAW_BYTES", 64 * 1000)
        assert len(sample_twdp(FadingParams(1.0), 1000, 1).samples) == 1000
        with pytest.raises(DomainError, match="bytes"):
            sample_twdp(FadingParams(1.0), 1001, 1)


def bits_digest(values: np.ndarray) -> str:
    """sha256 of the raw float64 words, so -0.0 and every last bit count."""
    return hashlib.sha256(np.ascontiguousarray(values).view(np.uint64).tobytes()).hexdigest()


class TestGoldenBits:
    """Sample bits pinned across versions of the code, not only between two
    runs of one version: the criterion 3 fixtures and the BER channels are
    drawn by these generators. The digests depend on the platform's cos,
    sin, log and sqrt; they were taken with numpy 2.4 on x86-64 Linux."""

    @pytest.mark.parametrize("k, delta, n, seed, digest", [
        (10.0, 0.9, 100_000, 7,
         "db4a8994ab61835e917d75df7644b67a2fbbb9aab0963c5e3feb8d459aaeb77b"),
        (0.0, 0.0, 1000, 3,
         "d5a2d1f2176608800112e3f8bbf5bee0998ac2066aecc744a46db2ca0185b067"),
        (4.0, 0.5, 12345, np.random.SeedSequence(5),
         "11f704b42d1af111cc0e66383b1c22e554e5abbb9036ef64828e1023d0a5bdf3"),
    ])
    def test_sample_twdp(self, k, delta, n, seed, digest):
        samples = sample_twdp(FadingParams(k, delta, 1.0), n, seed).samples
        assert bits_digest(samples) == digest

    def test_synth_field_diffuse(self):
        scene = PlaneWaveScene(
            waves=[PlaneWave(1.0, (1.0, 0.0, 0.0), 0.3)], wavelength=0.01,
            shape=(5, 4, 3), freq_axis=np.array([30e9, 30.1e9]),
            diffuse_sigma2=0.25, seed=11)
        assert bits_digest(synth_field(scene).h) == (
            "82567deb149f1256a6ebc0a84187ab72e9c511da732977a5a852067ca3700c57")


class TestSynthField:
    def test_single_wave_constant_envelope(self):
        scene = PlaneWaveScene(
            waves=[PlaneWave(1.0, (1.0, 0.0, 0.0), 0.3)],
            wavelength=0.005, shape=(5, 5, 5))
        grid = synth_field(scene)
        assert np.max(np.abs(np.abs(grid.h) - 1.0)) < 1e-12

    def test_standing_wave_nulls_half_wavelength(self):
        # opposite waves: |H(x)| = 2 |cos(2 pi x / lam + phase)|, nulls lam/2 apart
        lam = 0.005
        scene = PlaneWaveScene(
            waves=[PlaneWave(1.0, (1.0, 0.0, 0.0)), PlaneWave(1.0, (-1.0, 0.0, 0.0))],
            wavelength=lam, shape=(81, 1, 1), spacing=0.025)
        grid = synth_field(scene)
        env = np.abs(grid.h[:, 0, 0, 0])
        x = np.arange(81) * 0.025  # in wavelengths
        expected = 2.0 * np.abs(np.cos(2 * np.pi * x))
        assert np.max(np.abs(env - expected)) < 1e-9
        null_positions = x[env < 1e-9]
        assert np.allclose(np.diff(null_positions), 0.5, atol=1e-12)

    def test_two_wave_power_bounds(self):
        scene = PlaneWaveScene(
            waves=[PlaneWave(1.0, (1.0, 0.0, 0.0)),
                   PlaneWave(0.5, (0.0, 1.0, 0.0), 1.1)],
            wavelength=0.005, shape=(9, 9, 9))
        power = np.abs(synth_field(scene).h) ** 2
        assert np.all(power >= 0.25 - 1e-12)
        assert np.all(power <= 2.25 + 1e-12)

    def test_empty_scene_rejected(self):
        with pytest.raises(DomainError):
            synth_field(PlaneWaveScene(waves=[], wavelength=0.005))

    def test_scene_beyond_the_draw_budget_is_refused_when_built(self, monkeypatch):
        # a (1e5)^3 lattice ran out of memory in synth_field; 128 bytes a
        # lattice point and 64 a (point, tone) entry are counted before any
        # array is made
        wave = PlaneWave(1.0, (1.0, 0.0, 0.0))
        tones = 6e10 + np.arange(50_000.0)
        tracemalloc.start()
        try:
            for shape, freqs in (((10 ** 5,) * 3, None), ((9, 9, 9), tones)):
                with pytest.raises(DomainError, match="bytes"):
                    PlaneWaveScene([wave], 0.005, shape, freq_axis=freqs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        monkeypatch.setattr(synth, "MAX_DRAW_BYTES", 8 * (128 + 2 * 64))
        grid = synth_field(PlaneWaveScene([wave], 0.005, (2, 2, 2), freq_axis=tones[:2]))
        assert grid.shape == (2, 2, 2, 2)
        for shape, n_freq in (((2, 2, 2), 3), ((3, 2, 2), 2)):
            with pytest.raises(DomainError, match="bytes"):
                PlaneWaveScene([wave], 0.005, shape, freq_axis=tones[:n_freq])

    def test_written_grid_fits_its_count(self, tmp_path):
        # the writer's peak plus the field stays within the _WRITTEN_BYTES an
        # entry that synth grid counts (rows of about 50 characters here)
        scene = PlaneWaveScene([PlaneWave(1.0, (1.0, 0.0, 0.0)), PlaneWave(0.5, (0.0, 1.0, 0.0))],
                               0.005, (9, 9, 9), freq_axis=6e10 + 1e6 * np.arange(64),
                               diffuse_sigma2=0.1, seed=3)
        grid = synth_field(scene)
        tracemalloc.start()
        try:
            fileio.write_grid(tmp_path / "g.csv", grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak + grid.h.nbytes <= grid.h.size * synth._WRITTEN_BYTES
        assert peak >= 100 * grid.h.size        # the text is held twice

    @pytest.mark.parametrize("shape", [(9, 9), (2.5, 2, 2), (2, 2, 2, 2), (0, 2, 2), 9])
    def test_shape_must_be_three_integers(self, shape):
        # (9, 9) passed every check and synth_field failed to unpack it;
        # (2.5, 2, 2) died in np.arange with a TypeError
        wave = PlaneWave(1.0, (1.0, 0.0, 0.0))
        with pytest.raises(DomainError, match="three integers >= 1"):
            PlaneWaveScene([wave], 0.005, shape)

    def test_shape_is_frozen_as_ints(self):
        scene = PlaneWaveScene([PlaneWave(1.0, (1.0, 0.0, 0.0))], 0.005,
                               np.array([3, 2, 1]))
        assert scene.shape == (3, 2, 1) and all(type(n) is int for n in scene.shape)
        assert synth_field(scene).h.shape == (3, 2, 1, 1)

    def test_non_positive_frequency_rejected(self):
        scene = PlaneWaveScene(waves=[PlaneWave(1.0, (1.0, 0.0, 0.0))], wavelength=0.005,
                               shape=(2, 2, 1), freq_axis=np.array([6e10, 0.0]))
        with pytest.raises(DomainError, match="frequencies must be positive"):
            synth_field(scene)

    def test_direction_must_be_unit(self):
        with pytest.raises(DomainError):
            PlaneWave(1.0, (1.0, 1.0, 0.0))

    @pytest.mark.parametrize("wave", [
        {"amplitude": np.inf}, {"amplitude": np.nan}, {"phase": np.inf}, {"delay": np.nan},
        {"direction": (np.nan, 0.0, 0.0)}, {"direction": (np.inf, 0.0, 0.0)},
    ])
    def test_non_finite_wave_rejected(self, wave):
        with pytest.raises(DomainError):
            PlaneWave(**{"amplitude": 1.0, "direction": (1.0, 0.0, 0.0), **wave})

    def test_delay_rotates_phase_across_tones(self):
        lam = 0.005
        f0 = 299792458.0 / lam
        freqs = f0 + 5e6 * np.arange(4)
        scene = PlaneWaveScene(
            waves=[PlaneWave(1.0, (0.0, 0.0, 1.0), delay=30e-9)],
            wavelength=lam, shape=(2, 2, 1), freq_axis=freqs)
        h = synth_field(scene).h
        phases = np.angle(h[0, 0, 0, :])
        steps = np.diff(np.unwrap(phases))
        assert np.allclose(steps, steps[0], atol=1e-9)
        assert abs(steps[0]) > 0.1

    def test_diffuse_field_reproducible_and_scaled(self):
        scene = PlaneWaveScene(
            waves=[PlaneWave(0.0, (1.0, 0.0, 0.0))],
            wavelength=0.005, shape=(9, 9, 9),
            freq_axis=299792458.0 / 0.005 + 5e6 * np.arange(32),
            diffuse_sigma2=0.25, seed=42)
        g1 = synth_field(scene)
        g2 = synth_field(scene)
        assert np.array_equal(g1.h, g2.h)
        assert np.mean(np.abs(g1.h) ** 2) == pytest.approx(0.5, rel=0.05)

    def test_position_jitter_off_by_default(self):
        scene = PlaneWaveScene(waves=[PlaneWave(1.0, (1.0, 0.0, 0.0))],
                               wavelength=0.005, shape=(4, 4, 4), seed=1)
        jittered = PlaneWaveScene(waves=[PlaneWave(1.0, (1.0, 0.0, 0.0))],
                                  wavelength=0.005, shape=(4, 4, 4), seed=1,
                                  position_jitter=0.004)
        assert not np.array_equal(synth_field(scene).h, synth_field(jittered).h)
