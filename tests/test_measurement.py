"""Spatial correlation, power maps, delay-domain processing.

The FFT correlation pipeline is checked against a direct O(N^2) lag-sum
oracle; the averaged-correlation cosine behaviour is checked against the
closed form for a delayed plane wave whose per-tone phases cancel the
finite-window cross term.
"""

import numpy as np
import pytest

from twdpfit import (
    DomainError,
    DirectionalScan,
    GridConfig,
    PlaneWave,
    PlaneWaveScene,
    autocorr2d,
    average_corr,
    cir,
    estimate_omega,
    excess_distance,
    fit_envelopes,
    ml_fit,
    noise_mask,
    power_map,
    synth_field,
    tap_envelopes,
)
from twdpfit.measurement import SPEED_OF_LIGHT, SpatialGrid, _spectral_upsample, _windowed_corr


def direct_corr_oracle(field: np.ndarray) -> np.ndarray:
    """Brute-force compensated correlation at integer lags (zero centered)."""
    nx, ny = field.shape
    out = np.zeros((2 * nx - 1, 2 * ny - 1))
    for lx in range(-(nx - 1), nx):
        for ly in range(-(ny - 1), ny):
            acc = 0.0
            cnt = 0
            for i in range(nx):
                for j in range(ny):
                    i2, j2 = i + lx, j + ly
                    if 0 <= i2 < nx and 0 <= j2 < ny:
                        acc += field[i, j] * field[i2, j2]
                        cnt += 1
            out[lx + nx - 1, ly + ny - 1] = acc / cnt
    return out / out[nx - 1, ny - 1]


def delayed_wave_scene(directions, amplitudes, lam=0.005, n_tones=64,
                       delays=(37e-9,), shape=(9, 9, 1), **kw):
    f0 = SPEED_OF_LIGHT / lam
    freqs = f0 + 1e6 * np.arange(n_tones)   # narrow relative band
    waves = []
    for i, (d, a) in enumerate(zip(directions, amplitudes)):
        waves.append(PlaneWave(a, d, 0.0, delays[i % len(delays)]))
    return PlaneWaveScene(waves=waves, wavelength=lam, shape=shape,
                          freq_axis=freqs, **kw)


class TestNoiseMaskAndPower:
    def make_scan(self, amplitudes, noise, nf=40):
        nd = len(amplitudes)
        samples = np.array([[a] * nf for a in amplitudes], dtype=complex)
        return DirectionalScan(
            azimuth=np.linspace(0, 300, nd),
            elevation=np.full(nd, 90.0),
            samples=samples,
            noise_power=np.asarray(noise, dtype=float),
        )

    def test_boundary_inclusive(self):
        scan = self.make_scan([1.0], [0.1])          # power exactly 10x noise
        assert noise_mask(scan, 10.0)[0]

    def test_just_below_margin(self):
        scan = self.make_scan([np.sqrt(0.999)], [0.1])
        assert not noise_mask(scan, 10.0)[0]

    def test_all_noise_scan(self):
        scan = self.make_scan([0.01, 0.02], [1.0, 1.0])
        assert not noise_mask(scan).any()
        with pytest.raises(DomainError):
            power_map(scan)

    def test_missing_noise_estimate(self):
        scan = self.make_scan([1.0], [np.nan])
        with pytest.raises(DomainError):
            noise_mask(scan)

    def test_single_direction_is_one(self):
        scan = self.make_scan([2.0], [0.001])
        assert power_map(scan)[0] == 1.0

    def test_two_direction_ratio(self):
        scan = self.make_scan([np.sqrt(2.0), 2.0], [1e-4, 1e-4])
        assert np.allclose(power_map(scan), [0.5, 1.0], atol=1e-12)

    def test_masked_direction_nan(self):
        scan = self.make_scan([1.0, 0.01], [1e-3, 1e-3])
        out = power_map(scan)
        assert out[0] == 1.0 and np.isnan(out[1])

    def test_synthetic_beam_peak_at_wave_direction(self):
        # emulate a directive sweep over a single incoming wave
        az = np.arange(0.0, 360.0, 30.0)
        gain = np.exp(-0.5 * ((az - 150.0) / 25.0) ** 2)
        rng = np.random.default_rng(5)
        nf = 40
        samples = gain[:, None] * np.exp(2j * np.pi * rng.random((len(az), nf)))
        scan = DirectionalScan(az, np.full(len(az), 90.0), samples,
                               np.full(len(az), 1e-8))
        out = power_map(scan)
        assert np.nanargmax(out) == 5  # 150 degrees
        assert out[5] == 1.0


class TestNonFiniteMetadata:
    """Range checks written so that NaN fails them too."""

    @pytest.mark.parametrize("fields", [
        {"spacing": np.nan}, {"spacing": np.inf}, {"freq_axis": [np.nan]},
        {"freq_axis": [np.inf]}, {"direction": (np.nan, 90.0)}, {"direction": (10.0, np.inf)},
        {"direction": (360.0, 90.0)}, {"direction": (10.0, 180.5)}, {"direction": (-1.0, 0.0)},
        {"direction": (1.0, 2.0, 3.0)}])
    def test_grid_rejects(self, fields):
        with pytest.raises(DomainError):
            SpatialGrid(np.ones((2, 2, 1, 1)), **fields)

    def test_grid_direction_becomes_a_float_pair(self):
        grid = SpatialGrid(np.ones((2, 2, 1, 1)), direction=[0, 180])
        assert grid.direction == (0.0, 180.0)
        assert all(type(v) is float for v in grid.direction)

    @pytest.mark.parametrize("azimuth, elevation", [
        (np.nan, 90.0), (10.0, np.nan), (np.inf, 90.0), (10.0, -np.inf)])
    def test_scan_rejects(self, azimuth, elevation):
        with pytest.raises(DomainError, match="azimuth must lie"):
            DirectionalScan([0.0, azimuth], [90.0, elevation], np.ones((2, 4)), [1e-6, 1e-6])


class TestAutocorr2d:
    def test_all_ones_exact(self):
        corr = autocorr2d(np.ones((9, 9)))
        assert np.max(np.abs(corr - 1.0)) < 1e-12

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(8)
        for shape in ((9, 9), (5, 7), (2, 2)):
            field = rng.normal(size=shape)
            got = autocorr2d(field)
            want = direct_corr_oracle(field)
            assert np.max(np.abs(got - want)) < 1e-11

    def test_plane_wave_matches_oracle(self):
        x = np.arange(9) * 0.35
        field = np.cos(2 * np.pi * x)[:, None] * np.ones((1, 9))
        got = autocorr2d(field)
        want = direct_corr_oracle(field)
        assert np.max(np.abs(got - want)) < 1e-11

    def test_rejects_degenerate(self):
        with pytest.raises(DomainError):
            autocorr2d(np.zeros((9, 9)))
        with pytest.raises(DomainError):
            autocorr2d(np.ones((1, 9)))


class TestAverageCorr:
    def test_single_slice_identity(self):
        rng = np.random.default_rng(9)
        field = rng.normal(size=(9, 9))
        grid_h = (field + 0j).reshape(9, 9, 1, 1)
        from twdpfit import SpatialGrid
        grid = SpatialGrid(grid_h, spacing=0.35,
                           freq_axis=np.array([SPEED_OF_LIGHT / 0.005]))
        cmap = average_corr(grid, interp_factor=1)
        assert np.max(np.abs(cmap.values - autocorr2d(field))) < 1e-12

    def test_single_wave_cosine_cut(self):
        scene = delayed_wave_scene([(1.0, 0.0, 0.0)], [1.0], shape=(9, 9, 1))
        cmap = average_corr(synth_field(scene), interp_factor=20)
        # integer measured lags along x, |lag| <= 1.4 wavelengths
        nodes = cmap.cut_x[::20]
        lags = cmap.lag_x[::20]
        keep = np.abs(lags) <= 1.4 + 1e-9
        want = np.cos(2 * np.pi * lags[keep])
        assert np.max(np.abs(nodes[keep] - want)) < 0.02

    def test_fine_grid_preserves_nodes(self):
        scene = delayed_wave_scene([(1.0, 0.0, 0.0)], [1.0], shape=(9, 9, 1))
        grid = synth_field(scene)
        coarse = average_corr(grid, interp_factor=1)
        fine = average_corr(grid, interp_factor=20)
        assert np.max(np.abs(fine.values[::20, ::20] - coarse.values)) < 1e-9

    def test_two_wave_interference_sign_alternation(self):
        # equal waves with distinct x-projections beat against each other
        scene = delayed_wave_scene(
            [(1.0, 0.0, 0.0), (-0.5, np.sqrt(0.75), 0.0)], [1.0, 1.0],
            delays=(37e-9, 61e-9), shape=(9, 9, 1))
        cmap = average_corr(synth_field(scene), interp_factor=20)
        cut = cmap.cut_x
        assert (cut > 0.05).any() and (cut < -0.05).any()
        sign_changes = np.count_nonzero(np.diff(np.sign(cut[np.abs(cut) > 0.02])))
        assert sign_changes >= 2
        # closed-form check at the measured lags: mean of the two cosines
        lags = cmap.lag_x[::20]
        keep = np.abs(lags) <= 1.4 + 1e-9
        want = 0.5 * (np.cos(2 * np.pi * lags) + np.cos(2 * np.pi * 0.5 * lags))
        assert np.max(np.abs(cmap.cut_x[::20][keep] - want[keep])) < 0.03

    def test_white_noise_field_decorrelated(self):
        scene = PlaneWaveScene(
            waves=[PlaneWave(0.0, (1.0, 0.0, 0.0))], wavelength=0.005,
            shape=(9, 9, 1),
            freq_axis=SPEED_OF_LIGHT / 0.005 + 5e6 * np.arange(401),
            diffuse_sigma2=0.5, seed=21)
        cmap = average_corr(synth_field(scene), interp_factor=1)
        values = cmap.values.copy()
        values[len(cmap.lag_x) // 2, len(cmap.lag_y) // 2] = 0.0
        assert np.max(np.abs(values)) < 0.15

    def test_zero_lag_and_symmetry_invariants(self):
        scene = delayed_wave_scene([(1.0, 0.0, 0.0)], [1.0], shape=(9, 9, 1))
        cmap = average_corr(synth_field(scene), interp_factor=20)
        cx, cy = len(cmap.lag_x) // 2, len(cmap.lag_y) // 2
        assert abs(cmap.values[cx, cy] - 1.0) < 1e-9
        assert np.max(np.abs(cmap.values - cmap.values[::-1, ::-1])) < 1e-9
        assert cmap.lag_x[1] - cmap.lag_x[0] == pytest.approx(0.35 / 20)


class TestSpectralUpsample:
    @pytest.mark.parametrize("q", [1, 2, 3, 20])
    @pytest.mark.parametrize("shape", [(2, 2), (3, 5), (8, 7), (9, 9), (18, 18), (17, 30)])
    def test_bit_identical_to_scipy_resample(self, shape, q):
        from scipy.signal import resample

        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        # a random field and the all-ones window footprint on the doubled grid
        for arr in (rng.normal(size=shape), _windowed_corr(np.ones(shape))):
            want = resample(resample(arr, arr.shape[0] * q, axis=0), arr.shape[1] * q, axis=1)
            assert np.array_equal(_spectral_upsample(arr, q), want)


class TestCir:
    def test_flat_spectrum_single_tap(self):
        taps, delays = cir(np.ones(64), 5e6)
        assert abs(taps[0] - 1.0) < 1e-12
        assert np.max(np.abs(taps[1:])) < 1e-12
        assert delays[0] == 0.0

    def test_shift_theorem(self):
        n, df = 128, 5e6
        tau = 7 / (n * df)                          # on the tap grid
        f = df * np.arange(n)
        taps, delays = cir(np.exp(-2j * np.pi * f * tau), df)
        assert np.argmax(np.abs(taps)) == 7
        assert delays[7] == pytest.approx(tau, rel=1e-12)

    def test_span_and_resolution_401_tones(self):
        taps, delays = cir(np.ones(401), 5e6)
        assert delays[-1] + delays[1] == pytest.approx(200e-9, rel=1e-12)
        assert delays[1] == pytest.approx(0.4988e-9, rel=1e-3)

    def test_round_trip_and_parseval(self):
        rng = np.random.default_rng(12)
        spec = rng.normal(size=256) + 1j * rng.normal(size=256)
        taps, _ = cir(spec, 1e6)
        back = np.fft.fft(taps)
        assert np.max(np.abs(back - spec)) / np.max(np.abs(spec)) < 1e-10
        energy_taps = np.sum(np.abs(taps) ** 2)
        energy_spec = np.sum(np.abs(spec) ** 2) / len(spec)
        assert energy_taps == pytest.approx(energy_spec, rel=1e-10)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            cir(np.ones(1), 5e6)
        with pytest.raises(DomainError):
            cir(np.ones(8), 0.0)


class TestExcessDistance:
    def test_zero_at_los(self):
        assert excess_distance(np.array([5e-9]), 5e-9)[0] == 0.0

    def test_ten_ns(self):
        out = excess_distance(np.array([15e-9]), 5e-9)
        assert out[0] == pytest.approx(2.998, abs=5e-4)

    def test_half_ns_is_15cm(self):
        out = excess_distance(np.array([0.5e-9]), 0.0)
        assert out[0] == pytest.approx(0.15, abs=1e-3)


class TestTapEnvelopes:
    def test_partition_count_9x9x9(self):
        scene = delayed_wave_scene([(1.0, 0.0, 0.0)], [1.0], n_tones=8,
                                   shape=(9, 9, 9))
        es = tap_envelopes(synth_field(scene), 0)
        assert len(es.values) == 729
        assert es.n_fit == 365 and es.n_moment == 364

    def test_single_wave_constant_envelopes_boundary_k(self):
        scene = delayed_wave_scene([(1.0, 0.0, 0.0)], [1.0], n_tones=8,
                                   shape=(9, 9, 9))
        es = tap_envelopes(synth_field(scene), 0)
        assert np.std(es.values) / np.mean(es.values) < 1e-3
        rice, twdp = ml_fit(es, estimate_omega(es), GridConfig(k_max=20.0))
        assert rice.boundary_hit and twdp.boundary_hit

    def test_two_waves_plus_diffuse_prefers_twdp(self):
        wins = 0
        n_trials = 20
        for seed in range(n_trials):
            scene = delayed_wave_scene(
                [(1.0, 0.0, 0.0), (-0.5, np.sqrt(0.75), 0.0)],
                [1.0, 0.95], delays=(37e-9, 61e-9), n_tones=8,
                shape=(9, 9, 9), diffuse_sigma2=0.02, seed=seed)
            es = tap_envelopes(synth_field(scene), 0)
            report = fit_envelopes(es, GridConfig(k_max=80.0), per_cell=10)
            wins += report.chosen == "twdp"
        assert wins >= 0.9 * n_trials

    def test_tap_out_of_range(self):
        scene = delayed_wave_scene([(1.0, 0.0, 0.0)], [1.0], n_tones=8,
                                   shape=(4, 4, 4))
        grid = synth_field(scene)
        with pytest.raises(DomainError):
            tap_envelopes(grid, 8)

    def test_nonuniform_frequency_axis_rejected(self):
        scene = delayed_wave_scene([(1.0, 0.0, 0.0)], [1.0], n_tones=8,
                                   shape=(4, 4, 4))
        grid = synth_field(scene)
        grid.freq_axis = grid.freq_axis + np.array([0, 0, 0, 0, 0, 0, 0, 1e5])
        with pytest.raises(DomainError):
            tap_envelopes(grid, 0)
