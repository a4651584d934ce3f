"""Spatial correlation, power maps, delay-domain processing.

The FFT correlation pipeline is checked against a direct O(N^2) lag-sum
oracle; the averaged-correlation cosine behaviour is checked against the
closed form for a delayed plane wave whose per-tone phases cancel the
finite-window cross term.
"""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from twdpfit import (
    DomainError,
    DirectionalScan,
    EnvelopeSet,
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
from twdpfit import measurement
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

    def test_overflowing_direction_nan(self):
        # its squares overflow without a warning, so it passes the margin, and
        # its mean power inf is no power: NaN, and the other direction is 1
        scan = self.make_scan([1.0, 1e160], [1e-3, 1e-3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert noise_mask(scan).all()
            out = power_map(scan)
            alone = power_map(self.make_scan([1e160], [1e-3]))
        assert out[0] == 1.0 and np.isnan(out[1])
        assert np.isnan(alone).all()

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
        {"direction": (1.0, 2.0, 3.0)}, {"spacing": 1e308}])
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

    @pytest.mark.parametrize("freq_axis", [[1.0, -2.0], [1.0, np.nan], [1.0], 5.0])
    def test_scan_rejects_freq_axis(self, freq_axis):
        # the same check as a grid's: one positive, finite frequency per tone
        with pytest.raises(DomainError, match="freq"):
            DirectionalScan([0.0], [90.0], np.ones((1, 2)), [1.0], freq_axis=freq_axis)


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
        with pytest.raises(DomainError, match="finite"):
            autocorr2d(np.full((3, 3), np.nan))
        with pytest.raises(DomainError, match="2-D"):
            autocorr2d(np.ones((3, 3, 1)))


@pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** -700, 1e160, 1e-200])
def test_huge_or_tiny_fields_give_the_unscaled_map(scale):
    # x1e160 overflowed the windowed correlation's square and x1e-200
    # underflowed it, each into an all-NaN map; a power of two moves no bit
    h = np.random.default_rng(12).normal(size=(9, 9, 2, 3, 2)) @ [1, 1j]
    want = average_corr(SpatialGrid(h, 0.35), interp_factor=4).values
    want_slice = autocorr2d(h[:, :, 0, 0].real)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = average_corr(SpatialGrid(h * scale, 0.35), interp_factor=4).values
        got_slice = autocorr2d(h[:, :, 0, 0].real * scale)
    if np.frexp(scale)[0] == 0.5:
        assert np.array_equal(got, want) and np.array_equal(got_slice, want_slice)
    else:
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.max(np.abs(got_slice - want_slice)) <= 1e-12


def frozen_containers():
    """One valid instance of each container that checks its fields when built,
    with the name of an array field to break."""
    h = np.random.default_rng(14).normal(size=(3, 3, 1, 2, 2)) @ [1, 1j]
    lags = np.arange(-2.0, 3.0)
    cases = [
        (SpatialGrid(h, 0.35, freq_axis=[6e10, 6.1e10], direction=(10.0, 90.0)), "h"),
        (DirectionalScan([0.0, 90.0], [90.0, 90.0], h[0, :2, 0], [1e-6, 1e-6], [6e10, 6.1e10]),
         "samples"),
        (measurement.CorrelationMap(lags, lags, np.ones((5, 5)), np.ones(5), np.ones(5)),
         "values"),
        (EnvelopeSet(np.abs(h).ravel(), np.arange(18) % 2 == 0), "values"),
        (PlaneWaveScene([PlaneWave(1.0, (1.0, 0.0, 0.0))], 0.005, (2, 2, 1),
                        freq_axis=[6e10, 6.1e10]), "freq_axis"),
    ]
    return [pytest.param(c, name, id=type(c).__name__) for c, name in cases]


@pytest.mark.parametrize("container, name", frozen_containers())
def test_containers_keep_their_checks(container, name):
    # each was a mutable dataclass, so a field could be replaced or written
    # after its checks had run
    broken = np.array(getattr(container, name))
    broken.flat[0] = np.nan
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(container, name, broken)
    for field in dataclasses.fields(container):
        value = getattr(container, field.name)
        if isinstance(value, np.ndarray):
            with pytest.raises(ValueError, match="read-only"):
                value.flat[0] = 0.0
    with pytest.raises(DomainError):
        dataclasses.replace(container, **{name: broken})


def test_containers_hold_views_of_the_caller_arrays():
    h = np.ones((2, 2, 1, 1), complex)
    grid = SpatialGrid(h)
    assert np.shares_memory(grid.h, h) and h.flags.writeable
    moved = dataclasses.replace(grid, spacing=0.5)
    assert np.shares_memory(moved.h, h) and moved.spacing == 0.5


def test_grid_samples_cannot_be_replaced_after_the_checks():
    # a NaN h assigned to a checked grid reached average_corr, which reported
    # it as "all-zero grid; correlation normalization undefined"
    grid = SpatialGrid(np.ones((3, 3, 1, 1)), 0.35)
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.h = np.full((3, 3, 1, 1), np.nan + 0j)
    assert np.array_equal(average_corr(grid, 1).values, np.ones((5, 5)))


def test_envelope_values_cannot_be_replaced_after_the_checks():
    # values rebound to an array with one NaN fit sample made fit_envelopes
    # die with an IndexError in likelihood._interp_histogram
    values = np.random.default_rng(15).rayleigh(size=2000)
    env = EnvelopeSet(values, np.arange(2000) % 10 == 0)
    bad = values.copy()
    bad[0] = np.nan
    with pytest.raises(dataclasses.FrozenInstanceError):
        env.values = bad
    with pytest.raises(DomainError, match="finite"):
        fit_envelopes(dataclasses.replace(env, values=bad), GridConfig(k_max=20.0))


def test_plane_wave_is_frozen():
    wave = PlaneWave(1.0, np.array([0.0, 1.0, 0.0]))
    assert wave.direction == (0.0, 1.0, 0.0)       # a tuple, not the caller's array
    with pytest.raises(dataclasses.FrozenInstanceError):
        wave.amplitude = np.nan
    with pytest.raises(DomainError, match="amplitude"):
        dataclasses.replace(wave, amplitude=np.nan)


def test_correlation_map_checks_fail_on_nan():
    # abs(NaN - 1) > 1e-9 is False, and nanmax skips NaN
    lags = np.arange(-2.0, 3.0)
    values = np.ones((5, 5))
    values[2, 2] = np.nan
    with pytest.raises(DomainError, match="zero lag"):
        measurement.CorrelationMap(lags, lags, values, values[:, 2], values[2])
    values[2, 2], values[0, 0] = 1.0, np.nan
    with pytest.raises(DomainError, match="point-symmetric"):
        measurement.CorrelationMap(lags, lags, values, values[:, 2], values[2])


class TestAverageCorr:
    def test_single_slice_identity(self):
        rng = np.random.default_rng(9)
        field = rng.normal(size=(9, 9))
        grid_h = (field + 0j).reshape(9, 9, 1, 1)
        from twdpfit import SpatialGrid
        grid = SpatialGrid(grid_h, spacing=0.35,
                           freq_axis=np.array([SPEED_OF_LIGHT / 0.005]))
        cmap = average_corr(grid, interp_factor=1)
        assert np.array_equal(cmap.values, autocorr2d(field))

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

    def test_dead_tone_adds_nothing(self):
        # an all-zero slice failed the grid with "all-zero slice", though the
        # average over the slices is well defined
        h = np.random.default_rng(11).normal(size=(9, 9, 1, 2, 2)) @ [1, 1j]
        h[:, :, :, 1] = 0.0
        got = average_corr(SpatialGrid(h, 0.35), interp_factor=4).values
        want = average_corr(SpatialGrid(h[:, :, :, :1], 0.35), interp_factor=4).values
        assert np.max(np.abs(got - want)) <= 1e-12
        with pytest.raises(DomainError, match="all-zero grid"):
            average_corr(SpatialGrid(np.zeros((9, 9, 2, 3), complex), 0.35))

    def test_lag_grid_past_the_cap_fails_before_allocating(self, monkeypatch):
        # 4 * 9 * 9 * 2000**2 cells, about 10 GB per refined array
        def no_fft(field):
            raise AssertionError("an FFT ran")

        monkeypatch.setattr(measurement, "_windowed_corr", no_fft)
        grid = SpatialGrid(np.ones((9, 9, 1, 1), complex), spacing=0.35)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=r"interp_factor 2000 .* more than 1e\+07"):
                average_corr(grid, interp_factor=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e5

    def test_lag_grid_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(measurement, "MAX_LAG_CELLS", 4 * 3 * 3 * 2 ** 2)
        grid = SpatialGrid(np.random.default_rng(2).normal(size=(3, 3, 1, 1)) + 0j, 0.35)
        assert average_corr(grid, interp_factor=2).values.shape == (9, 9)
        with pytest.raises(DomainError, match="more than 144"):
            average_corr(grid, interp_factor=3)


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

    @pytest.mark.parametrize("f_spacing", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_spacing(self, f_spacing):
        # NaN gave an all-NaN delay axis and inf an all-zero one
        with pytest.raises(DomainError, match="spacing"):
            cir(np.ones(8), f_spacing)


class TestExcessDistance:
    def test_zero_at_los(self):
        assert excess_distance(np.array([5e-9]), 5e-9)[0] == 0.0

    def test_ten_ns(self):
        out = excess_distance(np.array([15e-9]), 5e-9)
        assert out[0] == pytest.approx(2.998, abs=5e-4)

    def test_half_ns_is_15cm(self):
        out = excess_distance(np.array([0.5e-9]), 0.0)
        assert out[0] == pytest.approx(0.15, abs=1e-3)

    @pytest.mark.parametrize("los_delay", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_los_delay(self, los_delay):
        with pytest.raises(DomainError, match="line-of-sight"):
            excess_distance(np.array([5e-9]), los_delay)


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
        grid = dataclasses.replace(
            grid, freq_axis=grid.freq_axis + np.array([0, 0, 0, 0, 0, 0, 0, 1e5]))
        with pytest.raises(DomainError):
            tap_envelopes(grid, 0)
