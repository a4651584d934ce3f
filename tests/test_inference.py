"""Partitioning, moment estimation, grid ML, information criterion and
g-test. Heavy default-grid recovery runs live in the acceptance suite; here
the grids are kept small, apart from the default-grid table (~4 s to build)
behind the high-K accuracy checks, so the module runs in well under a minute.
"""

import dataclasses
import json
import logging
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import special

from twdpfit import (
    DomainError,
    EnvelopeSet,
    EstimationError,
    FadingParams,
    GridConfig,
    ModelFit,
    aicc,
    chi2_quantile,
    estimate_omega,
    fit_envelopes,
    g_test,
    ml_fit,
    partition_chequerboard,
    partition_stride,
    sample_twdp,
    select_model,
    twdp_cdf,
    twdp_pdf,
)
from twdpfit import fading, inference, likelihood, pool
from twdpfit.inference import _g_statistic
from twdpfit.likelihood import PdfTable, TableSpec, get_table

SMALL_GRID = GridConfig(k_max=30.0)
TINY_GRID = GridConfig(k_max=2.0)
# truths above every other decision corpus (criterion 3/4 and the benchmark
# sweeps stay at K <= ~30), where tabulated rows are 0.02 K apart
HIGH_K_CORPUS = [(k, d, 73000 + 3 * i + j)
                 for i, k in enumerate((50.0, 200.0, 800.0))
                 for j, d in enumerate((0.0, 0.5, 1.0))]


@pytest.fixture(scope="module")
def high_k_table():
    """Four exactly tabulated rows whose kernel bands do not cover the
    envelope axis."""
    return PdfTable(np.array([50.0, 200.0, 500.0, 1000.0]), SMALL_GRID.delta_values)


def row_kernel(a, b, s2):
    """One table row's Rician density kernel over x, divided by x, evaluated
    on its own: amplitudes `a` by ascending scaled envelopes `b` =
    x sqrt(s2), exactly 0 outside the band."""
    return next(likelihood._kernels([(a, b, s2)]))[0]


def build_row(table, k, x, kernel=row_kernel):
    """ln(pdf(x)/x) of every Delta column of `table`'s row K at ascending
    envelopes `x`, shape (len(deltas), len(x)): the one-row reference that
    the table's packed, banded and pooled builds must reproduce."""
    amps, b, s2 = table._row(k, x)
    return table._fold_row(k, amps, b, kernel(amps, b, s2))


def make_set(k, delta, n_total, seed, omega=1.0, stride=10):
    env = sample_twdp(FadingParams(k, delta, omega), n_total, seed).envelopes
    return partition_stride(env, stride)


class TestPartitions:
    def test_stride_counts_20(self):
        es = partition_stride(np.ones(20), 10)
        assert es.n_fit == 2 and es.n_moment == 18

    def test_stride_indices_100(self):
        es = partition_stride(np.arange(100.0), 10)
        assert np.array_equal(np.nonzero(es.fit_mask)[0], np.arange(9, 100, 10))

    def test_stride_one_rejected(self):
        with pytest.raises(DomainError):
            partition_stride(np.ones(50), 1)

    def test_too_short_rejected(self):
        with pytest.raises(DomainError):
            partition_stride(np.ones(19), 10)

    def test_chequerboard_9x9x9(self):
        mask = partition_chequerboard((9, 9, 9))
        # enumeration oracle
        count = sum((x + y + z) % 2 == 0
                    for x in range(9) for y in range(9) for z in range(9))
        assert count == 365
        assert mask.sum() == 365
        assert mask.size - mask.sum() == 364

    def test_chequerboard_2x1x1(self):
        mask = partition_chequerboard((2, 1, 1))
        assert mask.sum() == 1 and mask.size == 2

    def test_chequerboard_degenerate_allowed(self):
        mask = partition_chequerboard((1, 1, 1))
        assert mask.sum() == 1  # empty moment class rejected downstream
        with pytest.raises(DomainError):
            estimate_omega(EnvelopeSet(np.ones(1), mask.reshape(-1)))


class TestDerivedArrays:
    def test_envelope_set_derives_its_fit_class_once(self):
        values = np.random.default_rng(16).rayleigh(size=2000)
        mask = np.arange(2000) % 7 == 3
        es = EnvelopeSet(values, mask)
        assert np.array_equal(es.fit_values, values[mask])
        assert es.fit_values is es.fit_values
        assert (es.n_fit, es.n_moment) == (int(mask.sum()), int((~mask).sum()))
        with pytest.raises(ValueError, match="read-only"):
            es.fit_values[0] = 0.0
        # a replaced set derives them again from its own fields
        moved = dataclasses.replace(es, fit_mask=~mask)
        assert np.array_equal(moved.fit_values, values[~mask])
        assert (moved.n_fit, moved.n_moment) == (es.n_moment, es.n_fit)
        assert not moved.fit_values.flags.writeable

    def test_grid_derives_its_values_once(self):
        grid = GridConfig(k_min=1.0, k_max=3.0, k_step=0.5, delta_step=0.25)
        assert np.array_equal(grid.k_values, [1.0, 1.5, 2.0, 2.5, 3.0])
        assert np.array_equal(grid.delta_values, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert grid.k_values is grid.k_values
        for values in (grid.k_values, grid.delta_values):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.5
        assert len(dataclasses.replace(grid, k_max=2.0).k_values) == 3
        # the derived arrays are no fields: the report's grid block and the
        # grid's equality keep the four steps and bounds alone
        assert asdict(grid) == {"k_min": 1.0, "k_max": 3.0, "k_step": 0.5, "delta_step": 0.25}
        assert grid == GridConfig(k_min=1.0, k_max=3.0, k_step=0.5, delta_step=0.25)


class TestEstimateOmega:
    def test_constant(self):
        es = EnvelopeSet(np.full(10, 2.0), np.zeros(10, bool))
        assert estimate_omega(es) == 4.0

    def test_two_values(self):
        es = EnvelopeSet(np.array([0.0, 2.0]), np.zeros(2, bool))
        assert estimate_omega(es) == 2.0

    def test_monte_carlo_rayleigh(self):
        env = sample_twdp(FadingParams(0.0, 0.0, 1.0), 10 ** 6, 13).envelopes
        es = EnvelopeSet(env, np.zeros(len(env), bool))
        assert estimate_omega(es) == pytest.approx(1.0, abs=0.005)

    def test_empty_moment_class(self):
        with pytest.raises(DomainError):
            estimate_omega(EnvelopeSet(np.ones(5), np.ones(5, bool)))

    def test_all_zero_moment_set(self):
        with pytest.raises(DomainError, match="moment set has zero mean power$"):
            estimate_omega(EnvelopeSet(np.zeros(5), np.zeros(5, bool)))

    @pytest.mark.parametrize("scale", [1e155, 1e-160, 1e-170])
    def test_power_beyond_the_normal_range_is_a_domain_error(self, scale):
        # squared: an overflow, a subnormal and an underflow to zero
        env = sample_twdp(FadingParams(10.0, 0.9, 1.0), 10 ** 5, 1).envelopes * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="outside the normal double range"):
                fit_envelopes(partition_stride(env, 10), SMALL_GRID)

    @pytest.mark.parametrize("power", [511, -511])
    def test_mean_power_at_the_ends_of_the_double_range(self, power):
        # 2^1022 and 2^-1022 are normal doubles: the plain sum of 1000 squares
        # of 2^511 overflows, and the mean is taken again on scaled values
        inward = power - int(math.copysign(1, power))
        for values in (np.full(1000, 2.0 ** power),
                       np.tile([2.0 ** power, 2.0 ** inward], 500)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                omega = estimate_omega(EnvelopeSet(values, np.zeros(1000, bool)))
            assert omega == np.mean((values * 2.0 ** -power) ** 2) * 2.0 ** (2 * power)

    def test_the_class_is_squared_in_a_copy(self):
        # also where the sum overflows and the class is rescaled
        env = sample_twdp(FadingParams(10.0, 0.9, 1.0), 10 ** 4, 2).envelopes
        for values, want in ((env, None), (np.full(1000, 2.0 ** 511), 2.0 ** 1022)):
            es = partition_stride(values, 10)
            mom = values[~es.fit_mask]
            assert estimate_omega(es) == (np.mean(mom ** 2) if want is None else want)
            assert np.array_equal(es.values, values) and np.array_equal(es.moment_values, mom)

    @pytest.mark.parametrize("power", [300, -300])
    def test_dyadic_scale_moves_only_omega(self, power):
        env = sample_twdp(FadingParams(10.0, 0.9, 1.0), 10 ** 5, 1).envelopes
        base = asdict(fit_envelopes(partition_stride(env, 10), SMALL_GRID))
        scaled = asdict(fit_envelopes(partition_stride(env * 2.0 ** power, 10), SMALL_GRID))
        assert scaled.pop("omega_hat") == base.pop("omega_hat") * 2.0 ** (2 * power)
        assert scaled == base


class TestAicc:
    def test_rice_order(self):
        assert aicc(0.0, 1, 11) == pytest.approx(2 + 4 / 9, rel=1e-12)

    def test_twdp_order(self):
        assert aicc(0.0, 2, 13) == pytest.approx(5.2, rel=1e-12)

    def test_large_n_limit(self):
        assert aicc(0.0, 2, 10 ** 9) == pytest.approx(4.0, abs=1e-6)

    def test_too_few_samples(self):
        with pytest.raises(DomainError):
            aicc(0.0, 2, 3)


class TestSelectModel:
    def test_tie_goes_to_rice(self):
        assert select_model(5.0, 5.0) == "rice"

    def test_lower_wins(self):
        assert select_model(5.0, 4.9) == "twdp"
        assert select_model(4.9, 5.0) == "rice"


class TestChi2Quantile:
    def test_against_bisection_oracle(self):
        # invert the regularized incomplete gamma by bisection
        def oracle(p, dof):
            lo, hi = 0.0, 1e4
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if special.gammainc(dof / 2.0, mid / 2.0) < p:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        for p, dof in [(0.99, 1), (0.99, 10), (0.95, 97), (0.5, 3)]:
            assert chi2_quantile(p, dof) == pytest.approx(oracle(p, dof), abs=1e-8)

    def test_frozen_value(self):
        assert chi2_quantile(0.99, 1) == pytest.approx(6.6348966010212145, abs=1e-9)

    def test_matches_scipy_gammaincinv(self):
        # the Halley inversion in math against scipy, where the g-test reads it
        levels = (1.0 - np.geomspace(0.5, 1e-6, 16)).tolist()
        for dof in np.unique(np.geomspace(1, 1e5, 60).astype(int)).tolist():
            for p in levels:
                want = 2.0 * special.gammaincinv(0.5 * dof, p)
                assert chi2_quantile(p, dof) == pytest.approx(want, rel=1e-12, abs=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            chi2_quantile(1.5, 3)
        with pytest.raises(DomainError):
            chi2_quantile(0.9, 0)


class TestGStatistic:
    def test_zero_when_matching(self):
        assert _g_statistic([10, 10], [10.0, 10.0]) == 0.0

    def test_direct_arithmetic(self):
        want = 2 * (12 * math.log(1.2) + 8 * math.log(0.8))
        assert _g_statistic([12, 8], [10.0, 10.0]) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(0.8054205420275551, rel=1e-12)  # ~0.8055


class TestMlFit:
    def test_smoke_single_sample(self):
        values = np.concatenate([np.full(30, 1.0), [1.0]])
        mask = np.zeros(31, bool)
        mask[-1] = True
        es = EnvelopeSet(values, mask)
        rice, twdp = ml_fit(es, estimate_omega(es), TINY_GRID)
        assert np.isfinite(rice.loglik) and np.isfinite(twdp.loglik)

    def test_recovery_k10_d09(self):
        # The K information bound at this operating point gives
        # sigma_K ~ 0.42 for N=1e4, so +-1.0 (2.6 sigma) is the sharp
        # regression window; Delta is pinned to +-0.1 (its bound is ~0.005).
        for seed in range(10):
            es = make_set(10.0, 0.9, 10 ** 5, 1000 + seed)
            rice, twdp = ml_fit(es, estimate_omega(es), SMALL_GRID)
            assert abs(twdp.k_hat - 10.0) <= 1.0
            assert abs(twdp.delta_hat - 0.9) <= 0.1

    def test_rayleigh_data_small_khat(self):
        # Near K = 0 the per-sample score in K vanishes identically, so
        # k_hat fluctuates on the N^(-1/4) scale (~0.1 at N=1e4); the
        # windows below sit at ~3 sigma of that law (measured: the Rice
        # fit stays below 0.15 in ~89/100 trials, the TWDP fit absorbs
        # more noise through Delta).
        rice_small = twdp_small = 0
        for seed in range(100):
            es = make_set(0.0, 0.0, 10 ** 5, 2000 + seed)
            rice, twdp = ml_fit(es, estimate_omega(es), TINY_GRID)
            rice_small += rice.k_hat <= 0.30 + 1e-9
            twdp_small += twdp.k_hat <= 0.40 + 1e-9
        assert rice_small >= 98
        assert twdp_small >= 98

    def test_nesting_exact(self):
        for seed in (1, 2, 3):
            es = make_set(5.0, 0.5, 10 ** 4, seed)
            rice, twdp = ml_fit(es, estimate_omega(es), SMALL_GRID)
            assert twdp.loglik >= rice.loglik

    def test_scale_invariance_dyadic(self):
        es = make_set(10.0, 0.9, 10 ** 4, 77)
        om = estimate_omega(es)
        rice1, twdp1 = ml_fit(es, om, SMALL_GRID)
        scaled = EnvelopeSet(es.values * 4.0, es.fit_mask)
        om2 = estimate_omega(scaled)
        assert om2 == pytest.approx(16.0 * om, rel=1e-14)
        rice2, twdp2 = ml_fit(scaled, om2, SMALL_GRID)
        assert (rice1.k_hat, twdp1.k_hat, twdp1.delta_hat) == \
               (rice2.k_hat, twdp2.k_hat, twdp2.delta_hat)

    def test_zero_sample_estimation_error(self):
        values = np.concatenate([np.full(40, 1.0), [0.0, 1.0]])
        mask = np.zeros(42, bool)
        mask[-2:] = True
        with pytest.raises(EstimationError):
            ml_fit(EnvelopeSet(values, mask), 1.0, TINY_GRID)

    def test_empty_fit_class(self):
        with pytest.raises(DomainError):
            ml_fit(EnvelopeSet(np.ones(5), np.zeros(5, bool)), 1.0, TINY_GRID)

    def test_bad_omega(self):
        es = make_set(1.0, 0.0, 200, 5)
        with pytest.raises(DomainError):
            ml_fit(es, 0.0, TINY_GRID)

    def test_boundary_flagged(self):
        # constant envelopes push K to the grid edge
        values = np.full(200, 1.0)
        es = partition_stride(values, 10)
        rice, twdp = ml_fit(es, estimate_omega(es), TINY_GRID)
        assert rice.boundary_hit and twdp.boundary_hit
        assert rice.k_hat == TINY_GRID.k_max

    def test_outlier_extends_table(self):
        values = np.concatenate([np.full(40, 1.0), [1.0, 8.5]])
        mask = np.zeros(42, bool)
        mask[-2:] = True
        rice, twdp = ml_fit(EnvelopeSet(values, mask), 1.0, TINY_GRID)
        assert np.isfinite(twdp.loglik)


class TestTableAccuracy:
    def test_log_density_matches_quadrature(self):
        grid = SMALL_GRID
        table = get_table(grid.k_values, grid.delta_values)
        rng = np.random.default_rng(3)
        x = np.linspace(0.05, 2.5, 40)
        worst = 0.0
        for _ in range(12):
            ki = int(rng.integers(0, len(grid.k_values)))
            di = int(rng.integers(0, len(grid.delta_values)))
            k, d = float(grid.k_values[ki]), float(grid.delta_values[di])
            exact = twdp_pdf(x, FadingParams(k, d, 1.0))
            # piecewise-cubic readout of the tabulated ln(pdf/x)
            surfaces = [table.loglik_surface(np.array([xi]))[ki, di] for xi in x]
            got = np.asarray(surfaces)
            with np.errstate(divide="ignore"):
                want = np.log(exact)
            keep = want > -8.0
            worst = max(worst, np.max(np.abs(got[keep] - want[keep])))
        assert worst < 2e-3

    def test_out_of_range_sample_matches_density(self):
        # A sample beyond r_max = 4 is scored on the row density at its exact
        # value, through the tilted fold: 2.9e-4 in ln where ln pdf > -20,
        # and under 1e-2 down to the 1e-300 floor (ln pdf -690.8). K = 0 has
        # the closed Rayleigh form.
        grid = SMALL_GRID
        table = get_table(grid.k_values, grid.delta_values)
        x = np.concatenate([np.linspace(4.02, 4.6, 8), np.linspace(5.0, 8.0, 4)])
        near, far, checked = 0.0, 0.0, 0
        for k in (0.0, 0.05, 0.3, 1.0, 1.55):
            ki = int(np.searchsorted(grid.k_values, k))
            for di in (0, 10, 20):
                got = np.array([table.loglik_surface(np.array([xi]))[ki, di] for xi in x])
                with np.errstate(divide="ignore"):
                    want = np.log(twdp_pdf(x, FadingParams(k, grid.delta_values[di], 1.0)))
                err = np.abs(got - want)
                near = max(near, np.max(err[want > -20.0], initial=0.0))
                keep = want > -690.0
                checked += keep.sum()
                far = max(far, np.max(err[keep], initial=0.0))
                if k == 0.0:
                    assert np.allclose(got, np.log(2.0 * x) - x * x, rtol=0, atol=1e-9)
        assert checked >= 150
        assert near < 1e-3
        assert far < 1e-2

    def test_in_range_tail_matches_density(self):
        # the stored rows down to the 1e-300 floor, where the kernel grows
        # by up to e^4.66 per amplitude node: the tilted fold holds them
        # within 7.5e-3 in ln of the exact mixture
        table = get_table(SMALL_GRID.k_values, SMALL_GRID.delta_values)
        x = table.x_grid[1:TableSpec.n_r]
        worst, checked = 0.0, 0
        for k in table.coarse_k[1::5]:
            row = build_row(table, k, x)
            for di, d in enumerate(table.deltas):
                with np.errstate(divide="ignore"):
                    want = np.log(twdp_pdf(x, FadingParams(k, d, 1.0)) / x)
                keep = want > -690.0
                checked += np.sum(want < -100.0)
                worst = max(worst, np.max(np.abs(row[di][keep] - want[keep])))
        assert checked >= 5000
        assert worst < 1e-2

    def test_table_matches_exact_density(self):
        # every Delta column of the tabulated density, read back through the
        # cubic readout and the K stencil, against the exact mixture
        grid = GridConfig(k_max=100.0)
        table = get_table(grid.k_values, grid.delta_values)
        x = np.linspace(0.02, 3.98, 40)
        worst = 0.0
        for k in (1.0, 4.0, 10.0, 30.0, 100.0):
            ki = int(np.searchsorted(grid.k_values, k))
            for d in (0.0, 0.5, 0.9, 1.0):
                di = int(np.searchsorted(grid.delta_values, d))
                got = np.array([table.loglik_surface(np.array([xi]))[ki, di] for xi in x])
                with np.errstate(divide="ignore"):
                    want = np.log(twdp_pdf(x, FadingParams(k, d, 1.0)))
                keep = want > -20.0
                worst = max(worst, np.max(np.abs(got[keep] - want[keep])))
        assert worst < 1e-2

    @given(ki=st.integers(0, len(SMALL_GRID.k_values) - 1),
           di=st.integers(0, len(SMALL_GRID.delta_values) - 1),
           x=st.floats(0.0, TableSpec.r_max, exclude_min=True))
    @settings(max_examples=30, deadline=None)
    def test_table_matches_exact_density_at_random_cells(self, ki, di, x):
        # any cell of the k_max 30 grid, read back at any in-range envelope
        k, d = SMALL_GRID.k_values[ki], SMALL_GRID.delta_values[di]
        with np.errstate(divide="ignore"):
            want = float(np.log(twdp_pdf(x, FadingParams(k, d, 1.0))))
        assume(want > -20.0)
        table = get_table(SMALL_GRID.k_values, SMALL_GRID.delta_values)
        assert abs(table.loglik_surface(np.array([x]))[ki, di] - want) <= 1e-2

    def test_first_delta_column_must_be_zero(self):
        # the first column is tabulated as the single Delta = 0 kernel, so a
        # grid starting at 0.5 would label the Delta = 0 density as 0.5
        with pytest.raises(DomainError):
            PdfTable(np.array([0.0, 1, 2, 3, 4]), np.array([0.5, 1.0]))
        table = PdfTable(np.array([0.0, 1, 2, 3, 4]), np.array([0.0, 0.5, 1.0]))
        got = table.loglik_surface(np.array([1.0]))[4, 1]
        assert got == pytest.approx(math.log(twdp_pdf(1.0, FadingParams(4.0, 0.5, 1.0))),
                                    abs=1e-2)

    @pytest.mark.parametrize("k_values", [
        [0.0, 1.0, 1.0, 3.0, 4.0], [0.0, 2.0, 1.0, 3.0, 4.0], [-1.0, 1.0, 2.0, 3.0],
        [0.0, 1.0, 2.0, np.inf], [np.nan, 1.0, 2.0, 3.0], [0.0, 1.0, np.nan, 3.0], []])
    def test_k_grid_must_be_finite_nonnegative_and_ascending(self, k_values):
        # a repeated row used to build a table whose K stencil divides by zero
        with pytest.raises(DomainError, match="invalid K grid"):
            PdfTable(np.array(k_values), np.array([0.0, 0.5, 1.0]))

    def test_k_grid_may_be_a_list(self):
        # a list used to raise TypeError before it was converted
        deltas = [0.0, 0.5, 1.0]
        table = PdfTable([0.0, 1.0, 2.0, 3.0, 4.0], deltas)
        assert np.array_equal(table.log_rows, PdfTable(np.arange(5.0), np.array(deltas)).log_rows)
        assert get_table([0.0, 1.0, 2.0, 3.0, 4.0], deltas).k_values.dtype == float

    def test_row_on_grid_nodes_matches_stored_rows(self, high_k_table):
        small = get_table(SMALL_GRID.k_values, SMALL_GRID.delta_values)
        # r_max is node 511; 512 and 513 are the guard nodes above it
        nodes = np.array([0, 1, 257, 511, 513])
        for table in (small, high_k_table):
            for i in range(0, len(table.coarse_k), 7):
                row = build_row(table, table.coarse_k[i], table.x_grid[nodes])
                assert np.max(np.abs(row - table.log_rows[i][:, nodes])) <= 1e-12

    def test_banded_kernel_rows_are_bit_identical(self, high_k_table):
        # beyond the band exp(-0.5 (a - b)^2) underflows to exactly 0, so
        # skipping those entries must not change a single bit against the
        # kernel evaluated on the whole (a, b) plane
        assert np.exp(-0.5 * likelihood._BAND ** 2) == 0.0

        def full_kernel(a, b, s2):
            return s2 * fading._i0e(a[:, None] * b) * np.exp(-0.5 * (a[:, None] - b) ** 2)

        small = get_table(SMALL_GRID.k_values, SMALL_GRID.delta_values)
        for table in (small, high_k_table):
            for i in range(0, len(table.coarse_k), 3):
                row = build_row(table, table.coarse_k[i], table.x_grid, full_kernel)
                assert np.array_equal(row, table.log_rows[i])

    def test_far_spike_floors_every_row(self):
        # at 30 root powers the density of every row underflows to 0; the
        # K = 0 row must floor like the others, or the Lagrange step turns
        # its -inf into NaN next to it and the fit fails
        table = get_table(TINY_GRID.k_values, TINY_GRID.delta_values)
        assert np.all(np.isfinite(table.loglik_surface(np.array([1.0, 30.0]))))
        values = np.concatenate([np.full(40, 1.0), [1.0, 30.0]])
        mask = np.zeros(42, bool)
        mask[-2:] = True
        rice, twdp = ml_fit(EnvelopeSet(values, mask), 1.0, TINY_GRID)
        assert np.isfinite(rice.loglik) and np.isfinite(twdp.loglik)

    def test_in_range_surface_is_the_histogram_product(self):
        grid = SMALL_GRID
        table = get_table(grid.k_values, grid.delta_values)
        x = make_set(10.0, 0.9, 10 ** 4, 5).fit_values
        x = 3.99 * x / x.max()
        w, const = table.sample_weights(x)
        nc, nd, nr = table.log_rows.shape

        def surface(coarse):
            return np.einsum("fj,fjd->fd", table._interp_w, coarse[table._interp_idx]) + const

        # the GEMV is numpy's einsum loop, row by row on any number of
        # threads, and within 1e-12 relative of the OpenBLAS product
        got = table.loglik_surface(x)
        assert np.array_equal(got, surface(np.einsum("cdr,r->cd", table.log_rows, w)))
        blas = surface((table.log_rows.reshape(nc * nd, nr) @ w).reshape(nc, nd))
        assert np.allclose(got, blas, rtol=1e-12, atol=0)

    def test_gemv_over_reached_columns_is_the_full_einsum(self):
        # the GEMV stops at the 32-column block of the last nonzero sample
        # weight; against the einsum over all 514 columns, with spikes
        table = get_table(SMALL_GRID.k_values, SMALL_GRID.delta_values)
        nr = table.log_rows.shape[2]
        rng = np.random.default_rng(8)
        trimmed = 0
        for seed in range(12):
            x = make_set(rng.uniform(0.0, 30.0), rng.uniform(), int(rng.integers(200, 20000)),
                         seed).fit_values.copy()         # the set's fit class is read-only
            x *= rng.uniform(0.3, 1.2) / np.sqrt(np.mean(x ** 2))
            x[:seed % 3] = rng.uniform(4.05, 8.0, seed % 3)
            beyond = x > TableSpec.r_max
            w, const = table.sample_weights(x[~beyond])
            trimmed += np.flatnonzero(w)[-1] < nr - 32
            coarse = np.einsum("cdr,r->cd", table.log_rows, w)
            spikes = np.sort(x[beyond])
            if spikes.size:
                coarse += np.array([build_row(table, k, spikes).sum(axis=1)
                                    for k in table.coarse_k])
            const += float(np.sum(np.log(spikes)))
            want = np.einsum("fj,fjd->fd", table._interp_w, coarse[table._interp_idx]) + const
            assert np.array_equal(table.loglik_surface(x), want)
        assert trimmed >= 6

    @pytest.mark.parametrize("n_spikes", [1, 5, 40])
    def test_spike_rows_share_kernels_bit_for_bit(self, high_k_table, n_spikes):
        # rows whose kernel over the spikes is small evaluate it together;
        # each must read the bits of its own build
        x = np.sort(np.random.default_rng(n_spikes).uniform(4.05, 9.0, n_spikes))
        for table in (get_table(SMALL_GRID.k_values, SMALL_GRID.delta_values), high_k_table):
            want = np.array([build_row(table, k, x).sum(axis=1) for k in table.coarse_k])
            assert np.array_equal(table._spike_sums(x), want)

    def test_zero_sample_scores_minus_infinity_without_warning(self):
        # ln(0) is the exact score of a zero envelope; the pytest
        # configuration turns a divide-by-zero warning into a failure
        table = get_table(TINY_GRID.k_values, TINY_GRID.delta_values)
        w, const = table.sample_weights(np.array([0.0, 1.0]))
        assert const == -np.inf
        assert w.sum() == pytest.approx(2.0)

    def test_short_grid_tabulates_every_row(self):
        # a 3- or 5-point grid above K = 20 spans less than one 0.4 coarse
        # step: too few rows for the 4-point stencil, so every K is exact
        x = make_set(20.0, 0.0, 10 ** 4, 11).fit_values
        for k_max in (20.1, 20.2):
            grid = GridConfig(k_min=20.0, k_max=k_max, k_step=0.05)
            table = get_table(grid.k_values, grid.delta_values)
            assert np.array_equal(table.coarse_k, grid.k_values)
            w, const = table.sample_weights(x)
            want = table.log_rows @ w + const
            assert np.allclose(table.loglik_surface(x), want, rtol=0, atol=1e-9)


def full_argmaxes(surface):
    """The Rice argmax row and the TWDP argmax cell of a whole surface, and
    their values: the first in row-major order, so smallest K, then Delta."""
    i_rice = int(np.argmax(surface[:, 0]))
    cell = divmod(int(np.argmax(surface)), surface.shape[1])
    return i_rice, surface[i_rice, 0], cell, surface[cell]


def peak_argmaxes(rows, values):
    """``full_argmaxes`` read off the rows that ``loglik_peaks`` kept."""
    r_rice = int(np.argmax(values[:, 0]))
    r, j = divmod(int(np.argmax(values)), values.shape[1])
    return int(rows[r_rice]), values[r_rice, 0], (int(rows[r]), j), values[r, j]


class TestPeakRows:
    """``ml_fit`` interpolates K only on the groups of fine rows whose
    stencil bound can reach the best tabulated value; the argmaxes, their
    values and their ties must be those of the whole surface."""

    @settings(max_examples=150, deadline=None)
    @given(levels=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=4),
           picks=st.lists(st.integers(0, 3), min_size=153 * 3, max_size=153 * 3),
           scale=st.sampled_from([1.0, 1e3, 1e6]),
           const=st.floats(-1e7, 1e7))
    def test_random_coarse_surfaces_with_ties_and_plateaus(self, levels, picks, scale, const):
        # a few distinct levels over 3 Delta columns of the k_max 30 rows:
        # plateaus, whole tied stencils and exact ties between cells
        table = get_table(SMALL_GRID.k_values, SMALL_GRID.delta_values[:3])
        coarse = scale * np.array([levels[i % len(levels)] for i in picks]).reshape(153, 3)
        rows = table._peak_rows(coarse, const)
        assert np.all(np.diff(rows) > 0)
        full = table._stencil(coarse) + const
        kept = table._stencil(coarse, rows) + const
        assert np.array_equal(kept, full[rows])
        got, want = peak_argmaxes(rows, kept), full_argmaxes(full)
        assert got[0] == want[0] and got[2] == want[2]
        assert got[1] == want[1] and got[3] == want[3]

    @pytest.mark.parametrize("k_max", [30.0, 100.0, None])
    def test_real_sets_keep_the_argmaxes_of_the_whole_surface(self, k_max):
        grid = GridConfig() if k_max is None else GridConfig(k_max=k_max)
        table = get_table(grid.k_values, grid.delta_values)
        truths = [(0.0, 0.0), (4.0, 0.0), (10.0, 0.9), (25.0, 0.5)]
        if k_max != 30.0:
            truths += [(90.0, 1.0), (300.0, 0.3)]
        evaluated = []
        for seed, (k, d) in enumerate(truths):
            es = make_set(k, d, 10 ** 5, 500 + seed)
            x = es.fit_values / math.sqrt(estimate_omega(es))
            rows, values = table.loglik_peaks(x)
            surface = table.loglik_surface(x)
            assert np.array_equal(values, surface[rows])
            got, want = peak_argmaxes(rows, values), full_argmaxes(surface)
            assert got[0] == want[0] and got[2] == want[2]
            assert got[1] == want[1] and got[3] == want[3]
            evaluated.append(len(rows))
        # the pruning keeps a small share of the rows
        assert np.median(evaluated) <= 0.2 * len(grid.k_values)

    def test_rayleigh_ties_resolve_to_the_smallest_delta(self):
        # on the K = 0 row every Delta column is the same Rayleigh density,
        # so a Rayleigh set's TWDP argmax ties across all 21 columns
        es = make_set(0.0, 0.0, 10 ** 5, 0)
        x = es.fit_values / math.sqrt(estimate_omega(es))
        table = get_table(SMALL_GRID.k_values, SMALL_GRID.delta_values)
        surface = table.loglik_surface(x)
        rice, twdp = ml_fit(es, estimate_omega(es), SMALL_GRID)
        assert full_argmaxes(surface)[2] == (0, 0)
        assert np.all(surface[0] == surface[0, 0])
        assert (twdp.k_hat, twdp.delta_hat, twdp.loglik) == (0.0, 0.0, surface[0, 0])
        assert (rice.k_hat, rice.loglik) == (0.0, surface[0, 0])

    def test_ml_fit_logs_the_rows_it_interpolated(self, caplog):
        caplog.set_level(logging.DEBUG, logger="twdpfit.inference")
        es = make_set(10.0, 0.9, 10 ** 5, 3)
        ml_fit(es, estimate_omega(es), SMALL_GRID)
        (line,) = [r.getMessage() for r in caplog.records if r.name == "twdpfit.inference"]
        kept = int(line.split()[5])
        assert line == f"ml fit: K interpolated on {kept} of 601 rows" and 4 <= kept < 601


def fixed_step_rows(k_values):
    """The K-row placement with fixed 0.4 steps above K = 20, which the
    relative placement must reproduce below K = 20."""
    n = len(k_values)
    if n <= 4:
        return np.arange(n)
    step = k_values[1] - k_values[0]
    idx, i = [], 0
    while i < n:
        k = k_values[i]
        target = step if k < 2.0 else (0.2 if k < 20.0 else 0.4)
        idx.append(i)
        i += max(1, int(target / step + 1e-9))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    return np.asarray(idx if len(idx) >= 4 else range(n))


class TestRowPlacement:
    @given(k_min=st.floats(0.0, 60.0), k_step=st.floats(0.01, 2.0),
           n=st.integers(2, 20000))
    @settings(max_examples=200, deadline=None)
    def test_placement_property(self, k_min, k_step, n):
        k_max = k_min + (n - 1) * k_step
        assume(k_max <= 1e4)
        k = GridConfig(k_min=k_min, k_max=k_max, k_step=k_step).k_values
        idx = likelihood._coarse_k_indices(k)
        assert idx[0] == 0 and idx[-1] == len(k) - 1
        assert np.all(np.diff(idx) > 0)
        assert len(idx) >= 4 or np.array_equal(idx, np.arange(len(k)))
        lo = k[idx[:-1]]
        target = np.where(lo < 2.0, k_step, np.where(lo < 20.0, 0.2, np.maximum(0.4, 0.02 * lo)))
        assert np.all(np.diff(k[idx]) <= np.maximum(k_step, target) + 1e-9)
        old = fixed_step_rows(k)
        assert np.array_equal(idx[k[idx] < 20.0], old[k[old] < 20.0])

    @pytest.mark.parametrize("k_max", [30.0, 100.0, 1000.0])
    def test_stencil_passes_tabulated_rows_through(self, k_max):
        # at a tabulated K the product formula gives weight 1 to that row
        # and +-0 to the other three, so its cells are the row's own
        k = GridConfig(k_max=k_max).k_values
        coarse = k[likelihood._coarse_k_indices(k)]
        idx, w = likelihood._lagrange_weights(k, coarse)
        hit = np.isin(k, coarse)
        assert np.array_equal(coarse[idx][w == 1.0], k[hit])
        assert np.count_nonzero(w[hit]) == hit.sum()
        assert np.allclose(w[~hit].sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_default_grid_row_budget(self):
        # 2581 rows (444 MB, ~55 s to build) at fixed 0.4 steps above K = 20
        assert len(likelihood._coarse_k_indices(GridConfig().k_values)) <= 340

    @pytest.mark.parametrize("grid", [GridConfig(), SMALL_GRID, TINY_GRID])
    def test_table_bytes_are_counted_before_the_build(self, grid):
        # the default and k_max 30 grids stay far below the cap; the count
        # is the table's own size (the default one is built elsewhere)
        counted = likelihood.table_bytes(grid.k_values, len(grid.delta_values))
        assert counted <= likelihood.MAX_TABLE_BYTES / 30
        if grid.k_max <= 30.0:
            assert counted == get_table(grid.k_values, grid.delta_values).log_rows.nbytes

    @pytest.mark.parametrize("fields", [
        {"k_step": 1e-5, "k_max": 2.0},            # 200,001 exact rows, 17 GB
        {"delta_step": 2e-4, "k_max": 50.0},       # 5001 Delta columns, 3.7 GB
    ])
    def test_oversized_table_refused_before_any_build(self, fields):
        # both grids are under the cell cap
        start = time.perf_counter()
        with pytest.raises(DomainError, match="density table of .* MB exceeds the cap of 1000 MB"):
            GridConfig(**fields)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("k, delta, seed", HIGH_K_CORPUS)
    def test_high_k_truth_cell_matches_density(self, k, delta, seed):
        # The cubic readout follows the narrow high-K density on the x grid:
        # the worst per-sample gap is 5e-7 (K = 800, Delta = 1).
        grid = GridConfig()
        table = get_table(grid.k_values, grid.delta_values)
        x = make_set(k, delta, 10 ** 5, seed).fit_values
        ki = int(np.searchsorted(grid.k_values, k))
        di = int(np.searchsorted(grid.delta_values, delta))
        got = table.loglik_surface(x)[ki, di]
        want = np.sum(np.log(twdp_pdf(x, FadingParams(k, delta, 1.0))))
        assert abs(got - want) / len(x) <= 1e-5


class TestCubicHistogram:
    def test_taps_sum_to_the_weight(self):
        rng = np.random.default_rng(5)
        pos = np.concatenate([[0.0, 0.5, 1.0, 29.0], rng.uniform(0.0, 29.0, 50)])
        weight = rng.uniform(0.1, 2.0, len(pos))
        for p, w in zip(pos, weight):
            hist = likelihood._interp_histogram(np.array([[p]]), w, 32)
            assert hist.sum() == pytest.approx(w, rel=1e-14)

    def test_quadratics_come_back_exactly(self):
        # Keys' a = -0.5 kernel reproduces quadratics; tap -1 reflects onto
        # node 1, so away from node 0 any quadratic comes back, and across
        # it an even one does
        nodes = np.arange(32.0)
        rng = np.random.default_rng(6)
        inner = rng.uniform(1.0, 29.0, (1, 200))
        edge = rng.uniform(0.0, 1.0, (1, 200))
        quadratic = 0.7 - 0.3 * nodes + 0.05 * nodes ** 2
        even = 2.0 - 0.4 * nodes ** 2
        for pos, f, exact in ((inner, quadratic, 0.7 - 0.3 * inner + 0.05 * inner ** 2),
                              (edge, even, 2.0 - 0.4 * edge ** 2)):
            for p, want in zip(pos[0], exact[0]):
                hist = likelihood._interp_histogram(np.array([[p]]), 1.0, 32)[0]
                assert hist @ f == pytest.approx(want, rel=0, abs=1e-12)
            assert likelihood._interp_histogram(pos, 1.0, 32)[0] @ f == \
                pytest.approx(exact.sum(), rel=1e-13)

    def test_tilted_exponentials_come_back_exactly(self):
        # with tilt mu, e^(mu s) times a quadratic is read back exactly
        nodes = np.arange(32.0)
        pos = np.random.default_rng(7).uniform(1.0, 29.0, (1, 50))
        for mu in likelihood._TILTS:
            def f(s):
                return np.exp(mu * (s - 15.0)) * (0.7 - 0.3 * s + 0.05 * s * s)
            hist = likelihood._interp_histogram(pos, 1.0, 32, (mu,))[0]
            assert hist @ f(nodes) == pytest.approx(f(pos).sum(), rel=1e-12)

    def test_sample_at_r_max_reaches_the_guard_nodes(self):
        table = get_table(TINY_GRID.k_values, TINY_GRID.delta_values)
        n_r, dx = TableSpec.n_r, TableSpec.r_max / (TableSpec.n_r - 1)
        assert len(table.x_grid) == n_r + 2
        w, const = table.sample_weights(np.array([TableSpec.r_max]))
        assert w.shape == (n_r + 2,) and w.sum() == pytest.approx(1.0)
        assert w[n_r - 1] == pytest.approx(1.0, abs=1e-12)
        w, const = table.sample_weights(np.array([TableSpec.r_max - 0.5 * dx]))
        assert w[n_r] == pytest.approx(-0.0625) and w[n_r + 1] == 0.0
        x = np.array([1.0, TableSpec.r_max])
        assert np.all(np.isfinite(table.loglik_surface(x)))


class TestTablePool:
    def rows_on_main_thread(self, table):
        return np.array([build_row(table, k, table.x_grid) for k in table.coarse_k])

    def test_pooled_rows_equal_main_thread_rows(self):
        table = PdfTable(TINY_GRID.k_values, TINY_GRID.delta_values)
        assert table.workers == pool.threads() == pool.worker_count()
        assert np.array_equal(table.log_rows, self.rows_on_main_thread(table))

    def test_oversubscribed_pool_loses_no_row(self, pool_threads):
        # more threads than cores, switching every microsecond: a row lost
        # or written twice would leave np.empty garbage or a wrong K
        pool_threads(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.perf_counter()
            table = PdfTable(TINY_GRID.k_values, TINY_GRID.delta_values)
            elapsed = time.perf_counter() - start
        finally:
            sys.setswitchinterval(interval)
        assert table.workers == 8
        assert elapsed < 60.0
        assert np.array_equal(table.log_rows, self.rows_on_main_thread(table))

    def test_fold_matches_blas_reference(self, high_k_table):
        # the fold sums in numpy's loop order, not OpenBLAS's; the reference
        # builds its own tilted 4-tap Keys weights per Delta with np.add.at,
        # on an amplitude grid from K alone, picks each entry's tilt itself
        # and folds with a GEMM. The table builds only the tilts from the
        # lowest a row reads up, so only those are compared, and every tilt
        # the reference picks must be among them
        tilts = 1.5 * np.arange(-3, 4)
        small = get_table(SMALL_GRID.k_values, SMALL_GRID.delta_values)
        for table in (small, high_k_table):
            deltas, cos, quad_w = table.deltas, table._cos_nodes, table._quad_w
            for k in table.coarse_k[1::4]:
                a_max = math.sqrt(2.0 * k * (1.0 + deltas[-1]))
                need, i = math.ceil(a_max / 0.125) + 1, 0
                while math.ceil(33.0 * 1.1 ** i) < need:
                    i += 1
                na = math.ceil(33.0 * 1.1 ** i)
                ag = np.arange(na + 2) * (a_max / (na - 1))
                assert np.array_equal(ag, table._amplitude_grid(k))
                ref_w = np.zeros((len(tilts), len(deltas) - 1, na + 2))
                for di, d in enumerate(deltas[1:]):
                    pos = (na - 1) * np.sqrt((1.0 + d * cos) / (1.0 + deltas[-1]))
                    i0 = pos.astype(np.int64)
                    t = pos - i0
                    t2 = t * t
                    t3 = t2 * t
                    taps = (-0.5 * t3 + t2 - 0.5 * t, 1.5 * t3 - 2.5 * t2 + 1.0,
                            -1.5 * t3 + 2.0 * t2 + 0.5 * t, 0.5 * (t3 - t2))
                    for ti, tilt in enumerate(tilts):
                        for j, tap in zip((-1, 0, 1, 2), taps):
                            # the kernel is even in a: node -1 is node 1
                            share = tap * (np.exp(tilt * t) * np.exp(-tilt * j)) if tilt else tap
                            np.add.at(ref_w[ti, di], np.abs(i0 + j), quad_w * share)
                built = table.folds[na + 2]
                assert 1 <= len(built) <= len(tilts)
                assert np.array_equal(built, ref_w[len(tilts) - len(built):])
                s2 = 2.0 * (1.0 + k)
                b = table.x_grid * np.sqrt(s2)
                kern = row_kernel(ag, b, s2)
                folded = (ref_w.reshape(-1, na + 2) @ kern).reshape(len(tilts), len(deltas) - 1, -1)
                d = deltas[1:, None]
                growth = ag[1] * (np.maximum(b - np.sqrt(2.0 * k * (1.0 + d)), 0.0)
                                  + np.minimum(b - np.sqrt(2.0 * k * (1.0 - d)), 0.0))
                pick = np.abs(growth[None] - tilts[:, None, None]).argmin(axis=0)
                assert pick.min() >= len(tilts) - len(built)
                ref = np.log(np.maximum(np.take_along_axis(folded, pick[None], 0)[0], 1e-300))
                row = build_row(table, k, table.x_grid)
                assert np.max(np.abs(row[1:] - ref)) <= 1e-12

    def test_rows_with_one_node_count_share_one_fold(self, monkeypatch):
        # the fold weights depend on K only through the amplitude node
        # count: one histogram call per count, for all its tilts, at build
        # time, read by every row with that count
        calls, operands = [], []
        histogram, einsum = likelihood._interp_histogram, np.einsum

        def counted(*args):
            calls.append(1)
            return histogram(*args)

        def recorded(spec, w, kern):
            operands.append(w)
            return einsum(spec, w, kern)

        monkeypatch.setattr(likelihood, "_interp_histogram", counted)
        monkeypatch.setattr(np, "einsum", recorded)
        table = PdfTable(SMALL_GRID.k_values, SMALL_GRID.delta_values)
        monkeypatch.undo()
        counts = [len(table._amplitude_grid(k)) for k in table.coarse_k[1:]]
        assert len(table.folds) == len(set(counts)) < len(counts)
        assert len(calls) == len(table.folds)
        assert len(operands) >= len(counts)
        assert all(any(np.shares_memory(w, f) for f in table.folds.values()) for w in operands)
        i = counts.index(counts[0], 1)         # a later row with the same count
        k0, k1 = table.coarse_k[1], table.coarse_k[1 + i]
        assert table.folds[len(table._amplitude_grid(k0))] is \
            table.folds[len(table._amplitude_grid(k1))]

    def test_spiked_surface_builds_no_fold(self, monkeypatch):
        table = PdfTable(SMALL_GRID.k_values, SMALL_GRID.delta_values)
        x = np.array([0.5, 1.0, 1.5, 5.0, 7.5])
        want = table.loglik_surface(x)
        calls = []
        histogram = likelihood._interp_histogram

        def sample_readout_only(pos, weight, n):
            # the in-range readout is the one histogram a surface may build
            calls.append(len(pos))
            return histogram(pos, weight, n)

        def no_fold(self, n):
            raise AssertionError("fold weights rebuilt after the table build")

        monkeypatch.setattr(likelihood, "_interp_histogram", sample_readout_only)
        monkeypatch.setattr(PdfTable, "_fold_weights", no_fold)
        assert np.array_equal(table.loglik_surface(x), want)
        assert calls == [1]

    def test_worker_error_reaches_caller_and_caches_nothing(self, monkeypatch):
        # an error in any kernel chunk of a row task reaches the caller
        monkeypatch.setattr(likelihood, "_TABLE_CACHE", {})
        rice_kernel = likelihood._rice_kernel

        def failing_chunk(a, b, prec, out, work):
            if max(prec) > 4.0:                 # a chunk with a row above K = 1
                raise FloatingPointError("chunk failed")
            return rice_kernel(a, b, prec, out, work)

        monkeypatch.setattr(likelihood, "_rice_kernel", failing_chunk)
        with pytest.raises(FloatingPointError, match="chunk failed"):
            get_table(TINY_GRID.k_values, TINY_GRID.delta_values)
        assert likelihood._TABLE_CACHE == {}

    def test_packed_and_banded_rows_equal_single_row_builds(self, high_k_table):
        # the build packs several whole rows into each kernel chunk and
        # assembles banded rows from their pieces; every stored row must have
        # the bits of that row's kernel evaluated on its own
        small = get_table(SMALL_GRID.k_values, SMALL_GRID.delta_values)
        assert small.chunks < len(small.coarse_k)
        banded = [len(likelihood._bands(*table._row(k, table.x_grid)[:2])) > 1
                  for table in (small, high_k_table) for k in table.coarse_k]
        assert 0 < sum(banded) < len(banded)
        for table in (small, high_k_table):
            for i, k in enumerate(table.coarse_k):
                assert np.array_equal(build_row(table, k, table.x_grid), table.log_rows[i])

    @given(sizes=st.lists(st.integers(0, 12), max_size=40), cap=st.integers(0, 30))
    @settings(max_examples=200, deadline=None)
    def test_pack_groups_cover_every_item_in_order_under_the_cap(self, sizes, cap):
        # the one greedy packer of row tasks and kernel chunks: consecutive
        # groups, each filled until the next item would pass the cap, with
        # size-0 items (a spike band that misses every row) grouped too
        groups = likelihood._pack(sizes, cap)
        assert [i for group in groups for i in range(len(sizes))[group]] == list(range(len(sizes)))
        for group, after in zip(groups, groups[1:] + [None]):
            assert group.stop > group.start
            assert sum(sizes[group]) <= cap or group.stop - group.start == 1
            if after is not None:
                assert sum(sizes[group]) + sizes[after.start] > cap

    def test_tilts_below_the_lowest_read_are_not_built(self):
        # a row's tilts rise with the envelope, so each node count builds
        # them from the lowest any of its rows takes at x = 0 up to the top;
        # reading one below is an error, not a read of zeros
        table = get_table(SMALL_GRID.k_values, SMALL_GRID.delta_values)
        tilts = len(likelihood._TILTS)
        assert sum(map(len, table.folds.values())) == 51 < tilts * len(table.folds) == 84
        n, folds = next(iter(table.folds.items()))
        first = tilts - len(folds)
        assert first > 0
        assert np.shares_memory(table._fold(n, first), folds)
        with pytest.raises(LookupError, match="not built"):
            table._fold(n, first - 1)

    def test_fresh_build_memory_is_bounded(self, tmp_path):
        """A fresh k_max 100 build on at most 2 CPUs raises the process's own
        peak memory (VmHWM) over its value after import by at most the
        table, its fold weights and 10 MiB of buffers: 7.1-7.6 MiB measured
        on 2 threads, each row task's two kernel-chunk vectors taking
        1.5 MiB, against 7.9-8.7 MiB with the vectors kept by each pool
        thread for the whole build. The pool has one thread per usable CPU,
        so the probe keeps to two."""
        try:
            open("/proc/self/status").close()
        except OSError:
            pytest.skip("no /proc/self/status to read VmHWM from")
        probe = """
import os
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
from twdpfit.inference import GridConfig
from twdpfit.likelihood import PdfTable

def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmHWM:"))

grid = GridConfig(k_max=100.0)
before = peak()
table = PdfTable(grid.k_values, grid.delta_values)
print(peak() - before, table.log_rows.nbytes + sum(w.nbytes for w in table.folds.values()))
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        growth, stored = map(int, done.stdout.split())
        assert growth <= stored + 10 * 2 ** 20


class TestTableCache:
    def test_spikes_share_one_table(self, monkeypatch):
        monkeypatch.setattr(likelihood, "_TABLE_CACHE", {})
        for spike in (8.5, 5.2):
            values = np.concatenate([np.full(40, 1.0), [1.0, spike]])
            mask = np.zeros(42, bool)
            mask[-2:] = True
            rice, twdp = ml_fit(EnvelopeSet(values, mask), 1.0, TINY_GRID)
            assert np.isfinite(twdp.loglik)
        assert len(likelihood._TABLE_CACHE) == 1

    def test_grids_with_equal_sizes_get_their_own_tables(self, monkeypatch):
        # 21 Delta columns either way, 0.048 or 0.05 apart: a key without
        # the Delta values gives the second 0.048 fit the 0.05 table
        monkeypatch.setattr(likelihood, "_TABLE_CACHE", {})
        es = make_set(10.0, 0.9, 10 ** 4, 3)
        grid, other = GridConfig(k_max=30.0, delta_step=0.048), GridConfig(k_max=30.0)
        assert len(grid.delta_values) == len(other.delta_values)
        fresh = fit_envelopes(es, grid)
        likelihood.clear_table_cache()
        fit_envelopes(es, other)
        assert fit_envelopes(es, grid) == fresh
        assert len(likelihood._TABLE_CACHE) == 2

    def test_spec_argument_changes_nothing(self, monkeypatch):
        # the benchmark's warm worker still passes TableSpec() positionally
        monkeypatch.setattr(likelihood, "_TABLE_CACHE", {})
        table = get_table(TINY_GRID.k_values, TINY_GRID.delta_values)
        assert get_table(TINY_GRID.k_values, TINY_GRID.delta_values, TableSpec()) is table
        assert table.log_rows.shape[2] == TableSpec.n_r + 2    # 2 guard nodes above r_max
        with pytest.raises(TypeError):
            TableSpec(n_r=512)

    def test_misses_and_hits_are_logged(self, monkeypatch, caplog):
        monkeypatch.setattr(likelihood, "_TABLE_CACHE", {})
        caplog.set_level(logging.DEBUG, logger="twdpfit.likelihood")
        for _ in range(2):
            get_table(TINY_GRID.k_values, TINY_GRID.delta_values)
        (miss, hit) = [r for r in caplog.records if r.name == "twdpfit.likelihood"]
        assert miss.levelno == logging.INFO and hit.levelno == logging.DEBUG
        assert "built: 41 K rows x 21 Delta x 514 r, 3.5 MB, fold weights 0.02 MB in 4/7 " \
            "tilt sets, 8 kernel chunks, " in miss.getMessage()
        assert miss.getMessage().endswith(f" s on {pool.threads()} threads")
        assert "cache hit: 41 K rows" in hit.getMessage()


class TestPartialTable:
    """Tables build their envelope columns as a prefix that grows in place."""

    @pytest.mark.parametrize("grid", [SMALL_GRID, GridConfig(k_max=100.0), GridConfig()],
                             ids=["k_max 30", "k_max 100", "default grid"])
    def test_stepwise_build_equals_the_full_build(self, monkeypatch, grid):
        # the last step, 512 -> 514, is 2 columns wide: the guard nodes
        monkeypatch.setattr(likelihood, "_TABLE_CACHE", {})
        full = get_table(grid.k_values, grid.delta_values)
        assert full.columns == TableSpec.n_r + 2
        table = PdfTable(grid.k_values, grid.delta_values, 0)
        assert table.columns == table.chunks == 0
        for columns in (64, 288, 512, 514):
            table.cover(columns)
            assert table.columns == columns
            assert np.array_equal(table.log_rows[:, :, :columns], full.log_rows[:, :, :columns])
        assert np.array_equal(table.log_rows, full.log_rows)

    def test_columns_cover_the_readout_in_whole_blocks(self, monkeypatch):
        # up to tap 2 of the highest node, rounded up to 32 columns; a
        # request within the built prefix builds nothing
        monkeypatch.setattr(likelihood, "_TABLE_CACHE", {})
        k, d = TINY_GRID.k_values, TINY_GRID.delta_values
        dx = TableSpec.r_max / (TableSpec.n_r - 1)
        for x_max, columns in ((-math.inf, 0), (1.0, 160), (29 * dx, 32), (3.0, 416),
                               (3.9, 512), (TableSpec.r_max, 514), (7.5, 514)):
            likelihood.clear_table_cache()
            table = get_table(k, d, x_max=x_max)
            assert table.columns == columns
            x = np.array([0.5 * x_max, x_max]) if 0.0 < x_max <= TableSpec.r_max else np.array([5.0])
            chunks = table.chunks
            table.loglik_surface(x)
            assert table.columns == columns and table.chunks == chunks
        table = PdfTable(k, d, 0)
        table.cover(33)
        assert table.columns == 64

    def test_spiked_surface_on_a_partial_table_equals_the_full_one(self, monkeypatch):
        monkeypatch.setattr(likelihood, "_TABLE_CACHE", {})
        k, d = SMALL_GRID.k_values, SMALL_GRID.delta_values
        full = get_table(k, d)
        x = sample_twdp(FadingParams(4.0, 0.5, 1.0), 3000, 21).envelopes
        x[[7, 70]] = [2.2, 6.5]                 # the top in-range sample, a spike
        table = PdfTable(k, d, 64)
        assert np.array_equal(table.loglik_surface(x), full.loglik_surface(x))
        assert table.columns == 288             # node 281 of 2.2, taps up to 283

    def test_fit_above_the_envelope_range_builds_no_column(self, monkeypatch):
        # every fit-class sample is a spike: the table is only fold weights,
        # and the report is the one fitted on a full table
        monkeypatch.setattr(likelihood, "_TABLE_CACHE", {})
        rng = np.random.default_rng(7)
        values = rng.uniform(0.95, 1.05, 500)
        values[9::10] = rng.uniform(4.05, 4.8, 50)
        es = partition_stride(values, 10)
        assert es.fit_values.min() / math.sqrt(estimate_omega(es)) > TableSpec.r_max
        report = fit_envelopes(es, TINY_GRID)
        (table,) = likelihood._TABLE_CACHE.values()
        assert table.columns == table.chunks == 0
        likelihood.clear_table_cache()
        assert get_table(TINY_GRID.k_values, TINY_GRID.delta_values).columns == 514
        assert fit_envelopes(es, TINY_GRID) == report
        assert report.gtest.verdict == "rejected" and report.rice.k_hat == 0.0

    def test_concurrent_extensions_equal_the_full_build(self, monkeypatch, pool_threads):
        # callers extend one cached table at once, on an oversubscribed pool
        # switching every microsecond; the lock lets one build at a time, and
        # a later one builds only what is left. A lost extension would leave
        # fewer columns, and a skipped range np.empty garbage
        monkeypatch.setattr(likelihood, "_TABLE_CACHE", {})
        k, d = SMALL_GRID.k_values, SMALL_GRID.delta_values
        full = PdfTable(k, d)
        pool_threads(8)
        table = get_table(k, d, x_max=-1.0)
        reaches = (1.0, 2.0, 3.0, TableSpec.r_max)
        barrier, errors, built = threading.Barrier(len(reaches)), [], []
        build = PdfTable._build

        def recorded(self, columns):
            start = self.columns
            done = build(self, columns)
            if done:
                built.append((start, self.columns))
            return done

        def extend(x_max):
            try:
                barrier.wait()
                assert get_table(k, d, x_max=x_max) is table
            except BaseException as exc:       # reported on the main thread
                errors.append(exc)

        monkeypatch.setattr(PdfTable, "_build", recorded)
        callers = [threading.Thread(target=extend, args=(x,)) for x in reaches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(caller.is_alive() for caller in callers)
        assert table.columns == 514
        # the extensions tile the columns: each starts where the last stopped
        assert [b for b, _ in sorted(built)] == [0] + [e for _, e in sorted(built)][:-1]
        assert np.array_equal(table.log_rows, full.log_rows)

    def test_extensions_are_logged(self, monkeypatch, caplog):
        monkeypatch.setattr(likelihood, "_TABLE_CACHE", {})
        caplog.set_level(logging.DEBUG, logger="twdpfit.likelihood")
        for x_max in (1.0, 0.5, 3.0):
            get_table(TINY_GRID.k_values, TINY_GRID.delta_values, x_max=x_max)
        built, hit, hit_again, extended = [
            r for r in caplog.records if r.name == "twdpfit.likelihood"]
        assert "kernel chunks, 160/514 columns, " in built.getMessage()
        assert hit.levelno == hit_again.levelno == logging.DEBUG
        assert extended.levelno == logging.INFO
        assert extended.getMessage().startswith(
            "density table extended: 41 K rows x 21 Delta to 416/514 columns, ")
        assert extended.getMessage().endswith(" s")


def recorded_rice_edges(monkeypatch) -> list:
    """The envelopes every later g-test of a Rice fit evaluates the CDF at:
    the TWDP CDF at Delta = 0, which is the Rician one."""
    edges = []

    def recorded(x, params):
        assert params.delta == 0.0
        edges.append(x)
        return twdp_cdf(x, params)

    monkeypatch.setattr(inference, "twdp_cdf", recorded)
    return edges


class TestGTest:
    def test_matching_model_accepted(self):
        es = make_set(4.0, 0.0, 10 ** 4, 31)
        om = estimate_omega(es)
        rice, twdp = ml_fit(es, om, SMALL_GRID)
        res = g_test(es, rice, om)
        assert res.verdict == "accepted"
        assert res.dof == res.n_cells - 2

    def test_wrong_model_rejected(self):
        # strong two-wave data against the best Rician fit
        es = make_set(30.0, 1.0, 10 ** 5, 37)
        om = estimate_omega(es)
        rice, twdp = ml_fit(es, om, GridConfig(k_max=50.0))
        res = g_test(es, rice, om)
        assert res.verdict == "rejected"

    def test_insufficient_samples(self):
        es = make_set(1.0, 0.0, 300, 3)   # 30 fit samples < 10*(2+2)
        rice, _ = ml_fit(es, estimate_omega(es), TINY_GRID)
        with pytest.raises(DomainError):
            g_test(es, rice, estimate_omega(es))

    def test_last_cell_absorbs_remainder(self, monkeypatch):
        es = make_set(1.0, 0.0, 4170, 3)  # 417 fit samples -> 41 cells, last 17
        om = estimate_omega(es)
        rice, _ = ml_fit(es, om, TINY_GRID)
        edges = recorded_rice_edges(monkeypatch)
        res = g_test(es, rice, om)
        assert res.n_cells == 41
        # tie-free data: every edge midway between samples 10 apart
        x = np.sort(es.fit_values) / math.sqrt(om)
        cuts = 10 * np.arange(1, 41)
        assert np.array_equal(edges[0], 0.5 * (x[cuts - 1] + x[cuts]))

    def test_rice_lower_tail_cell_has_mass(self):
        # eleven deep fades at 0.3 root powers put a cell edge at 0.3, where
        # the K = 100 Rician CDF is 1.4e-23; a CDF that rounds it to 0 gives
        # the first cell an expected count of zero and no verdict
        es = make_set(100.0, 0.0, 10 ** 4, 43)
        om = estimate_omega(es)
        values = es.values.copy()
        values[np.flatnonzero(es.fit_mask)[:11]] = 0.3 * math.sqrt(om)
        es = EnvelopeSet(values, es.fit_mask)
        res = g_test(es, ModelFit("rice", 100.0, 0.0, 0.0), om)
        assert res.verdict == "rejected"
        assert np.isfinite(res.statistic)

    @pytest.mark.parametrize("step", [0.001, 0.01, 0.05])
    def test_quantized_envelopes_end_in_a_verdict(self, step, monkeypatch):
        # rounding to step root powers ties samples (2083, 232 and 48
        # distinct values); the cells move their edges off the ties, so
        # every edge lies between two distinct values and every cell holds
        # at least per_cell samples, and the fit matches the unrounded one
        env = sample_twdp(FadingParams(3.0, 0.4, 1.0), 10 ** 5, 5).envelopes
        q = step * math.sqrt(np.mean(env ** 2))
        es = partition_stride(np.round(env / q) * q, 10)
        exact = fit_envelopes(partition_stride(env, 10), SMALL_GRID)
        edges = recorded_rice_edges(monkeypatch)
        report = fit_envelopes(es, SMALL_GRID)
        assert (report.chosen, report.twdp.k_hat, report.twdp.delta_hat, report.rice.k_hat) \
            == (exact.chosen, exact.twdp.k_hat, exact.twdp.delta_hat, exact.rice.k_hat) \
            == ("rice", 2.45, 0.05, 2.45)
        x = np.sort(es.fit_values) / math.sqrt(report.omega_hat)
        (edge,) = edges
        assert not np.any(np.isin(edge, x))
        counts = np.diff(np.searchsorted(x, edge), prepend=0, append=len(x))
        assert len(counts) == report.gtest.n_cells == report.gtest.dof + 2
        assert counts.min() >= 10 and report.gtest.verdict == "accepted"

    def test_cut_is_measured_from_the_last_kept_cut(self, monkeypatch):
        # 100 fit samples, ties over sorted indices 8-17 and 19-24: the
        # equal-count cuts 10 and 20 move up to 18 and 25, 25 lies 7 after
        # the kept 18 and is dropped, and 30 lies 12 after it and is kept
        x = np.arange(1.0, 101.0) / 40.0
        x[8:18], x[19:25] = x[8], x[19]
        es = EnvelopeSet(x, np.ones(100, dtype=bool))
        edges = recorded_rice_edges(monkeypatch)
        res = g_test(es, ModelFit("rice", 1.0, 0.0, 0.0), 1.0)
        cuts = np.array([18, 30, 40, 50, 60, 70, 80, 90])
        assert np.array_equal(edges[0], 0.5 * (x[cuts - 1] + x[cuts]))
        assert (res.n_cells, res.dof) == (9, 7)

    @staticmethod
    def walked_cuts(x, per_cell):
        # the cut rule as a walk over every equal-count cut
        n = len(x)
        rises = np.append(np.flatnonzero(np.diff(x) > 0.0) + 1, n)
        kept = [0]
        for cut in rises[np.searchsorted(rises, per_cell * np.arange(1, n // per_cell))].tolist():
            if cut - kept[-1] >= per_cell and cut <= n - per_cell:
                kept.append(cut)
        return kept[1:]

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["tie-free", "quantized", "tied"]), n=st.integers(1, 600),
           per_cell=st.sampled_from([1, 2, 3, 7, 10, 25]), levels=st.integers(1, 400),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_cuts_equal_the_walk(self, kind, n, per_cell, levels, seed):
        # tie-free data take the vectorized cuts, tied data the walk
        x = np.random.default_rng(seed).random(n)
        if kind == "quantized":
            x = np.round(x * levels) / levels
        elif kind == "tied":
            x = np.floor(x * min(levels, 5))
        x = np.sort(x)
        cuts = inference._cell_cuts(x, per_cell)
        assert cuts.dtype == np.int64 and cuts.tolist() == self.walked_cuts(x, per_cell)
        if kind == "tie-free":
            assert cuts.tolist() == list(range(per_cell, n - per_cell + 1, per_cell))

    def test_three_distinct_values_leave_too_few_cells(self):
        # 40 fit samples at each of 0.5, 1 and 1.5: three cells at most
        es = partition_stride(np.tile([0.5, 1.0, 1.5], 400), 10)
        for model in ("rice", "twdp"):
            with pytest.raises(DomainError, match="distinct values"):
                g_test(es, ModelFit(model, 1.0, 0.0, 0.0), estimate_omega(es))


class TestPipeline:
    def test_report_fields_and_determinism(self):
        es = make_set(10.0, 0.9, 10 ** 4, 41)
        r1 = fit_envelopes(es, SMALL_GRID)
        r2 = fit_envelopes(es, SMALL_GRID)
        assert r1.twdp.loglik >= r1.rice.loglik
        assert r1.chosen == select_model(r1.rice.aicc, r1.twdp.aicc)
        assert json.dumps(asdict(r1), sort_keys=True) == \
               json.dumps(asdict(r2), sort_keys=True)

    def test_reports_independent_of_thread_count(self, pool_threads):
        # the GEMV and the g-test's CDF split into row blocks per thread
        es = make_set(10.0, 0.9, 10 ** 5, 43)
        reports = []
        for workers in (1, 3):
            pool_threads(workers)
            reports.append(fit_envelopes(es, SMALL_GRID))
        assert reports[0].chosen == "twdp"
        assert reports[0] == reports[1]

    def test_forked_child_runs_its_own_g_test(self):
        # the child has none of the parent's pool threads; a pool kept across
        # the fork would queue the child's CDF blocks for threads that are gone
        es = make_set(10.0, 0.9, 10 ** 4, 45)
        report = fit_envelopes(es, SMALL_GRID)
        assert report.chosen == "twdp"
        fork = multiprocessing.get_context("fork")
        recv, send = fork.Pipe(duplex=False)
        child = fork.Process(
            target=lambda: send.send(g_test(es, report.twdp, report.omega_hat).statistic))
        child.start()
        try:
            assert recv.poll(60.0), "the forked child's g-test did not finish"
            assert recv.recv() == report.gtest.statistic
        finally:
            child.kill()
            child.join(10.0)

    def test_repeated_fits_start_no_thread(self):
        es = make_set(10.0, 0.9, 10 ** 4, 47)
        fit_envelopes(es, SMALL_GRID)
        before = threading.active_count()
        for _ in range(5):
            fit_envelopes(es, SMALL_GRID)
        assert threading.active_count() == before

    def test_rayleigh_data_prefers_rice(self):
        wins = 0
        for seed in range(10):
            es = make_set(0.0, 0.0, 10 ** 4, 300 + seed)
            report = fit_envelopes(es, TINY_GRID)
            wins += report.chosen == "rice"
        assert wins >= 9

    def test_equal_wave_data_prefers_twdp(self):
        for seed in range(10):
            es = make_set(10.0, 1.0, 10 ** 5, 600 + seed)
            report = fit_envelopes(es, SMALL_GRID)
            assert report.chosen == "twdp"
