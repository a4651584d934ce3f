"""Partitioning, moment estimation, grid ML, information criterion and
g-test. Heavy default-grid recovery runs live in the acceptance suite; here
the grids are kept small, apart from the default-grid table (~4 s to build)
behind the high-K accuracy checks, so the module runs in well under a minute.
"""

import json
import logging
import math
import sys
import time
from dataclasses import asdict

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
    twdp_pdf,
)
from twdpfit import likelihood, pool
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
    return PdfTable(np.array([50.0, 200.0, 500.0, 1000.0]), SMALL_GRID.delta_values, TableSpec())


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
        table = get_table(grid.k_values, grid.delta_values, TableSpec())
        rng = np.random.default_rng(3)
        x = np.linspace(0.05, 2.5, 40)
        worst = 0.0
        for _ in range(12):
            ki = int(rng.integers(0, len(grid.k_values)))
            di = int(rng.integers(0, len(grid.delta_values)))
            k, d = float(grid.k_values[ki]), float(grid.delta_values[di])
            exact = twdp_pdf(x, FadingParams(k, d, 1.0))
            # piecewise-linear readout of the tabulated ln(pdf/x)
            surfaces = [table.loglik_surface(np.array([xi]))[ki, di] for xi in x]
            got = np.asarray(surfaces)
            with np.errstate(divide="ignore"):
                want = np.log(exact)
            keep = want > -8.0
            worst = max(worst, np.max(np.abs(got[keep] - want[keep])))
        assert worst < 1.5e-2

    def test_out_of_range_sample_matches_density(self):
        # A sample beyond r_max = 4 is scored on the row density at its exact
        # value. Below ln pdf ~ -20 the row's own far-tail fold error
        # dominates (0.024 in ln at -35 and 0.047 at -66 against the exact
        # density), so the check stops there; K = 0 has the closed Rayleigh
        # form everywhere.
        grid = SMALL_GRID
        table = get_table(grid.k_values, grid.delta_values, TableSpec())
        x = np.concatenate([np.linspace(4.02, 4.6, 8), np.linspace(5.0, 8.0, 4)])
        worst, checked = 0.0, 0
        for k in (0.0, 0.05, 0.3, 1.0, 1.55):
            ki = int(np.searchsorted(grid.k_values, k))
            for di in (0, 10, 20):
                got = np.array([table.loglik_surface(np.array([xi]))[ki, di] for xi in x])
                with np.errstate(divide="ignore"):
                    want = np.log(twdp_pdf(x, FadingParams(k, grid.delta_values[di], 1.0)))
                keep = want > -20.0
                checked += keep.sum()
                worst = max(worst, np.max(np.abs(got[keep] - want[keep]), initial=0.0))
                if k == 0.0:
                    assert np.allclose(got, np.log(2.0 * x) - x * x, rtol=0, atol=1e-9)
        assert checked >= 40
        assert worst < 1.5e-2

    def test_row_on_grid_nodes_matches_stored_rows(self, high_k_table):
        small = get_table(SMALL_GRID.k_values, SMALL_GRID.delta_values, TableSpec())
        nodes = np.array([0, 1, 257, 700, 1023])
        for table in (small, high_k_table):
            for i in range(0, len(table.coarse_k), 7):
                row = table._build_row(table.coarse_k[i], table.x_grid[nodes])
                assert np.max(np.abs(row - table.log_rows[i][:, nodes])) <= 1e-12

    def test_banded_kernel_rows_are_bit_identical(self, high_k_table, monkeypatch):
        # beyond the band exp(-0.5 (a - b)^2) underflows to exactly 0, so
        # skipping those entries must not change a single bit against the
        # kernel evaluated on the whole (a, b) plane
        assert np.exp(-0.5 * likelihood._BAND ** 2) == 0.0

        def full_kernel(self, a, b, s2):
            return s2 * special.i0e(a[:, None] * b) * np.exp(-0.5 * (a[:, None] - b) ** 2)

        small = get_table(SMALL_GRID.k_values, SMALL_GRID.delta_values, TableSpec())
        monkeypatch.setattr(PdfTable, "_kernel", full_kernel)
        for table in (small, high_k_table):
            for i in range(0, len(table.coarse_k), 3):
                row = table._build_row(table.coarse_k[i], table.x_grid)
                assert np.array_equal(row, table.log_rows[i])

    def test_far_spike_floors_every_row(self):
        # at 30 root powers the density of every row underflows to 0; the
        # K = 0 row must floor like the others, or the Lagrange step turns
        # its -inf into NaN next to it and the fit fails
        table = get_table(TINY_GRID.k_values, TINY_GRID.delta_values, TableSpec())
        assert np.all(np.isfinite(table.loglik_surface(np.array([1.0, 30.0]))))
        values = np.concatenate([np.full(40, 1.0), [1.0, 30.0]])
        mask = np.zeros(42, bool)
        mask[-2:] = True
        rice, twdp = ml_fit(EnvelopeSet(values, mask), 1.0, TINY_GRID)
        assert np.isfinite(rice.loglik) and np.isfinite(twdp.loglik)

    def test_in_range_surface_is_the_histogram_product(self):
        grid = SMALL_GRID
        table = get_table(grid.k_values, grid.delta_values, TableSpec())
        x = make_set(10.0, 0.9, 10 ** 4, 5).fit_values
        x = 3.99 * x / x.max()
        w, const = table.sample_weights(x)
        nc, nd, nr = table.log_rows.shape
        coarse = (table.log_rows.reshape(nc * nd, nr) @ w).reshape(nc, nd)
        want = np.einsum("fj,fjd->fd", table._interp_w, coarse[table._interp_idx]) + const
        assert np.array_equal(table.loglik_surface(x), want)

    def test_short_grid_tabulates_every_row(self):
        # a 3- or 5-point grid above K = 20 spans less than one 0.4 coarse
        # step: too few rows for the 4-point stencil, so every K is exact
        x = make_set(20.0, 0.0, 10 ** 4, 11).fit_values
        for k_max in (20.1, 20.2):
            grid = GridConfig(k_min=20.0, k_max=k_max, k_step=0.05)
            table = get_table(grid.k_values, grid.delta_values, TableSpec())
            assert np.array_equal(table.coarse_k, grid.k_values)
            w, const = table.sample_weights(x)
            want = table.log_rows @ w + const
            assert np.allclose(table.loglik_surface(x), want, rtol=0, atol=1e-9)


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

    @pytest.mark.parametrize("k, delta, seed", HIGH_K_CORPUS)
    def test_high_k_truth_cell_matches_density(self, k, delta, seed):
        # With fixed 0.4 steps every truth here is a tabulated row and the
        # worst per-sample gap is 2.04e-3 (K = 800, Delta = 0): the linear
        # readout of the narrow high-K density on the x grid sets it, and
        # interpolating between rows 0.02 K apart moves it by < 1e-7.
        grid = GridConfig()
        table = get_table(grid.k_values, grid.delta_values, TableSpec())
        x = make_set(k, delta, 10 ** 5, seed).fit_values
        ki = int(np.searchsorted(grid.k_values, k))
        di = int(np.searchsorted(grid.delta_values, delta))
        got = table.loglik_surface(x)[ki, di]
        want = np.sum(np.log(twdp_pdf(x, FadingParams(k, delta, 1.0))))
        assert abs(got - want) / len(x) <= 2.5e-3


class TestTablePool:
    def rows_on_main_thread(self, table):
        return np.array([table._build_row(k, table.x_grid) for k in table.coarse_k])

    def test_pooled_rows_equal_main_thread_rows(self):
        table = PdfTable(TINY_GRID.k_values, TINY_GRID.delta_values, TableSpec())
        assert table.workers == pool.worker_count()
        assert np.array_equal(table.log_rows, self.rows_on_main_thread(table))

    def test_oversubscribed_pool_loses_no_row(self, monkeypatch):
        # more threads than cores, switching every microsecond: a row lost
        # or written twice would leave np.empty garbage or a wrong K
        monkeypatch.setattr(likelihood, "worker_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.perf_counter()
            table = PdfTable(TINY_GRID.k_values, TINY_GRID.delta_values, TableSpec())
            elapsed = time.perf_counter() - start
        finally:
            sys.setswitchinterval(interval)
        assert table.workers == 8
        assert elapsed < 60.0
        assert np.array_equal(table.log_rows, self.rows_on_main_thread(table))

    def test_fold_matches_blas_reference(self, high_k_table):
        # the fold sums in numpy's loop order, not OpenBLAS's; the parent
        # form (per-Delta np.add.at weights, GEMM) stays the reference
        small = get_table(SMALL_GRID.k_values, SMALL_GRID.delta_values, TableSpec())
        for table in (small, high_k_table):
            for k in table.coarse_k[1::4]:
                ag, w_fold = table._fold_weights(k)
                na, h = len(ag), ag[1] - ag[0]
                ref_w = np.zeros((len(table.deltas), na))
                for di, d in enumerate(table.deltas):
                    pos = np.sqrt(2.0 * k * (1.0 + d * table._cos_nodes)) / h
                    i0 = np.clip(pos.astype(np.int64), 0, na - 2)
                    frac = pos - i0
                    np.add.at(ref_w[di], i0, table._quad_w * (1.0 - frac))
                    np.add.at(ref_w[di], i0 + 1, table._quad_w * frac)
                assert np.array_equal(w_fold, ref_w)
                s2 = 2.0 * (1.0 + k)
                kern = table._kernel(ag, table.x_grid * np.sqrt(s2), s2)
                ref = np.log(np.maximum(ref_w @ kern, 1e-300))
                row = table._build_row(k, table.x_grid)
                assert np.max(np.abs(row[1:] - ref[1:])) <= 1e-12

    def test_worker_error_reaches_caller_and_caches_nothing(self, monkeypatch):
        monkeypatch.setattr(likelihood, "_TABLE_CACHE", {})
        build_row = PdfTable._build_row

        def failing_row(self, k, x):
            if k > 1.0:
                raise FloatingPointError("row failed")
            return build_row(self, k, x)

        monkeypatch.setattr(PdfTable, "_build_row", failing_row)
        with pytest.raises(FloatingPointError, match="row failed"):
            get_table(TINY_GRID.k_values, TINY_GRID.delta_values, TableSpec())
        assert likelihood._TABLE_CACHE == {}


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

    def test_misses_and_hits_are_logged(self, monkeypatch, caplog):
        monkeypatch.setattr(likelihood, "_TABLE_CACHE", {})
        caplog.set_level(logging.DEBUG, logger="twdpfit.likelihood")
        for _ in range(2):
            get_table(TINY_GRID.k_values, TINY_GRID.delta_values, TableSpec())
        (miss, hit) = [r for r in caplog.records if r.name == "twdpfit.likelihood"]
        assert miss.levelno == logging.INFO and hit.levelno == logging.DEBUG
        assert "built: 41 K rows x 21 Delta x 1024 r, 7.1 MB" in miss.getMessage()
        assert miss.getMessage().endswith(f" s on {pool.worker_count()} threads")
        assert "cache hit: 41 K rows" in hit.getMessage()


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

    def test_last_cell_absorbs_remainder(self):
        es = make_set(1.0, 0.0, 4170, 3)  # 417 fit samples -> 41 cells, last 17
        om = estimate_omega(es)
        rice, _ = ml_fit(es, om, TINY_GRID)
        res = g_test(es, rice, om)
        assert res.n_cells == 41

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


class TestPipeline:
    def test_report_fields_and_determinism(self):
        es = make_set(10.0, 0.9, 10 ** 4, 41)
        r1 = fit_envelopes(es, SMALL_GRID)
        r2 = fit_envelopes(es, SMALL_GRID)
        assert r1.twdp.loglik >= r1.rice.loglik
        assert r1.chosen == select_model(r1.rice.aicc, r1.twdp.aicc)
        assert json.dumps(asdict(r1), sort_keys=True) == \
               json.dumps(asdict(r2), sort_keys=True)

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
