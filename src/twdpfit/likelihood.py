"""Grid likelihood engine for the (K, Delta) maximum-likelihood search.

The search grid is dense (20001 x 21 cells at the default 0.05 steps up to
K = 1000), so log-densities are tabulated once per grid configuration and
each dataset's log-likelihood surface is obtained as a single matrix
product against a per-dataset weight vector:

* Envelopes are normalized by sqrt(omega_hat), so one table serves every
  dataset.
* The TWDP density is a mixture over the specular phase balance of Rician
  kernels (``fading._rice_kernel``). Per tabulated K row, the kernel is
  evaluated on a uniform grid of noncentrality amplitudes (skipping entries
  that underflow to exactly 0) and the fixed n_alpha-node trapezoid rule is
  folded into linear interpolation weights on that grid, giving the density
  of every Delta column from one kernel matrix. The rule does not double
  like ``twdp_pdf``'s: on a piecewise-linear a-grid it does not converge
  spectrally, so the a-grid sets the accuracy.
* Rows are independent, and the kernel's i0e and exp release the GIL, so
  the build runs them on the package's one thread pool (``pool``), with
  one worker per usable CPU, as the BER Monte Carlo runs its SNR points.
  The fold is numpy's own einsum loop, not a BLAS GEMM: OpenBLAS worker
  threads busy-wait after each GEMM and would take the cores the pool runs
  on. Its summation order differs from OpenBLAS's by <= 1.2e-13 in ln;
  the table is the same on every build.
* ln(pdf(x)/x) is stored on a uniform envelope grid (the division by x
  removes the r -> 0 log singularity, so interpolation stays accurate down
  to x = 0).
* Rows are tabulated exactly on a K subgrid: every grid step below K = 2,
  0.2 apart up to K = 20 and 2 % of K apart above, which holds the
  density-weighted interpolation error at its K = 20 level. 4-point Lagrange
  interpolation between rows commutes with the inner product against the
  data weights, so it applies to per-cell log-likelihoods as to rows.
* For a dataset, sum_n L(x_n) of the piecewise-linear interpolant of the
  tabulated L equals a weighted histogram of the samples dotted with the
  table row, so the whole grid evaluates as one GEMV. Samples above r_max
  (spikes) add their exact row density at every tabulated K row instead,
  so the table never grows.

There is one table per grid configuration, cached in module scope; the
default one (332 K rows, 57 MB) takes about 4 s to build on 2 cores, after
which each fit takes well under a second. Builds are logged at info level
with their thread count, cache hits at debug.

Accuracy of the tabulated log-density against the directly quadratured
density is ~2e-3 absolute in ln where the density is non-negligible
(pinned by tests); the induced distortion of the likelihood surface varies
smoothly across neighbouring cells and is far below the grid resolution.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fading import _rice_kernel, _trapezoid_nodes
from .pool import run_in_order, worker_count

__all__ = ["TableSpec", "PdfTable", "get_table", "clear_table_cache"]

log = logging.getLogger(__name__)

# exp(-0.5 d^2) is exactly 0 for |d| > 38.6040; blocks of _BLOCK a-nodes
# evaluate the kernel only on the union of their bands |a - b| <= _BAND
_BAND, _BLOCK = 38.61, 64


@dataclass(frozen=True)
class TableSpec:
    """Tuning knobs of the density table (defaults validated by tests)."""

    r_max: float = 4.0          # envelope grid upper edge, in sqrt(omega) units
    n_r: int = 1024             # envelope grid points
    n_alpha: int = 2048         # trapezoid nodes of the phase-balance quadrature
    a_step: float = 0.0625      # noncentrality-amplitude grid step per K row

    def __post_init__(self):
        if self.r_max <= 0 or self.n_r < 16 or self.a_step <= 0:
            raise DomainError("invalid table spec")
        if self.n_alpha < 4 or self.n_alpha % 2:
            raise DomainError("n_alpha must be an even integer >= 4")


def _coarse_k_indices(k_values: np.ndarray) -> np.ndarray:
    """Indices of exactly tabulated K rows.

    Spacing targets: every row below K=2, <=0.2 up to K=20, <=max(0.4, 0.02*K) above.
    The last row is always included so interpolation never extrapolates,
    and every row is tabulated where fewer than the 4 stencil rows would be.
    """
    n = len(k_values)
    if n <= 4:
        return np.arange(n)
    step = k_values[1] - k_values[0]
    idx = []
    i = 0
    while i < n:
        k = k_values[i]
        target = step if k < 2.0 else (0.2 if k < 20.0 else max(0.4, 0.02 * k))
        idx.append(i)
        i += max(1, int(target / step + 1e-9))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    return np.asarray(idx if len(idx) >= 4 else range(n), dtype=np.int64)


def _interp_histogram(pos: np.ndarray, weight, n: int) -> np.ndarray:
    """Linear-interpolation histograms on n unit-spaced nodes, one per row of
    `pos` (positions in node steps). Every lower share of `weight` is added
    before every upper one, so each node sums in one fixed order."""
    i0 = np.clip(pos.astype(np.int64), 0, n - 2)
    frac = pos - i0
    bins = (np.arange(len(pos))[:, None] * n + i0).ravel()
    w = np.zeros(len(pos) * n)
    np.add.at(w, bins, (weight * (1.0 - frac)).ravel())
    np.add.at(w, bins + 1, (weight * frac).ravel())
    return w.reshape(len(pos), n)


def _lagrange_weights(fine: np.ndarray, coarse: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """4-point Lagrange interpolation stencil of `fine` points on `coarse` nodes
    (all nodes when there are fewer than 4).

    Returns (idx, w) with shapes (n_fine, m), m = min(4, n_coarse). Where a
    fine point equals a coarse node, the product gives that node weight 1
    and the others +-0, an exact passthrough.
    """
    nf, nc = len(fine), len(coarse)
    m = min(4, nc)
    j = np.searchsorted(coarse, fine)
    j0 = np.clip(j - 2, 0, nc - m)
    idx = j0[:, None] + np.arange(m)[None, :]
    xk = coarse[idx]                                    # (nf, m)
    w = np.ones((nf, m))
    for a in range(m):
        for b in range(m):
            if a == b:
                continue
            w[:, a] *= (fine - xk[:, b]) / (xk[:, a] - xk[:, b])
    return idx, w


class PdfTable:
    """Tabulated ln(pdf(x)/x) over the (K, Delta) search grid."""

    def __init__(self, k_values: np.ndarray, deltas: np.ndarray, spec: TableSpec):
        if np.any(k_values < 0) or k_values[0] != k_values.min():
            raise DomainError("invalid K grid")
        self.k_values = np.asarray(k_values, dtype=float)
        self.deltas = np.asarray(deltas, dtype=float)
        self.spec = spec
        self.x_grid = np.linspace(0.0, spec.r_max, spec.n_r)
        self._dx = self.x_grid[1] - self.x_grid[0]
        self._cos_nodes, self._quad_w = _trapezoid_nodes(spec.n_alpha)
        self.coarse_idx = _coarse_k_indices(self.k_values)
        self.coarse_k = self.k_values[self.coarse_idx]
        self._interp_idx, self._interp_w = _lagrange_weights(self.k_values, self.coarse_k)
        nc, nd, nr = len(self.coarse_idx), len(self.deltas), spec.n_r
        self.log_rows = np.empty((nc, nd, nr))
        self.workers = worker_count()

        def tabulate(i):
            self.log_rows[i] = self._build_row(self.coarse_k[i], self.x_grid)

        # i0e and exp release the GIL, so rows build in parallel
        run_in_order(tabulate, nc, self.workers)

    # -- construction ------------------------------------------------------

    def _kernel(self, a: np.ndarray, b: np.ndarray, s2: float) -> np.ndarray:
        """Rician density kernel over envelope, divided by x: rows of
        ascending noncentrality amplitudes `a`, columns of ascending scaled
        envelopes `b` = x*sqrt(s2). Entries outside the band are exactly 0."""
        kern = np.zeros((len(a), len(b)))
        for i in range(0, len(a), _BLOCK):
            ab = a[i:i + _BLOCK, None]
            lo, hi = np.searchsorted(b, [ab[0, 0] - _BAND, ab[-1, 0] + _BAND])
            kern[i:i + _BLOCK, lo:hi] = _rice_kernel(ab, b[lo:hi], s2)
        return kern

    def _build_row(self, k: float, x: np.ndarray) -> np.ndarray:
        """ln(pdf(x)/x) at ascending envelopes `x`, for every Delta column of
        row K, shape (len(deltas), len(x))."""
        s2 = 2.0 * (1.0 + k)
        b = x * np.sqrt(s2)
        # the Delta = 0 column collapses to a single kernel, exact for every
        # column at K = 0
        single = self._kernel(np.full(1, np.sqrt(2.0 * k)), b, s2)
        pdf_over_x = np.repeat(single, len(self.deltas), axis=0)
        if k > 0.0:
            ag, w_fold = self._fold_weights(k)
            # numpy's own loop, not BLAS: OpenBLAS threads busy-wait after
            # each GEMM and would take the cores the row pool runs on
            pdf_over_x[1:] = np.einsum("da,ab->db", w_fold[1:], self._kernel(ag, b, s2))
        return np.log(np.maximum(pdf_over_x, 1e-300))

    def _fold_weights(self, k: float) -> tuple[np.ndarray, np.ndarray]:
        """Noncentrality-amplitude grid of row K > 0 and the phase-balance
        quadrature of every Delta column folded into linear interpolation
        weights on it, shape (len(deltas), len(grid))."""
        a_max = np.sqrt(2.0 * k * (1.0 + self.deltas[-1]))
        na = max(33, int(np.ceil(a_max / self.spec.a_step)) + 1)
        ag = np.linspace(0.0, a_max, na)
        pos = np.sqrt(2.0 * k * (1.0 + self.deltas[:, None] * self._cos_nodes)) / (ag[1] - ag[0])
        return ag, _interp_histogram(pos, self._quad_w, na)

    # -- evaluation --------------------------------------------------------

    def sample_weights(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """Linear-interpolation histogram of normalized envelopes on the
        x grid, plus the cell-independent sum of ln(x_n)."""
        if np.any(x > self.spec.r_max):
            raise DomainError("sample exceeds the table envelope range")
        w = _interp_histogram(x[None, :] / self._dx, 1.0, self.spec.n_r)[0]
        with np.errstate(divide="ignore"):
            const = float(np.sum(np.log(x)))
        return w, const

    def loglik_surface(self, x: np.ndarray) -> np.ndarray:
        """Log-likelihood of normalized envelopes at every (K, Delta) cell.

        Returns an array of shape (len(k_values), len(deltas)); values are
        the exact sums for the piecewise-linear tabulated density, with
        samples above ``spec.r_max`` scored on the exact row density.
        """
        beyond = x > self.spec.r_max
        x_out = np.sort(x[beyond])
        w, const = self.sample_weights(x[~beyond])
        nc, nd, nr = self.log_rows.shape
        coarse = (self.log_rows.reshape(nc * nd, nr) @ w).reshape(nc, nd)
        if len(x_out):
            coarse += np.array([self._build_row(k, x_out).sum(axis=1) for k in self.coarse_k])
            const += float(np.sum(np.log(x_out)))
        full = np.einsum("fj,fjd->fd", self._interp_w, coarse[self._interp_idx])
        return full + const


_TABLE_CACHE: dict[tuple, PdfTable] = {}


def get_table(k_values: np.ndarray, deltas: np.ndarray, spec: TableSpec) -> PdfTable:
    """Build-or-fetch the density table for a grid configuration."""
    key = (round(float(k_values[0]), 12), round(float(k_values[-1]), 12),
           len(k_values), len(deltas), spec)
    if key in _TABLE_CACHE:
        log.debug("density table cache hit: %d K rows x %d Delta x %d r",
                  *_TABLE_CACHE[key].log_rows.shape)
        return _TABLE_CACHE[key]
    start = time.perf_counter()
    tab = _TABLE_CACHE[key] = PdfTable(k_values, deltas, spec)
    log.info("density table built: %d K rows x %d Delta x %d r, %.1f MB, %.2f s on %d threads",
             *tab.log_rows.shape, tab.log_rows.nbytes / 1e6, time.perf_counter() - start,
             tab.workers)
    return tab


def clear_table_cache() -> None:
    _TABLE_CACHE.clear()
