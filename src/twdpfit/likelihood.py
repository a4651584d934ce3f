"""Grid likelihood engine for the (K, Delta) maximum-likelihood search.

The search grid is dense (20001 x 21 cells at the default 0.05 steps up to
K = 1000), so log-densities are tabulated once per grid configuration and
each dataset's log-likelihood surface is obtained as a single matrix
product against a per-dataset weight vector:

* Envelopes are normalized by sqrt(omega_hat), so one table serves every
  dataset.
* The TWDP density is a mixture over the specular phase balance of Rician
  kernels (``fading._rice_kernel``). Per tabulated K row, the kernel is
  evaluated on a uniform grid of noncentrality amplitudes, at most 0.125
  apart (skipping entries that underflow to exactly 0), and the fixed
  n_alpha-node trapezoid rule is folded into cubic-convolution weights on
  that grid (Keys 1981, a = -0.5), giving the density of every Delta column
  from one kernel matrix. The kernel is even in the amplitude, so the tap
  below 0 reflects onto node 1, and 2 guard nodes lie above the top.
* Beyond the amplitudes of a Delta column the kernel grows by e^((b - a) da)
  per node, too steep for cubic taps, which then go negative. So the fold
  comes in 7 exponential tilts, growths of 0, +-1.5, +-3 and +-4.5 per node
  (the taps of f(s) e^(-mu s), times e^(mu s)), and each entry reads the
  one nearest its kernel's growth at the edge of the amplitude range.
* A node of the fold sits at (na - 1) sqrt((1 + Delta cos alpha) /
  (1 + max Delta)) on a grid of na nodes, whatever K, and na is one of a
  ladder 10 % apart, so the fold weights are built once per node count,
  on the row pool before the rows (from numpy 2.4 ``np.add.at`` releases
  the GIL), and every row with that count reads them: 12 counts for the
  153 rows up to K = 30 (0.8 MB), 18 for the 215 up to K = 100 (1.7 MB)
  and 30 for the default grid's 332 (6.2 MB).
* Rows are independent, and the kernel's numpy passes (``fading._i0e``'s
  Horner steps and exp) release the GIL, so the build maps them over
  twdpfit's shared thread pool (``pool.executor``, one thread per usable
  CPU), as the BER Monte Carlo maps its SNR points.
  The fold is numpy's own einsum loop on twdpfit's threads, not a BLAS GEMM,
  because OpenBLAS busy-waits: its worker threads spin after each GEMM and
  would take the cores the pool runs on. Its summation order differs from
  OpenBLAS's by <= 1e-12 in ln; the table is the same on every build.
* ln(pdf(x)/x) is stored on a uniform envelope grid of 512 nodes up to
  r_max = 4 and 2 guard nodes above it (the division by x removes the
  r -> 0 log singularity and makes the function even in x, so the readout
  reflects at 0 as the fold does).
* Rows are tabulated exactly on a K subgrid: every grid step below K = 2,
  0.2 apart up to K = 20 and 2 % of K apart above, which holds the
  density-weighted interpolation error at its K = 20 level. 4-point Lagrange
  interpolation between rows commutes with the inner product against the
  data weights, so it applies to per-cell log-likelihoods as to rows.
* For a dataset, sum_n L(x_n) of the cubic-convolution interpolant of the
  tabulated L equals a weighted histogram of the samples dotted with the
  table row, so the whole grid evaluates as one GEMV. That GEMV is numpy's
  own einsum loop too, over row blocks of the table on the shared pool
  (``pool.map_row_blocks``): each surface row is the same dot product on any
  number of threads, within 1e-12 relative of OpenBLAS's. It runs only over
  the columns up to the data's last nonzero weight, rounded up to a multiple
  of 32 (typical 1e5-envelope sets reach nodes 206-304 of 514), and gives
  the same bits as the einsum over every column. Samples above r_max
  (spikes) add their row density at their exact value, through the same
  fold weights, at every tabulated K row instead, so the table never grows
  and a spike pays only for its kernel. Over a few spikes the rows' small
  kernels share one evaluation.

There is one table per (K, Delta) grid, keyed by its values and cached in
module scope, at one fixed resolution (``TableSpec``); the default one (332 K
rows, 28.7 MB) builds in about 0.6-0.7 s on 2 cores, after which each fit takes
well under a second. Builds are logged at info level with the table's and
the fold weights' bytes, cache hits at debug.

Accuracy of the tabulated log-density against the exact ``twdp_pdf`` (pinned
by tests): read back through the cubic readout and the K stencil, within
5.2e-3 in ln wherever ln pdf > -20 for K 1-100 and every Delta, and 5e-7
per sample at the truth cell for K 50-800; the stored rows and spikes are
within 8.2e-3 down to the 1e-300 floor (ln pdf/x = -690.8) up to K = 1000.
"""

from __future__ import annotations

import logging
import time

import numpy as np

from .errors import DomainError
from .fading import _rice_kernel, _trapezoid_nodes
from .pool import executor, map_row_blocks, threads

__all__ = ["TableSpec", "PdfTable", "MAX_TABLE_BYTES", "table_bytes", "get_table",
           "clear_table_cache"]

log = logging.getLogger(__name__)

# exp(-0.5 d^2) is exactly 0 for |d| > 38.6040; blocks of _BLOCK a-nodes
# evaluate the kernel only on the union of their bands |a - b| <= _BAND
_BAND, _BLOCK = 38.61, 64
# spikes per kernel matrix of a spiked surface. A row kernel over them of
# fewer than _SHARED_KERNEL entries costs less than the ~45 us of numpy calls
# of a kernel evaluation, so up to _SHARED_ROWS such rows share one.
_SPIKE_BLOCK = 4096
_SHARED_KERNEL, _SHARED_ROWS = 2048, 128
# the fold's tilts, in growth of ln(kernel) per amplitude node. Growth reaches
# 37.3 a_step = 4.66 at the 1e-300 floor; untilted cubic taps are 6e-3 off
# in ln at 0.75 and 0.5 off at 2. Each entry takes the nearest tilt.
_TILT_STEP, _TILT_TOP = 1.5, 3
_TILTS = _TILT_STEP * np.arange(-_TILT_TOP, _TILT_TOP + 1)
# amplitude node counts: 33 and then 10 % apart, so rows share fold weights
# (strictly rising already; np.unique would import numpy.ma, ~15 ms, on every
# import of the package)
_NODE_COUNTS = np.ceil(33.0 * 1.1 ** np.arange(80)).astype(np.int64)


# Largest density table a search grid may ask for, 1e9 bytes: 35 times the
# default grid's 28.7 MB. Every K step below K = 2 is an exact row (86 KB at
# 21 Delta columns) and rows grow with the Delta columns, so grids under
# the 1e7-cell cap can ask for tables of tens of GB.
MAX_TABLE_BYTES = 10 ** 9


class TableSpec:
    """The fixed resolution of every density table (validated by tests). It
    stays only because the benchmark's warm worker passes ``TableSpec()`` to
    ``get_table``; once that call goes, the class can go too."""

    r_max = 4.0         # envelope grid upper edge, in sqrt(omega) units
    n_r = 512           # envelope grid points up to r_max; 2 guard nodes lie above
    n_alpha = 2048      # trapezoid nodes of the phase-balance quadrature
    a_step = 0.125      # largest noncentrality-amplitude grid step per K row


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
    below = int(np.searchsorted(k_values, 2.0))       # every row below K = 2
    idx = []
    i = below
    while i < n:
        k = k_values[i]
        target = 0.2 if k < 20.0 else max(0.4, 0.02 * k)
        idx.append(i)
        i += max(1, int(target / step + 1e-9))
    if (idx[-1] if idx else below - 1) != n - 1:
        idx.append(n - 1)
    if below + len(idx) < 4:
        return np.arange(n)
    return np.concatenate([np.arange(below), np.asarray(idx, dtype=np.int64)])


def table_bytes(k_values, n_delta: int) -> int:
    """Bytes of the density table of the K grid ``k_values`` with ``n_delta``
    Delta columns, counted without building it."""
    rows = len(_coarse_k_indices(np.asarray(k_values, dtype=float)))
    return rows * n_delta * (TableSpec.n_r + 2) * 8


def _interp_histogram(pos: np.ndarray, weight, n: int, tilts=(0.0,)) -> np.ndarray:
    """Cubic-convolution histograms (Keys, a = -0.5) on n unit-spaced nodes,
    shape (len(tilts), len(pos), n), one per tilt and row of `pos` (positions
    in node steps, at most n - 3): dotted with node values, a row gives the
    sum of the cubic interpolant at its positions. The function read back is
    even about node 0, so tap -1 reflects onto node 1; the last two nodes are
    guards above the highest position. With a tilt mu, the interpolant is
    that of f(s) e^(-mu s), times e^(mu s): e^(mu s) times a quadratic comes
    back exactly, so a function growing by about e^mu per node is read as if
    it were flat. The tilts share the taps and node indices; each node adds
    its shares in the order of taps -1, 0, 1, 2."""
    i = pos.astype(np.int64)
    t = pos - i
    t2 = t * t
    t3 = t2 * t
    taps = (-0.5 * t3 + t2 - 0.5 * t, 1.5 * t3 - 2.5 * t2 + 1.0,
            -1.5 * t3 + 2.0 * t2 + 0.5 * t, 0.5 * (t3 - t2))
    row = np.arange(len(pos))[:, None] * n
    hist = np.zeros((len(tilts), len(pos) * n))
    grow = [np.exp(mu * t) if mu else 1.0 for mu in tilts]
    for j, tap in zip((-1, 0, 1, 2), taps):
        node = (row + np.abs(i + j)).ravel()
        for h, mu, g in zip(hist, tilts, grow):
            # faster than one np.bincount over all four taps (numpy 2.4)
            np.add.at(h, node, (weight * (tap * (g * np.exp(-mu * j)))).ravel())
    return hist.reshape(len(tilts), len(pos), n)


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
    """Tabulated ln(pdf(x)/x) over the (K, Delta) search grid, whose Deltas
    start at 0 and lie in [0, 1]."""

    def __init__(self, k_values: np.ndarray, deltas: np.ndarray):
        self.k_values = np.asarray(k_values, dtype=float)
        # the 4-point K stencil needs distinct ascending rows; ascending from
        # k[0] >= 0 up to a finite k[-1] also rules out NaN and infinities
        k = self.k_values
        if k.ndim != 1 or not len(k) or not (k[0] >= 0.0 and np.isfinite(k[-1])
                                              and np.all(np.diff(k) > 0.0)):
            raise DomainError("invalid K grid: it must be finite, >= 0 and strictly ascending")
        self.deltas = np.asarray(deltas, dtype=float)
        # the first column is tabulated as the single Delta = 0 kernel, and
        # 1 + Delta cos(alpha) must not go negative
        if self.deltas[0] != 0.0 or np.any((self.deltas < 0.0) | (self.deltas > 1.0)):
            raise DomainError("invalid Delta grid: it must start at 0 and lie in [0, 1]")
        self._dx = TableSpec.r_max / (TableSpec.n_r - 1)
        self.x_grid = np.arange(TableSpec.n_r + 2) * self._dx
        self._cos_nodes, self._quad_w = _trapezoid_nodes(TableSpec.n_alpha)
        self.coarse_idx = _coarse_k_indices(self.k_values)
        self.coarse_k = self.k_values[self.coarse_idx]
        self._interp_idx, self._interp_w = _lagrange_weights(self.k_values, self.coarse_k)
        nc, nd, nr = len(self.coarse_idx), len(self.deltas), len(self.x_grid)
        self.log_rows = np.empty((nc, nd, nr))
        self.workers = threads()
        # one set of fold matrices per amplitude node count, shared by every
        # row and every spiked surface with that count; the rows only read them
        counts = sorted({len(self._amplitude_grid(k)) for k in self.coarse_k if k > 0.0})
        self.folds = dict(zip(counts, executor().map(self._fold_weights, counts)))
        # the kernel's numpy passes release the GIL, so rows build in parallel
        for i, row in enumerate(executor().map(self._build_row, self.coarse_k,
                                               [self.x_grid] * nc)):
            self.log_rows[i] = row

    # -- construction ------------------------------------------------------

    def _kernel(self, a: np.ndarray, b: np.ndarray, s2: float) -> np.ndarray:
        """Rician density kernel over envelope, divided by x: rows of
        noncentrality amplitudes `a`, columns of ascending scaled envelopes
        `b` = x*sqrt(s2). Entries outside the band are exactly 0."""
        kern = np.zeros((len(a), len(b)))
        for i in range(0, len(a), _BLOCK):
            ab = a[i:i + _BLOCK, None]
            lo, hi = np.searchsorted(b, [ab.min() - _BAND, ab.max() + _BAND])
            if lo < hi:
                kern[i:i + _BLOCK, lo:hi] = _rice_kernel(ab, b[lo:hi], s2)
        return kern

    def _amplitudes(self, k: float) -> np.ndarray:
        """The kernel rows of row K: its amplitude grid, then the single
        Delta = 0 amplitude sqrt(2K), alone at K = 0 or for a lone Delta
        column. The Delta = 0 column collapses to that single kernel, exact
        for every column at K = 0; as one more row of the grid's kernel it
        costs no call of its own, since fewer and longer numpy passes hold
        the GIL less."""
        single = np.full(1, np.sqrt(2.0 * k))
        if k > 0.0 and len(self.deltas) > 1:
            return np.append(self._amplitude_grid(k), single)
        return single

    def _build_row(self, k: float, x: np.ndarray, kern: np.ndarray | None = None) -> np.ndarray:
        """ln(pdf(x)/x) at ascending envelopes `x`, for every Delta column of
        row K, shape (len(deltas), len(x)); `kern`, when given, is the kernel
        of ``_amplitudes(k)`` over x."""
        s2 = 2.0 * (1.0 + k)
        b = x * np.sqrt(s2)
        amps = self._amplitudes(k)
        if kern is None:
            kern = self._kernel(amps, b, s2)
        pdf_over_x = np.repeat(kern[-1:], len(self.deltas), axis=0)
        if len(amps) > 1:
            ag, kern = amps[:-1], kern[:-1]
            # ln(kernel) grows by about (b - a) da per node beyond the amplitudes
            # [a_lo, a_hi] of a Delta column
            d = self.deltas[1:, None]
            a_lo, a_hi = np.sqrt(2.0 * k * (1.0 - d)), np.sqrt(2.0 * k * (1.0 + d))
            growth = ag[1] * (np.maximum(b - a_hi, 0.0) + np.minimum(b - a_lo, 0.0))
            level = np.clip(np.rint(growth / _TILT_STEP), -_TILT_TOP, _TILT_TOP).astype(np.int64)
            level += _TILT_TOP
            # each column's levels rise with b, so a level's columns are one run
            low, high = level.min(axis=0), level.max(axis=0)
            folds = self.folds[len(ag)]
            for lv in range(low[0], high[-1] + 1):
                lo, hi = np.searchsorted(high, lv), np.searchsorted(low, lv, side="right")
                if lo == hi:
                    continue
                # numpy's own loop, not BLAS: OpenBLAS threads busy-wait after
                # each GEMM and would take the cores the row pool runs on
                part = np.einsum("da,ab->db", folds[lv], kern[:, lo:hi])
                np.copyto(pdf_over_x[1:, lo:hi], part, where=level[:, lo:hi] == lv)
        return np.log(np.maximum(pdf_over_x, 1e-300))

    def _spike_sums(self, x: np.ndarray) -> np.ndarray:
        """Each tabulated row's ln(pdf/x) summed over the ascending spikes
        `x`, shape (len(coarse_k), len(deltas)). Rows whose kernel over the
        spikes is small evaluate it together, the others on their own with
        the band skip."""
        amps = [self._amplitudes(k) for k in self.coarse_k]
        sums = np.empty((len(amps), len(self.deltas)))
        shared = []
        for r, (k, am) in enumerate(zip(self.coarse_k, amps)):
            if len(am) * len(x) < _SHARED_KERNEL:
                shared.append(r)
            else:
                sums[r] = self._build_row(k, x).sum(axis=1)
        for i in range(0, len(shared), _SHARED_ROWS):
            rows = shared[i:i + _SHARED_ROWS]
            s2 = 2.0 * (1.0 + self.coarse_k[rows])
            sizes = [len(amps[r]) * len(x) for r in rows]
            a = np.concatenate([np.repeat(amps[r], len(x)) for r in rows])
            b = np.concatenate([np.tile(x * np.sqrt(s), len(amps[r])) for r, s in zip(rows, s2)])
            kern = _rice_kernel(a, b, np.repeat(s2, sizes))
            for r, part in zip(rows, np.split(kern, np.cumsum(sizes)[:-1])):
                sums[r] = self._build_row(self.coarse_k[r], x,
                                          part.reshape(-1, len(x))).sum(axis=1)
        return sums

    def _amplitude_grid(self, k: float) -> np.ndarray:
        """Noncentrality amplitudes of row K > 0: na nodes from 0 to
        sqrt(2K(1 + max Delta)), at most a_step apart and na one of
        _NODE_COUNTS, then 2 guard nodes."""
        a_max = np.sqrt(2.0 * k * (1.0 + self.deltas.max()))
        need = int(np.ceil(a_max / TableSpec.a_step)) + 1
        na = int(_NODE_COUNTS[np.searchsorted(_NODE_COUNTS, need)])
        return np.arange(na + 2) * (a_max / (na - 1))

    def _fold_weights(self, n: int) -> np.ndarray:
        """The phase-balance quadrature of every Delta > 0 column folded into
        cubic interpolation weights on an n-node amplitude grid, one matrix
        per tilt, shape (len(_TILTS), len(deltas) - 1, n). The node of
        sqrt(2K(1 + Delta cos alpha)) is (n - 3) sqrt((1 + Delta cos alpha) /
        (1 + max Delta)), whatever K."""
        pos = (n - 3) * np.sqrt((1.0 + self.deltas[1:, None] * self._cos_nodes)
                                / (1.0 + self.deltas.max()))
        return _interp_histogram(pos, self._quad_w, n, _TILTS)

    # -- evaluation --------------------------------------------------------

    def sample_weights(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """Cubic-convolution histogram of normalized envelopes on the x grid,
        plus the cell-independent sum of ln(x_n)."""
        if np.any(x > TableSpec.r_max):
            raise DomainError("sample exceeds the table envelope range")
        w = _interp_histogram(x[None, :] / self._dx, 1.0, len(self.x_grid))[0, 0]
        with np.errstate(divide="ignore"):
            const = float(np.sum(np.log(x)))
        return w, const

    def loglik_surface(self, x: np.ndarray) -> np.ndarray:
        """Log-likelihood of normalized envelopes at every (K, Delta) cell.

        Returns an array of shape (len(k_values), len(deltas)); values are
        the exact sums for the piecewise-cubic tabulated density, with
        samples above ``TableSpec.r_max`` scored on the row density at their
        exact value.
        """
        beyond = x > TableSpec.r_max
        x_out = np.sort(x[beyond])
        w, const = self.sample_weights(x[~beyond])
        nc, nd, nr = self.log_rows.shape
        # only the columns up to the data's last nonzero weight, rounded up to
        # whole 32-column blocks, which leaves the einsum's sums the same bits
        reach = np.flatnonzero(w)
        cols = min(nr, -(-(reach[-1] + 1) // 32) * 32) if reach.size else 0
        coarse = map_row_blocks(lambda rows: np.einsum("ij,j->i", rows, w[:cols]),
                                self.log_rows.reshape(nc * nd, nr)[:, :cols]).reshape(nc, nd)
        # blocks of spikes bound the kernel matrix of a row
        for i in range(0, len(x_out), _SPIKE_BLOCK):
            coarse += self._spike_sums(x_out[i:i + _SPIKE_BLOCK])
        const += float(np.sum(np.log(x_out)))
        full = np.einsum("fj,fjd->fd", self._interp_w, coarse[self._interp_idx])
        return full + const


_TABLE_CACHE: dict[tuple[bytes, bytes], PdfTable] = {}


def get_table(k_values: np.ndarray, deltas: np.ndarray, spec: TableSpec | None = None) -> PdfTable:
    """Build-or-fetch the density table of a (K, Delta) grid, keyed by the
    bytes of its K and Delta values; `spec` is unused."""
    key = (np.asarray(k_values, dtype=float).tobytes(), np.asarray(deltas, dtype=float).tobytes())
    if key in _TABLE_CACHE:
        log.debug("density table cache hit: %d K rows x %d Delta x %d r",
                  *_TABLE_CACHE[key].log_rows.shape)
        return _TABLE_CACHE[key]
    start = time.perf_counter()
    tab = _TABLE_CACHE[key] = PdfTable(k_values, deltas)
    log.info("density table built: %d K rows x %d Delta x %d r, %.1f MB, fold weights %.2f MB, "
             "%.2f s on %d threads", *tab.log_rows.shape, tab.log_rows.nbytes / 1e6,
             sum(w.nbytes for w in tab.folds.values()) / 1e6, time.perf_counter() - start,
             tab.workers)
    return tab


def clear_table_cache() -> None:
    _TABLE_CACHE.clear()
