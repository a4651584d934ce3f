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
  on the row pool before the rows, and every row with that count reads
  them. A row's tilts rise with the envelope, so a count builds only the
  tilts from the lowest any of its rows takes at x = 0 up to the top one,
  which spikes read; a tilt below them is an error, never zeros. That is
  51 of 84 tilt sets for the 12 counts of the 153 rows up to K = 30
  (0.51 MB), 81 of 126 for the 18 counts up to K = 100 (1.16 MB) and 156 of
  210 for the default grid's 30 counts (5.25 MB).
* The kernel is evaluated in chunks of up to _CHUNK = 98,304 entries
  (``_kernels``), one ``fading._rice_kernel`` call of about 100 numpy
  passes each. A row whose band |a - b| <= 38.61 covers every (a, b) pair
  (K <= 45) is one piece, and consecutive rows' pieces share a chunk;
  above, the pieces are the bands of blocks of 64 amplitudes, assembled
  into the row's kernel matrix. Every entry has the bits of the row's own
  evaluation. Rows are independent and the kernel's passes release the
  GIL, so tasks of rows filling about one chunk, largest first, run on
  twdpfit's shared thread pool (``pool.executor``, one thread per usable
  CPU), as the BER Monte Carlo maps its SNR points. One greedy packer
  (``_pack``) groups the rows into tasks and the pieces into chunks. A
  task evaluates all its chunks in two chunk vectors of its own (1.5 MB)
  and folds each row straight into ``log_rows``; only each chunk's masks
  and gathered Bessel arguments, and each banded row's matrix, are
  allocated besides. Fewer, longer passes hand the GIL between the
  threads less often.
  The fold is numpy's own einsum loop on twdpfit's threads, not a BLAS GEMM,
  because OpenBLAS busy-waits: its worker threads spin after each GEMM and
  would take the cores the pool runs on. Its summation order differs from
  OpenBLAS's by <= 1e-12 in ln; the table is the same on every build.
* ln(pdf(x)/x) is stored on a uniform envelope grid of 512 nodes up to
  r_max = 4 and 2 guard nodes above it (the division by x removes the
  r -> 0 log singularity and makes the function even in x, so the readout
  reflects at 0 as the fold does).
* The envelope columns are built on demand, as a prefix that grows in
  whole 32-column blocks (``PdfTable.cover``): a fit builds only the
  columns its in-range samples read (normalized sets typically stop at
  1.3-2.3 root powers, 192-320 columns), and a later request extends the
  same table in place, under the table's lock. Each range, of at least 2
  columns, gives the bits of a whole-table build; a range of 1 column
  would not, since numpy's einsum sums a one-column kernel in its
  contiguous-dot order. An extension costs a fixed pass over every row
  besides its columns, so a scan asks once for its furthest direction.
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
  the same bits as the einsum over every column; those are the columns
  the table must have built. Samples above r_max (spikes) read no column:
  they add their row density at their exact value, through the same fold
  weights, at every tabulated K row instead, so the table's range never
  grows and a spike pays only for its kernel. The rows' kernels over the
  spikes are packed into shared chunks as the table's rows are.

There is one table per (K, Delta) grid, keyed by its values and cached in
module scope, at one fixed resolution (``TableSpec``); the default one (332 K
rows, 28.7 MB) builds in full in about 0.44 s on 2 cores and its first 288
columns in about 0.33 s, after which each fit takes well under a second.
``log_rows`` is allocated at full width whatever is built. Builds are
logged at info level with the table's and the fold weights' bytes, the
tilt sets built, the kernel chunks and the columns built, extensions with
their columns and seconds, cache hits at debug.

Accuracy of the tabulated log-density against the exact ``twdp_pdf`` (pinned
by tests): read back through the cubic readout and the K stencil, within
5.2e-3 in ln wherever ln pdf > -20 for K 1-100 and every Delta, and 5e-7
per sample at the truth cell for K 50-800; the stored rows and spikes are
within 8.2e-3 down to the 1e-300 floor (ln pdf/x = -690.8) up to K = 1000.
"""

from __future__ import annotations

import logging
import threading
import time

import numpy as np

from .errors import DomainError
from .fading import _rice_kernel, _trapezoid_nodes
from .pool import executor, map_row_blocks, threads

__all__ = ["TableSpec", "PdfTable", "MAX_TABLE_BYTES", "table_bytes", "table_reach",
           "get_table", "clear_table_cache"]

log = logging.getLogger(__name__)

# exp(-0.5 d^2) is exactly 0 for |d| > 38.6040; where the band |a - b| <=
# _BAND does not cover a kernel matrix, blocks of _BLOCK a-nodes evaluate it
# only on the union of their bands
_BAND, _BLOCK = 38.61, 64
# kernel entries per packed evaluation (chunk): a whole row up to K = 45 (at
# most 117 amplitudes x 514 envelopes) fits one, and each numpy pass of the
# kernel spans one or more rows. A task's two chunk vectors take 1.5 MB.
# Fewer, longer passes hand the GIL between the pool's threads less often:
# at k_max 30 a 2-thread build ran 1.36-1.42 times as fast as a 1-core one
# with chunks of 65,536 entries (95 chunks) and 1.43-1.48 times with 98,304
# (54); 131,072 added 1 MB of peak memory and no speed
_CHUNK = 3 << 15
# spikes per kernel matrix of a spiked surface
_SPIKE_BLOCK = 4096
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
    # each temporary goes as soon as it is read: the pool builds the fold
    # weights of two node counts at once
    i = pos.astype(np.int64)
    t = pos - i
    t2 = t * t
    t3 = t2 * t
    taps = (-0.5 * t3 + t2 - 0.5 * t, 1.5 * t3 - 2.5 * t2 + 1.0,
            -1.5 * t3 + 2.0 * t2 + 0.5 * t, 0.5 * (t3 - t2))
    del t2, t3
    row = np.arange(len(pos))[:, None] * n
    nodes = [(row + np.abs(i + j)).ravel() for j in (-1, 0, 1, 2)]
    del i
    hist = np.zeros((len(tilts), len(pos) * n))
    # one growth factor and one array of shares alive at a time
    for h, mu in zip(hist, tilts):
        g = np.exp(mu * t) if mu else 1.0
        for j, tap, node in zip((-1, 0, 1, 2), taps, nodes):
            share = tap * (g * np.exp(-mu * j))
            share *= weight
            # faster than one np.bincount over all four taps (numpy 2.4)
            np.add.at(h, node, share.ravel())
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


def _bands(a: np.ndarray, b: np.ndarray) -> list[tuple[int, int, int, int]]:
    """Pieces (i0, i1, lo, hi) of the kernel matrix over amplitudes `a` and
    ascending scaled envelopes `b`, outside which every entry is exactly 0:
    the whole matrix where the band covers every (a, b) pair, else the band
    of each block of _BLOCK amplitudes. A piece of more than _CHUNK entries
    is split into groups of whole rows; a matrix with no entry in its band
    is one empty piece."""
    starts = np.arange(0, len(a), _BLOCK)
    lo = np.searchsorted(b, np.minimum.reduceat(a, starts) - _BAND).tolist()
    hi = np.searchsorted(b, np.maximum.reduceat(a, starts) + _BAND).tolist()
    if max(lo) == 0 and min(hi) == len(b):
        blocks = [(0, len(a), 0, len(b))]
    else:
        blocks = [(i, min(i + _BLOCK, len(a)), l, h)
                  for i, l, h in zip(starts.tolist(), lo, hi) if l < h]
    pieces = []
    for i0, i1, l, h in blocks:
        step = max(1, _CHUNK // (h - l))
        pieces += [(i, min(i + step, i1), l, h) for i in range(i0, i1, step)]
    return pieces or [(0, 0, 0, 0)]


def _pack(sizes, cap: int) -> list[slice]:
    """Consecutive groups of the items of `sizes`, as slices, each filled in
    order until the next item would take its sum past `cap`. An item larger
    than `cap` is a group alone, and every item, even of size 0, is in one."""
    starts, total = [], 0
    for i, size in enumerate(sizes):
        if not starts or total + size > cap:
            starts.append(i)
            total = 0
        total += size
    return [slice(*ends) for ends in zip(starts, starts[1:] + [len(sizes)])]


def _kernels(rows):
    """The kernel matrix (Rician density over x, divided by x, at amplitudes a
    and ascending envelopes b = x sqrt(s2)) of each row (a, b, s2) of `rows`,
    in turn, with the number of chunks evaluated so far. The rows' pieces
    (``_bands``) are packed in order into chunks of up to _CHUNK entries, each
    one ``_rice_kernel`` call in the two vectors of this call. A row that is
    one whole piece comes as a view of its chunk, valid only until the next row
    is taken; any other is assembled in a matrix of its own."""
    bands = [_bands(a, b) for a, b, _ in rows]
    pieces = [(r, j, p) for r, band in enumerate(bands) for j, p in enumerate(band)]
    sizes = [(i1 - i0) * (hi - lo) for _, _, (i0, i1, lo, hi) in pieces]
    vectors = np.empty((2, max(max(sizes), min(_CHUNK, sum(sizes)))))
    for n, group in enumerate(_pack(sizes, _CHUNK), 1):
        chunk = pieces[group]
        kern = _rice_kernel([rows[r][0][i0:i1, None] for r, _, (i0, i1, _, _) in chunk],
                            [rows[r][1][lo:hi] for r, _, (_, _, lo, hi) in chunk],
                            [rows[r][2] for r, _, _ in chunk], vectors[0], vectors[1:])
        start = 0
        for (r, j, (i0, i1, lo, hi)), size in zip(chunk, sizes[group]):
            part = kern[start:start + size].reshape(i1 - i0, hi - lo)
            start += size
            shape = (len(rows[r][0]), len(rows[r][1]))
            if part.shape == shape:
                yield part, n
                continue
            if j == 0:
                mat = np.zeros(shape)
            mat[i0:i1, lo:hi] = part
            if j == len(bands[r]) - 1:
                yield mat, n


class PdfTable:
    """Tabulated ln(pdf(x)/x) over the (K, Delta) search grid, whose Deltas
    start at 0 and lie in [0, 1]. Only the first ``columns`` envelope
    columns of ``log_rows`` are built; ``cover`` builds more in place."""

    def __init__(self, k_values: np.ndarray, deltas: np.ndarray, columns: int | None = None):
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
        # 1 -+ Delta of the Delta > 0 columns, whose amplitudes span
        # sqrt(2K(1 - Delta)) to sqrt(2K(1 + Delta))
        self._spread = 1.0 - self.deltas[1:, None], 1.0 + self.deltas[1:, None]
        self.coarse_idx = _coarse_k_indices(self.k_values)
        self.coarse_k = self.k_values[self.coarse_idx]
        self._interp_idx, self._interp_w = _lagrange_weights(self.k_values, self.coarse_k)
        nc, nd, nr = len(self.coarse_idx), len(self.deltas), len(self.x_grid)
        self.log_rows = np.empty((nc, nd, nr))
        self.columns = self.chunks = 0
        self._lock = threading.Lock()
        self.workers = threads()
        # one set of fold matrices per amplitude node count, shared by every
        # row and every spiked surface with that count; the rows only read
        # them. Only the tilts from the lowest any row of the count takes (at
        # b = 0, where each column's tilt is lowest) up to the top are built
        folding = np.flatnonzero(self.coarse_k > 0.0) if nd > 1 else np.arange(0)
        na, a_max = self._amplitude_nodes(self.coarse_k[folding])
        lows = self._levels(self.coarse_k[folding, None, None], np.zeros(1),
                            (a_max / (na - 1))[:, None, None]).min(axis=(1, 2))
        lowest = {}
        for n, low in zip((na + 2).tolist(), lows.tolist()):
            lowest[n] = min(lowest.get(n, low), low)
        self.folds = dict(zip(lowest, executor().map(self._fold_weights, lowest,
                                                     lowest.values())))
        self._build(nr if columns is None else columns)

    # -- construction ------------------------------------------------------

    def cover(self, columns: int) -> None:
        """Build ``log_rows`` up to at least `columns` envelope columns, in
        place, and log the extension. It takes the table's lock, and must not
        run on a pool thread: the build waits on the pool."""
        if columns <= self.columns:
            return
        with self._lock:
            start = time.perf_counter()
            if self._build(columns):
                log.info("density table extended: %d K rows x %d Delta to %d/%d columns, "
                         "%.2f s", *self.log_rows.shape[:2], self.columns,
                         self.log_rows.shape[2], time.perf_counter() - start)

    def _build(self, columns: int) -> bool:
        """Build columns [self.columns, c) of every row, c being `columns`
        rounded up to whole 32-column blocks (or all): the rows' kernels over
        those envelopes, folded into that slice of ``log_rows``; False if
        they are built already. The range is never 1 column wide, on which
        numpy's einsum sums in another order. Whole rows of about one chunk
        of kernel entries make a task, largest first; each task folds its
        rows straight into log_rows."""
        c0, c1 = self.columns, min(len(self.x_grid), -(-int(columns) // 32) * 32)
        if c1 <= c0:
            return False
        rows = [self._row(k, self.x_grid[c0:c1]) for k in self.coarse_k]
        sizes = [len(a) * len(b) for a, b, _ in rows]
        tasks = sorted(_pack(sizes, _CHUNK), key=lambda task: -sum(sizes[task]))

        def build(task: slice) -> int:
            chunks = 0
            for i, (kern, chunks) in enumerate(_kernels(rows[task]), task.start):
                self._fold_row(self.coarse_k[i], *rows[i][:2], kern, self.log_rows[i, :, c0:c1])
            return chunks

        # the kernel's numpy passes release the GIL, so tasks build in parallel
        self.chunks += sum(executor().map(build, tasks))
        self.columns = c1
        return True

    def _row(self, k: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """Row K's kernel rows ``_amplitudes(k)``, the envelopes x in units
        of sigma, and 1/sigma^2."""
        s2 = 2.0 * (1.0 + k)
        return self._amplitudes(k), x * np.sqrt(s2), s2

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

    def _levels(self, k: float, b: np.ndarray, step: float) -> np.ndarray:
        """The tilt index (into _TILTS) of each Delta > 0 column of row K at
        scaled envelopes `b`, on amplitude nodes `step` apart: the tilt
        nearest ln(kernel)'s growth per node, which is about (b - a) step
        beyond the amplitudes [a_lo, a_hi] of the column. It rises with b."""
        a_lo, a_hi = np.sqrt(2.0 * k * self._spread[0]), np.sqrt(2.0 * k * self._spread[1])
        growth = step * (np.maximum(b - a_hi, 0.0) + np.minimum(b - a_lo, 0.0))
        level = np.clip(np.rint(growth / _TILT_STEP), -_TILT_TOP, _TILT_TOP).astype(np.int64)
        return level + _TILT_TOP

    def _fold_row(self, k: float, amps: np.ndarray, b: np.ndarray, kern: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
        """Row K's ln(pdf(x)/x) per Delta column at scaled envelopes `b`, from
        its kernel `kern` (``_kernels``) of amplitudes `amps`, into `out` when given."""
        pdf_over_x = np.empty((len(self.deltas), len(b))) if out is None else out
        pdf_over_x[:] = kern[-1]
        if len(amps) > 1:
            ag, kern = amps[:-1], kern[:-1]
            level = self._levels(k, b, ag[1])
            # each column's levels rise with b, so a level's columns are one run
            low, high = level.min(axis=0), level.max(axis=0)
            for lv in range(low[0], high[-1] + 1):
                lo, hi = np.searchsorted(high, lv), np.searchsorted(low, lv, side="right")
                if lo == hi:
                    continue
                # numpy's own loop, not BLAS: OpenBLAS threads busy-wait after
                # each GEMM and would take the cores the row pool runs on
                part = np.einsum("da,ab->db", self._fold(len(ag), lv), kern[:, lo:hi])
                np.copyto(pdf_over_x[1:, lo:hi], part, where=level[:, lo:hi] == lv)
        np.maximum(pdf_over_x, 1e-300, out=pdf_over_x)
        return np.log(pdf_over_x, out=pdf_over_x)

    def _spike_sums(self, x: np.ndarray) -> np.ndarray:
        """Each tabulated row's ln(pdf/x) summed over the ascending spikes
        `x`, shape (len(coarse_k), len(deltas)). The rows' kernels over the
        spikes are packed into shared chunks, with the band skip."""
        rows = [self._row(k, x) for k in self.coarse_k]
        sums = np.empty((len(rows), len(self.deltas)))
        for r, ((a, b, _), (kern, _)) in enumerate(zip(rows, _kernels(rows))):
            sums[r] = self._fold_row(self.coarse_k[r], a, b, kern).sum(axis=1)
        return sums

    def _amplitude_grid(self, k: float) -> np.ndarray:
        """Noncentrality amplitudes of row K > 0: na nodes from 0 to
        sqrt(2K(1 + max Delta)), at most a_step apart and na one of
        _NODE_COUNTS, then 2 guard nodes."""
        na, a_max = self._amplitude_nodes(k)
        return np.arange(na + 2) * (a_max / (na - 1))

    def _amplitude_nodes(self, k):
        """na and the top amplitude sqrt(2K(1 + max Delta)) of rows K > 0,
        for a scalar or an array of K."""
        a_max = np.sqrt(2.0 * k * (1.0 + self.deltas.max()))
        need = np.ceil(a_max / TableSpec.a_step).astype(np.int64) + 1
        return _NODE_COUNTS[np.searchsorted(_NODE_COUNTS, need)], a_max

    def _fold_weights(self, n: int, first: int = 0) -> np.ndarray:
        """The phase-balance quadrature of every Delta > 0 column folded into
        cubic interpolation weights on an n-node amplitude grid, one matrix
        per tilt from index `first` up, shape (len(_TILTS) - first,
        len(deltas) - 1, n). The node of sqrt(2K(1 + Delta cos alpha)) is
        (n - 3) sqrt((1 + Delta cos alpha) / (1 + max Delta)), whatever K."""
        pos = (n - 3) * np.sqrt((1.0 + self.deltas[1:, None] * self._cos_nodes)
                                / (1.0 + self.deltas.max()))
        return _interp_histogram(pos, self._quad_w, n, _TILTS[first:])

    def _fold(self, n: int, level: int) -> np.ndarray:
        """The fold weights of tilt index `level` on an n-node amplitude
        grid; a tilt below those built is an error, never zeros."""
        folds = self.folds[n]
        built = level - (len(_TILTS) - len(folds))
        if built < 0:
            raise LookupError(f"tilt {_TILTS[level]:+g} of the {n}-node fold weights "
                              "was not built")
        return folds[built]

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
        exact value. The table is first extended to the columns the samples
        read, so it must not be called on a pool thread.
        """
        beyond = x > TableSpec.r_max
        x_out = np.sort(x[beyond])
        w, const = self.sample_weights(x[~beyond])
        nc, nd, nr = self.log_rows.shape
        # only the columns up to the data's last nonzero weight, rounded up to
        # whole 32-column blocks, which leaves the einsum's sums the same bits
        reach = np.flatnonzero(w)
        cols = min(nr, -(-(reach[-1] + 1) // 32) * 32) if reach.size else 0
        self.cover(cols)
        coarse = map_row_blocks(lambda rows: np.einsum("ij,j->i", rows, w[:cols]),
                                self.log_rows.reshape(nc * nd, nr)[:, :cols]).reshape(nc, nd)
        # blocks of spikes bound the kernel matrix of a row
        for i in range(0, len(x_out), _SPIKE_BLOCK):
            coarse += self._spike_sums(x_out[i:i + _SPIKE_BLOCK])
        const += float(np.sum(np.log(x_out)))
        full = np.einsum("fj,fjd->fd", self._interp_w, coarse[self._interp_idx])
        return full + const


def table_reach(x: np.ndarray) -> float:
    """The largest of the normalized envelopes `x` that a table scores, those
    up to ``TableSpec.r_max``, or -inf when there is none: the `x_max` of
    ``get_table`` for a fit of x. Samples above r_max read no column."""
    return float(np.max(x, where=x <= TableSpec.r_max, initial=-np.inf))


_TABLE_CACHE: dict[tuple[bytes, bytes], PdfTable] = {}


def get_table(k_values: np.ndarray, deltas: np.ndarray, spec: TableSpec | None = None, *,
              x_max: float | None = None) -> PdfTable:
    """Build-or-fetch the density table of a (K, Delta) grid, keyed by the
    bytes of its K and Delta values, with at least the envelope columns that
    normalized envelopes up to `x_max` read: all 514 when it is None, none
    when it is negative. A cached table is extended in place as far as
    needed; it must not be called on a pool thread. `spec` is unused."""
    if x_max is None:
        columns = TableSpec.n_r + 2
    elif x_max < 0.0:
        columns = 0
    else:       # through tap 2 of the highest envelope's node, as sample_weights
        columns = int(min(x_max, TableSpec.r_max) / (TableSpec.r_max / (TableSpec.n_r - 1))) + 3
    key = (np.asarray(k_values, dtype=float).tobytes(), np.asarray(deltas, dtype=float).tobytes())
    tab = _TABLE_CACHE.get(key)
    if tab is not None:
        log.debug("density table cache hit: %d K rows x %d Delta x %d r", *tab.log_rows.shape)
        tab.cover(columns)
        return tab
    start = time.perf_counter()
    tab = _TABLE_CACHE[key] = PdfTable(k_values, deltas, columns)
    log.info("density table built: %d K rows x %d Delta x %d r, %.1f MB, fold weights %.2f MB "
             "in %d/%d tilt sets, %d kernel chunks, %d/%d columns, %.2f s on %d threads",
             *tab.log_rows.shape, tab.log_rows.nbytes / 1e6,
             sum(w.nbytes for w in tab.folds.values()) / 1e6, sum(map(len, tab.folds.values())),
             len(tab.folds) * len(_TILTS), tab.chunks, tab.columns, tab.log_rows.shape[2],
             time.perf_counter() - start, tab.workers)
    return tab


def clear_table_cache() -> None:
    _TABLE_CACHE.clear()
