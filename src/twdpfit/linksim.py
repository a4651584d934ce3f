"""Link-level consequences of the fading model: Monte Carlo bit error ratio
of Gray-mapped 4-QAM over flat fading with zero-forcing equalization, and
the high-K capacity-loss bound as a function of the amplitude balance.

The SNR points of a curve map over twdpfit's shared thread pool
(``pool.executor``, one thread per usable CPU); numpy's random fills and
ufuncs release the GIL. Each point holds three complex buffers of
n_symbols (channel, noise, and symbols turned into the equalized
estimates) plus the sampler's scratch, 58 bytes per symbol at its peak.
``synth.MAX_DRAW_BYTES`` caps the symbols of all points in flight at once:
15.6 M per point with two in flight. On 2 cores, a fresh ``twdpfit ber``
of 4 x 1e6 symbols takes ~1.2 s and peaks at ~175 MB RSS with two points
in flight.
``TWDPFIT_LOG=info`` logs each curve's points, symbols per point, seconds
and threads.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fading import FadingParams
from .pool import executor, threads
from .synth import _DRAW_BYTES, MAX_DRAW_BYTES, _rng, sample_twdp

__all__ = ["BerCurve", "simulate_ber", "capacity_loss"]

log = logging.getLogger(__name__)


@dataclass
class BerCurve:
    snr_db: np.ndarray
    ber: np.ndarray
    params: FadingParams
    n_symbols: int
    seed: int


def _point_streams(seed: int, point: int) -> list[np.random.SeedSequence]:
    """Channel, bit/noise and resample seed sequences of one SNR point."""
    return np.random.SeedSequence(seed, spawn_key=(point,)).spawn(3)


def _ber_point(params: FadingParams, snr: float, n_symbols: int, seed: int,
               point: int) -> float:
    """Bit error ratio of one SNR point, drawn from that point's streams."""
    channel, bits, resample = _point_streams(seed, point)
    rng = _rng(bits)
    h = sample_twdp(params, n_symbols, channel).samples
    # |h| = 0 is a probability-zero event; resample defensively so the
    # zero-forcing division stays defined.
    while np.any(h == 0):
        bad = h == 0
        h[bad] = sample_twdp(params, int(bad.sum()), resample.spawn(1)[0]).samples
    bits_i = rng.random(n_symbols) < 0.5
    bits_q = rng.random(n_symbols) < 0.5
    amp = 1.0 / np.sqrt(2.0)
    noise = np.empty(n_symbols, dtype=complex)
    noise.real = rng.standard_normal(n_symbols)
    noise.imag = rng.standard_normal(n_symbols)
    noise *= np.sqrt(10.0 ** (-snr / 10.0) / 2.0)
    # one buffer holds the unit-power symbols, then the received samples
    # h s + n, then the zero-forced estimates (h s + n) / h
    y = np.empty(n_symbols, dtype=complex)
    y.real = np.where(bits_i, amp, -amp)
    y.imag = np.where(bits_q, amp, -amp)
    np.multiply(h, y, out=y)
    y += noise
    y /= h
    errors = np.count_nonzero((y.real > 0) != bits_i)
    errors += np.count_nonzero((y.imag > 0) != bits_q)
    return errors / (2.0 * n_symbols)


def simulate_ber(params: FadingParams, snr_db, n_symbols: int, seed: int) -> BerCurve:
    """Monte Carlo BER of 4-QAM over independent flat-fading realizations.

    Unit-power symbols; the SNR is the inverse complex noise power. The
    receiver knows the channel perfectly and divides it out before the
    quadrant decision; with Gray mapping the I and Q bits decide
    independently, so errors are counted over 2 n_symbols bits per point.
    Each SNR point draws its channel, its bits and noise, and every
    zero-channel resample from its own stream, spawned from (seed, point
    index) by np.random.SeedSequence, so no two streams coincide and the
    curve is reproducible as a whole. The points are therefore independent
    tasks and run concurrently, one thread per usable CPU; the curve does
    not depend on the thread count.
    """
    if n_symbols < 10_000:
        raise DomainError("need at least 1e4 symbols per SNR point")
    snr_db = np.atleast_1d(np.asarray(snr_db, dtype=float))
    if snr_db.ndim != 1 or len(snr_db) == 0:
        raise DomainError("snr_db must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(snr_db)):
        raise DomainError("snr_db must be finite")
    workers = min(threads(), len(snr_db))
    if n_symbols * workers * _DRAW_BYTES > MAX_DRAW_BYTES:
        raise DomainError(f"{n_symbols} symbols on {workers} points in flight would take about "
                          f"{n_symbols * workers * _DRAW_BYTES:.3g} bytes, "
                          f"more than {MAX_DRAW_BYTES:.3g}")
    start = time.perf_counter()
    ber = np.fromiter(executor().map(lambda i: _ber_point(params, snr_db[i], n_symbols, seed, i),
                                     range(len(snr_db))), float, len(snr_db))
    log.info("BER curve simulated: %d SNR points x %d symbols, %.2f s on %d threads",
             len(snr_db), n_symbols, time.perf_counter() - start, workers)
    return BerCurve(snr_db, ber, params, n_symbols, seed)


def capacity_loss(delta: float) -> float:
    """Worst-case (K -> infinity) capacity loss in bit/s/Hz versus the
    amplitude balance: 1 - log2(1 + sqrt(1 - delta^2)).

    Monotone increasing from 0 at delta = 0 to 1 at delta = 1.
    """
    if not 0.0 <= delta <= 1.0:
        raise DomainError("delta must lie in [0, 1]")
    return 1.0 - np.log2(1.0 + np.sqrt(1.0 - delta * delta))
