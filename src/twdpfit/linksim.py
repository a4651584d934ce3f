"""Link-level consequences of the fading model: Monte Carlo bit error ratio
of Gray-mapped 4-QAM over flat fading with zero-forcing equalization, and
the high-K capacity-loss bound as a function of the amplitude balance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fading import FadingParams
from .synth import sample_twdp

__all__ = ["BerCurve", "simulate_ber", "capacity_loss"]


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


def simulate_ber(params: FadingParams, snr_db, n_symbols: int, seed: int) -> BerCurve:
    """Monte Carlo BER of 4-QAM over independent flat-fading realizations.

    Unit-power symbols; the SNR is the inverse complex noise power. The
    receiver knows the channel perfectly and divides it out before the
    quadrant decision; with Gray mapping the I and Q bits decide
    independently, so errors are counted over 2 n_symbols bits per point.
    Each SNR point draws its channel, its bits and noise, and every
    zero-channel resample from its own stream, spawned from (seed, point
    index) by np.random.SeedSequence, so no two streams coincide and the
    curve is reproducible as a whole.
    """
    if n_symbols < 10_000:
        raise DomainError("need at least 1e4 symbols per SNR point")
    snr_db = np.atleast_1d(np.asarray(snr_db, dtype=float))
    if snr_db.ndim != 1 or len(snr_db) == 0:
        raise DomainError("snr_db must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(snr_db)):
        raise DomainError("snr_db must be finite")
    ber = np.empty(len(snr_db))
    amp = 1.0 / np.sqrt(2.0)
    for i, snr in enumerate(snr_db):
        channel, bits, resample = _point_streams(seed, i)
        rng = np.random.Generator(np.random.Philox(bits))
        h = sample_twdp(params, n_symbols, channel).samples
        # |h| = 0 is a probability-zero event; resample defensively so the
        # zero-forcing division stays defined.
        while np.any(h == 0):
            bad = h == 0
            h[bad] = sample_twdp(params, int(bad.sum()), resample.spawn(1)[0]).samples
        bits_i = rng.random(n_symbols) < 0.5
        bits_q = rng.random(n_symbols) < 0.5
        symbols = amp * ((2.0 * bits_i - 1.0) + 1j * (2.0 * bits_q - 1.0))
        n0 = 10.0 ** (-snr / 10.0)
        noise_sigma = np.sqrt(n0 / 2.0)
        noise = noise_sigma * (rng.standard_normal(n_symbols)
                               + 1j * rng.standard_normal(n_symbols))
        equalized = (h * symbols + noise) / h
        errors = np.count_nonzero((equalized.real > 0) != bits_i)
        errors += np.count_nonzero((equalized.imag > 0) != bits_q)
        ber[i] = errors / (2.0 * n_symbols)
    return BerCurve(snr_db, ber, params, n_symbols, seed)


def capacity_loss(delta: float) -> float:
    """Worst-case (K -> infinity) capacity loss in bit/s/Hz versus the
    amplitude balance: 1 - log2(1 + sqrt(1 - delta^2)).

    Monotone increasing from 0 at delta = 0 to 1 at delta = 1.
    """
    if not 0.0 <= delta <= 1.0:
        raise DomainError("delta must lie in [0, 1]")
    return 1.0 - np.log2(1.0 + np.sqrt(1.0 - delta * delta))
