#!/usr/bin/env python3
"""Fit the fixed seed corpora that a numerics change to the density table or
the AICc path must report on, one line per envelope set.

Corpora (default grid unless noted; the fit class is every 10th sample):

* crit3-twdp: K 10, Delta 0.9, 1e5 envelopes, seeds 7000+i (100 sets);
* crit3-rice: K 10, Delta 0, 1e5 envelopes, seeds 40000+i (100 sets);
* crit4: K 4, Delta 0, 2e4 envelopes, seeds 90000+i (200 sets);
* high-k: K 50, 200, 800 x Delta 0, 0.5, 1, 1e5 envelopes, seeds 73000+i;
* spiked-far (k_max 30): 40 sets of 1e4 envelopes, seeds 70000+i, with one
  or two fit-class spikes at 5-8 root powers;
* spiked-near (k_max 30): 40 sets of 1e5 envelopes, seeds 71000+i, with one
  or two fit-class spikes at 4.05-5 root powers;
* crit3-twdp-q<step>, crit3-rice-q<step>: the crit3 sets rounded to steps of
  0.001, 0.01 and 0.05 of their rms, as a recording resolution leaves them;
  compare each line with the unrounded set of the same seed.

Each line holds the Rice argmax K, the TWDP argmax (K, Delta), the chosen
model, the g-test verdict and both log-likelihoods, or the exit code and
message of a set that ends in a typed error. Argmax cells and
decisions that moved between two source trees are the differing fields:

    PYTHONPATH=src python scripts/decision_corpora.py > new.txt
    PYTHONPATH=../other/src python scripts/decision_corpora.py > old.txt
"""

import numpy as np

from twdpfit import (FadingParams, GridConfig, TwdpfitError, fit_envelopes, partition_stride,
                     sample_twdp)

K30 = GridConfig(k_max=30.0)


def truth_sets():
    """(corpus, seed, grid, (K, Delta, n), spikes or None, rounding step or 0)"""
    for i in range(100):
        yield "crit3-twdp", 7000 + i, GridConfig(), (10.0, 0.9, 10 ** 5), None, 0.0
    for i in range(100):
        yield "crit3-rice", 40000 + i, GridConfig(), (10.0, 0.0, 10 ** 5), None, 0.0
    for i in range(200):
        yield "crit4", 90000 + i, GridConfig(), (4.0, 0.0, 2 * 10 ** 4), None, 0.0
    for i, k in enumerate((50.0, 200.0, 800.0)):
        for j, d in enumerate((0.0, 0.5, 1.0)):
            yield "high-k", 73000 + 3 * i + j, GridConfig(), (k, d, 10 ** 5), None, 0.0
    for name, base, n, lo, hi in (("spiked-far", 70000, 10 ** 4, 5.0, 8.0),
                                  ("spiked-near", 71000, 10 ** 5, 4.05, 5.0)):
        for i in range(40):
            rng = np.random.default_rng(base + i)
            k, d = float(rng.uniform(0.0, 25.0)), float(rng.uniform(0.0, 1.0))
            spikes = rng.uniform(lo, hi, size=1 + i % 2)
            yield name, base + i, K30, (k, d, n), spikes, 0.0
    for step in (0.001, 0.01, 0.05):
        for name, base, d in (("crit3-twdp", 7000, 0.9), ("crit3-rice", 40000, 0.0)):
            for i in range(100):
                yield f"{name}-q{step:g}", base + i, GridConfig(), (10.0, d, 10 ** 5), None, step


def main():
    for name, seed, grid, (k, d, n), spikes, step in truth_sets():
        env = sample_twdp(FadingParams(k, d, 1.0), n, seed).envelopes
        if spikes is not None:
            env[9:10 * len(spikes):10] = spikes    # fit-class slots at stride 10
        if step:
            q = step * np.sqrt(np.mean(env ** 2))
            env = np.round(env / q) * q
        try:
            r = fit_envelopes(partition_stride(env, 10), grid)
        except TwdpfitError as err:
            print(f"{name} {seed} exit {err.exit_code} {err}")
            continue
        print(f"{name} {seed} rice {r.rice.k_hat:g} twdp {r.twdp.k_hat:g} "
              f"{r.twdp.delta_hat:g} chosen {r.chosen} g {r.gtest.verdict} "
              f"loglik {r.rice.loglik:.6f} {r.twdp.loglik:.6f}")


if __name__ == "__main__":
    main()
