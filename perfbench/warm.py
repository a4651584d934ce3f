"""Warm batch-fit worker: one process builds its density table, then
decides a fixed sweep of envelope sets with ``fit_envelopes``, as a
recovery study does. Without a sweep in its config it only sets up, which
is how the benchmark times set-up for the CLI workloads.

Usage: python3 perfbench/warm.py CONFIG_JSON RESULT_JSON [TRACE_JSON]

Prints one line on standard output as soon as ``import twdpfit`` is done,
so the parent can time interpreter start plus import. The table of
``k_max`` (none when null) is then built ``builds`` times, the cache
cleared in between, and each build timed. Sweep passes over the same sets run
until ``seconds`` have passed. The result file holds the import, build and
pass times, the reports of the first pass and whether every later pass
reproduced them exactly.
"""

import json
import sys
import time

if __name__ == "__main__":
    config_path, result_path, *trace = sys.argv[1:]
    start = time.perf_counter()
    import twdpfit
    from twdpfit import likelihood
    import_s = time.perf_counter() - start
    print("imported", flush=True)

    import numpy as np

    import oracle
    from spans import Tracer

    with open(config_path) as handle:
        config = json.load(handle)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.import_s = import_s
        tracer.install()

    builds = []
    if config["k_max"] is not None:
        grid = twdpfit.GridConfig(k_max=config["k_max"])
        for _ in range(config["builds"]):
            likelihood.clear_table_cache()
            start = time.perf_counter()
            likelihood.get_table(grid.k_values, grid.delta_values, likelihood.TableSpec())
            builds.append(time.perf_counter() - start)
    if "truths" not in config:
        with open(result_path, "w") as handle:
            json.dump({"import_s": import_s, "builds": builds}, handle)
        sys.exit(0)

    rng = np.random.default_rng(config["seed"])
    sets = [twdpfit.partition_stride(oracle.envelopes(rng, config["n"], k, d), 10)
            for k, d in config["truths"]]

    def summary(report):
        fits = {m.model: {"k_hat": m.k_hat, "delta_hat": m.delta_hat, "loglik": m.loglik,
                          "aicc": m.aicc, "boundary_hit": bool(m.boundary_hit)}
                for m in (report.rice, report.twdp)}
        g = report.gtest
        return {"omega_hat": report.omega_hat, "n_fit": report.n_fit,
                "n_moment": report.n_moment, "chosen": report.chosen, **fits,
                "gtest": {"statistic": g.statistic, "dof": g.dof, "threshold": g.threshold,
                          "verdict": g.verdict, "n_cells": g.n_cells}}

    passes, first, repeatable = [], None, True
    sweep_start = time.perf_counter()
    while True:
        start = time.perf_counter()
        reports = [twdpfit.fit_envelopes(s, grid) for s in sets]
        passes.append(time.perf_counter() - start)
        current = [summary(r) for r in reports]
        if first is None:
            first = current
        repeatable &= current == first
        if time.perf_counter() - sweep_start >= config["seconds"]:
            break

    with open(result_path, "w") as handle:
        json.dump({"import_s": import_s, "builds": builds, "passes": passes, "reports": first,
                   "repeatable": repeatable}, handle)
    if tracer is not None:
        tracer.dump(trace[0])
