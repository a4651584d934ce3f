"""The one thread-pool idiom of the numeric stages: independent tasks whose
numpy kernels release the GIL (density-table rows, BER SNR points) run on
one thread per usable CPU, and their results come back in task order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

__all__ = ["worker_count", "run_in_order"]


def worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


def run_in_order(task, n: int, workers: int) -> list:
    """[task(0), ..., task(n - 1)] computed on `workers` threads.

    Results are read back in index order, so the first failing task in that
    order raises to the caller, once the running tasks finish; the tasks not
    yet started are cancelled.
    """
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, range(n)))
