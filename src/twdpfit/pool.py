"""The worker count of the numeric stages' thread pools: independent tasks
whose numpy kernels release the GIL (density-table rows, BER SNR points) run
on a ``concurrent.futures.ThreadPoolExecutor`` with one thread per usable
CPU, and its ``map`` gives their results back in task order.
"""

from __future__ import annotations

import os

__all__ = ["worker_count"]


def worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1
