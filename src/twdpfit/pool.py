"""The one thread pool of twdpfit's numeric stages.

Independent tasks whose numpy kernels release the GIL (density
table rows and their fold weights, BER SNR points, blocks of the TWDP
CDF's pmf rows and row blocks of the likelihood GEMV) run on one process-wide
``ThreadPoolExecutor`` with one thread per usable CPU. It is made on first
use, so a command that never needs it starts no thread, and a forked child
makes its own: the parent's threads do not exist there. A task must not
itself wait on the pool.

The GEMV, the CDF's row sums and the table's fold are numpy's own loops on
these threads, not OpenBLAS products: OpenBLAS's worker threads busy-wait
after each product and would hold the cores the pool runs on.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["worker_count", "executor", "threads", "map_row_blocks"]

_lock = threading.Lock()
_shared: tuple[ThreadPoolExecutor, int] | None = None    # the pool and its threads


def worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


def _pool() -> tuple[ThreadPoolExecutor, int]:
    global _shared
    with _lock:
        if _shared is None:
            n = worker_count()
            _shared = ThreadPoolExecutor(n), n
        return _shared


def executor() -> ThreadPoolExecutor:
    """The shared pool, made with ``worker_count()`` threads on first use."""
    return _pool()[0]


def threads() -> int:
    """Threads of the shared pool."""
    return _pool()[1]


def _forget_in_child() -> None:
    global _lock, _shared
    _lock, _shared = threading.Lock(), None


os.register_at_fork(after_in_child=_forget_in_child)


def map_row_blocks(func, rows: np.ndarray) -> np.ndarray:
    """``func`` applied to min(threads(), len(rows)) consecutive row blocks of
    ``rows`` on the pool, the results stacked in order along axis 0; a single
    block runs on the calling thread. Equal to ``func(rows)`` wherever
    ``func`` maps each row on its own."""
    n = min(threads(), len(rows))
    if n <= 1:
        return func(rows)
    return np.concatenate(list(executor().map(func, np.array_split(rows, n))))
