"""The one thread pool of twdpfit's numeric stages.

``map_blocks`` maps independent blocks whose numpy kernels release the GIL
(table rows and fold weights, the TWDP CDF's pmf rows, the likelihood GEMV):
the calling thread runs the first while one process-wide ``ThreadPoolExecutor``,
one thread per usable CPU, made on first use, runs the rest. A forked child
makes its own pool. A block must not itself wait on the pool.

The GEMV, the CDF's row sums and the table's fold are numpy's own loops on
these threads, not OpenBLAS products: OpenBLAS's worker threads busy-wait
after each product and would hold the cores the pool runs on.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

__all__ = ["worker_count", "executor", "threads", "map_blocks"]

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


def map_blocks(func, blocks) -> list:
    """``[func(b) for b in blocks]``: the pool runs blocks[1:] while the
    calling thread runs blocks[0]. An exception from any block reaches the
    caller, and the blocks still queued are cancelled."""
    futures = [executor().submit(func, block) for block in blocks[1:]]
    try:
        return [func(block) for block in blocks[:1]] + [future.result() for future in futures]
    finally:
        for future in futures:
            future.cancel()
