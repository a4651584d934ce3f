"""The shared pool's one mapping rule, ``pool.map_blocks``."""

import threading
import time

import pytest

from twdpfit import pool


def _no_pool():
    raise AssertionError("the pool was asked for")


class TestMapBlocks:
    def test_results_come_back_in_order(self, pool_threads):
        # later blocks finish first, and still come back in block order
        pool_threads(2)
        out = pool.map_blocks(lambda i: time.sleep(0.01 * (5 - i)) or i * i, list(range(6)))
        assert out == [0, 1, 4, 9, 16, 25]

    def test_first_block_runs_on_the_calling_thread(self, pool_threads):
        pool_threads(2)
        idents = pool.map_blocks(lambda _: threading.get_ident(), range(5))
        assert idents[0] == threading.get_ident()
        assert threading.get_ident() not in idents[1:]

    @pytest.mark.parametrize("blocks", [[], range(0), ["only"], range(1)])
    def test_empty_and_one_block_maps_submit_nothing(self, monkeypatch, blocks):
        monkeypatch.setattr(pool, "executor", _no_pool)
        assert pool.map_blocks(lambda b: (b, threading.get_ident()), blocks) == \
            [(b, threading.get_ident()) for b in blocks]

    def test_an_error_on_the_calling_thread_cancels_the_queued_blocks(self, pool_threads):
        # block 1 holds the pool's one thread while block 0 fails, so
        # blocks 2 and 3 are still queued then and must never run
        pool_threads(1)
        busy, release, ran = threading.Event(), threading.Event(), []

        def func(i):
            if i == 0:
                assert busy.wait(10)
                raise ValueError("block 0")
            if i == 1:
                busy.set()
                assert release.wait(10)
            ran.append(i)

        with pytest.raises(ValueError, match="block 0"):
            pool.map_blocks(func, range(4))
        release.set()
        pool.executor().submit(lambda: None).result(timeout=10)     # queued after block 1
        assert ran == [1]

    def test_an_error_on_the_pool_cancels_the_queued_blocks(self, pool_threads):
        # block 1 fails on the pool's one thread; block 2 is then cancelled
        # or, if that thread took it first, held until the error has reached
        # the caller, so block 3 is still queued then and must never run
        pool_threads(1)
        release, ran = threading.Event(), []

        def func(i):
            if i == 1:
                raise ValueError("block 1")
            if i == 2:
                assert release.wait(10)
            ran.append(i)

        with pytest.raises(ValueError, match="block 1"):
            pool.map_blocks(func, range(4))
        release.set()
        pool.executor().submit(lambda: None).result(timeout=10)
        assert ran in ([0], [0, 2])
