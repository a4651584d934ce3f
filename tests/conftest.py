"""Fixtures shared by the test modules."""

import pytest

from twdpfit import pool


@pytest.fixture
def pool_threads(monkeypatch):
    """Call with n: twdpfit's shared pool is remade with n threads on its
    next use, for this test only. Each pool made so is shut down when the
    next call or the test ends."""
    def release():
        if resized and pool._shared is not None:
            pool._shared[0].shutdown()

    def resize(n):
        release()
        monkeypatch.setattr(pool, "worker_count", lambda: n)
        monkeypatch.setattr(pool, "_shared", None)
        resized.append(n)

    resized = []
    yield resize
    release()
