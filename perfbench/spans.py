"""Spans around the public functions of twdpfit's layers, recorded from
outside the program.

``Tracer.install`` replaces each wrapped function in every loaded twdpfit
module that holds a reference to it, so ``from .x import f`` bindings are
wrapped too; ``PdfTable.loglik_surface`` and ``PdfTable.sample_weights``
are wrapped on the class. Spans stay in memory until ``dump``.

This module imports nothing heavy, so that a launcher can time
``import twdpfit`` after importing it.
"""

from __future__ import annotations

import json
import os
import sys
import time
import weakref

# (module, function) pairs timed as spans; names follow the layer modules.
FUNCTIONS = [
    ("inference", "fit_envelopes"), ("inference", "ml_fit"), ("inference", "g_test"),
    ("likelihood", "get_table"),
    ("fading", "twdp_cdf"), ("fading", "rice_cdf"),
    ("fileio", "read_envelopes"), ("fileio", "write_envelopes"),
    ("fileio", "read_scan"), ("fileio", "read_grid"), ("fileio", "write_grid"),
    ("fileio", "write_report"), ("fileio", "write_overlay"),
    ("fileio", "write_correlation_map"), ("fileio", "write_text_atomic"),
    ("measurement", "power_map"), ("measurement", "average_corr"),
    ("synth", "synth_field"), ("synth", "sample_twdp"),
    ("linksim", "simulate_ber"),
]
METHODS = [("likelihood", "PdfTable", "loglik_surface"),
           ("likelihood", "PdfTable", "sample_weights")]

# fileio readers and the sidecar headers they open besides the data file
_READERS = {"read_envelopes": False, "read_scan": True, "read_grid": True}


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Spans (name, start, end, parent index) and counters of one process."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = {}
        self.import_s: float | None = None
        self._stack: list[int] = []
        self._tables = weakref.WeakSet()      # tables already counted

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def _wrap(self, name: str, func, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append((name, 0.0, 0.0, parent))
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    def _after(self, func: str):
        """Counter hook run after a wrapped call returns."""
        if func == "get_table":
            def after(args, kwargs, table):
                if table not in self._tables:
                    self._tables.add(table)
                    self.count("likelihood.tables_built", 1)
                    self.count("likelihood.table_rows", table.log_rows.shape[0])
                    self.count("likelihood.table_mb", table.log_rows.nbytes / 1e6)
            return after
        if func == "twdp_cdf":
            def after(args, kwargs, result):
                self.count("fading.twdp_cdf_points", _size(args[0]))
            return after
        if func == "simulate_ber":
            def after(args, kwargs, curve):
                self.count("linksim.symbols", curve.n_symbols * len(curve.snr_db))
            return after
        if func == "write_text_atomic":
            def after(args, kwargs, result):
                text = args[1] if len(args) > 1 else kwargs["text"]
                self.count("fileio.bytes_written", len(text.encode()))
            return after
        if func in _READERS:
            sidecar = _READERS[func]

            def after(args, kwargs, result):
                path = os.fspath(args[0])
                size = _file_size(path)
                if sidecar:
                    size += _file_size(os.path.splitext(path)[0] + ".json")
                self.count("fileio.bytes_read", size)
            return after
        return None

    def install(self) -> None:
        """Wrap every function in FUNCTIONS and METHODS in loaded twdpfit."""
        mods = {name: sys.modules.get(f"twdpfit.{name}")
                for name in {m for m, _ in FUNCTIONS} | {m for m, _, _ in METHODS}}
        loaded = [m for n, m in sys.modules.items()
                  if m is not None and (n == "twdpfit" or n.startswith("twdpfit."))]
        for module, func in FUNCTIONS:
            if mods[module] is None:
                continue            # not imported by this process, so never called
            original = getattr(mods[module], func)
            wrapper = self._wrap(f"{module}.{func}", original, self._after(func))
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        for module, cls_name, method in METHODS:
            cls = getattr(mods[module], cls_name)
            setattr(cls, method, self._wrap(f"{module}.{method}", getattr(cls, method)))

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"import_s": self.import_s, "spans": self.spans,
                       "counts": self.counts}, handle)


def _size(value) -> int:
    shape = getattr(value, "shape", None)
    if shape is not None:
        n = 1
        for dim in shape:
            n *= dim
        return n
    return len(value) if hasattr(value, "__len__") else 1
