"""Spans recorded from outside the program, around the calls into each layer.

``Tracer.install`` replaces every public function of every ``koalition.*``
namespace that binds it with a timing wrapper, so a call made through
``engine.sample_shares`` or ``cli``'s ``engine.run_simulation`` is caught
wherever the caller looks the name up. Names are discovered at install
time: a function a later version deletes yields no span, not an error.
Spans stay in memory with their parent's index and are written once, when
the traced process is done. Each thread keeps its own stack of open spans;
a span opened on a worker thread has no parent and is marked ``main: false``,
so it counts as work done but not in the main thread's self-time partition.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import threading
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("polls", "pooling", "posterior", "electoral", "engine", "forecast", "viz", "cli")

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm", "rb") as handle:
        return int(handle.read().split()[1]) * _PAGE


def _first_len(bound):
    return len(next(iter(bound.arguments.values())))


# Work counted at the call boundary: draws requested, share rows allocated.
_COUNTERS = {
    "posterior.sample_shares": lambda bound: int(bound.arguments["m"]),
    "electoral.allocate_many": _first_len,
}


def result_nbytes(obj) -> int:
    """Bytes of the NumPy arrays a call returned, directly or as attributes."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    fields = getattr(obj, "__dict__", None)
    if not fields:
        return 0
    return sum(v.nbytes for v in fields.values() if isinstance(v, np.ndarray))


class Tracer:
    """Records one span per wrapped call: name, parent, start, end, RSS growth."""

    def __init__(self):
        self.spans: list[dict | None] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def install(self) -> int:
        """Wrap the package's public functions; returns how many were wrapped."""
        namespaces = [importlib.import_module("koalition")]
        for layer in LAYERS:
            try:
                namespaces.append(importlib.import_module(f"koalition.{layer}"))
            except ModuleNotFoundError:
                continue
        wrappers = {}
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if (
                    name.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or not obj.__module__.startswith("koalition.")
                ):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                setattr(ns, name, wrappers[obj])
        return len(wrappers)

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, local, lock = self.spans, self._local, self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            count = None
            if counter:
                try:
                    count = counter(signature.bind(*args, **kwargs))
                except (TypeError, KeyError, StopIteration, ValueError):
                    count = None  # the signature changed; time the call anyway
            with lock:
                idx = len(spans)
                spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            rss0 = rss_bytes()
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = {
                    "name": name,
                    "parent": parent,
                    "t0": t0,
                    "t1": t1,
                    "rss_delta": rss_bytes() - rss0,
                    "result_bytes": result_nbytes(result),
                    "count": count,
                    "main": threading.current_thread() is threading.main_thread(),
                }

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]].append((span["t0"], span["t1"]))
    out = []
    for idx, span in enumerate(spans):
        lo, hi = span["t0"], span["t1"]
        covered, end = 0.0, lo
        for c0, c1 in sorted(children.get(idx, ())):
            c0, c1 = max(c0, end), min(c1, hi)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out.append((hi - lo) - covered)
    return out
