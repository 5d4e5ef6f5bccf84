"""Spans around the library's public functions, recorded from outside it.

``install`` replaces each public function of a traced layer with a wrapper
in every ``fusionframes`` module that imported it, so calls between modules
are seen; ``src/`` is never edited.  Spans stay in memory and are written
once, when the traced process ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

LAYER_FUNCTIONS = {
    "linalg": ("hermitian_eig", "invert", "operator_norm", "orthonormalize", "kron"),
    "frames": (
        "frame_operator", "frame_bounds", "frame_operator_norms", "canonical_dual",
        "is_alternative_dual", "reconstruct_canonical", "projection", "transport_subspace",
        "check_resolution_of_identity",
    ),
    "tensor": (
        "tensor_system", "tensor_frame_bounds", "check_operator_factorization",
        "canonical_dual_tensor", "is_alternative_dual_tensor", "alt_dual_frame_check",
        "roi_tensor", "transport_tensor_system",
    ),
    "fileformat": ("loads_system", "dumps_system", "load_system", "save_system"),
    "verify": ("run_checks",),
}
TRIAL = "verify.trial"  # one campaign trial, run on a pool worker thread
MAX_COUNTERS = ("verify.workers", "tensor.peak_bytes")  # merged by maximum, others add


class Tracer:
    """Spans are tuples (id, parent, name, op, thread, start, end).

    With ``alloc`` set, tracemalloc runs from construction to ``close`` and
    the peak inside tensor spans is recorded.  It slows every allocation
    severalfold, so span times come from a tracer without it.  It is started
    once, before any pool thread exists, so that no thread toggles it while
    another allocates.
    """

    def __init__(self, op: int = 0, alloc: bool = False):
        self.op = op
        self.alloc = alloc
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._alloc_depth = 0
        self._alloc_base = 0
        if alloc:
            tracemalloc.start()

    def close(self):
        if self.alloc:
            tracemalloc.stop()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def add(self, key: str, amount: float):
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def high(self, key: str, value: float):
        with self._lock:
            self.counters[key] = max(self.counters.get(key, value), value)

    def call(self, name, fn, args, kwargs, parent=None):
        stack = self._stack()
        span_id = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, self.op, threading.get_ident(), start, end))

    # The outermost tensor call of a thread opens a window on the allocation
    # peak; windows of concurrent threads merge into one.
    def tensor_enter(self) -> bool:
        depth = getattr(self._local, "tensor_depth", 0)
        self._local.tensor_depth = depth + 1
        if depth:
            return False
        if not self.alloc:
            return True
        with self._lock:
            self._alloc_depth += 1
            if self._alloc_depth == 1:
                self._alloc_base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
        return True

    def tensor_exit(self, outer: bool):
        self._local.tensor_depth -= 1
        if not (outer and self.alloc):
            return
        with self._lock:
            self._alloc_depth -= 1
            if self._alloc_depth == 0:
                peak = tracemalloc.get_traced_memory()[1] - self._alloc_base
                self.counters["tensor.peak_bytes"] = max(
                    self.counters.get("tensor.peak_bytes", 0), peak)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)

    def merge(self, path):
        """Take in the spans and counters a traced child process dumped."""
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:  # the child died before writing; its op already failed
            return
        self.spans.extend(tuple(s) for s in data["spans"])
        for key, value in data["counters"].items():
            (self.high if key in MAX_COUNTERS else self.add)(key, value)


def _dense_bytes(result) -> int:
    """Bytes of product-space arrays in a tensor result, computed from .nbytes."""
    base = getattr(result, "base", None)
    if base is not None:
        return sum(m.basis.matrix.nbytes for m in base.members)
    ops = getattr(result, "ops", None)
    return sum(op.nbytes for op in ops) if ops is not None else 0


def _wrapper(tracer, layer, name, fn):
    qualified = f"{layer}.{name}"

    if layer == "tensor":
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = tracer.tensor_enter()
            try:
                result = tracer.call(qualified, fn, args, kwargs)
            finally:
                tracer.tensor_exit(outer)
            if outer:
                tracer.add("tensor.dense_bytes", _dense_bytes(result))
            return result
    elif name == "loads_system":
        @functools.wraps(fn)
        def traced(text, *args, **kwargs):
            tracer.add("fileformat.bytes_read", len(text.encode("utf-8")))
            return tracer.call(qualified, fn, (text, *args), kwargs)
    elif name == "dumps_system":
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            text = tracer.call(qualified, fn, args, kwargs)
            tracer.add("fileformat.bytes_written", len(text.encode("utf-8")))
            return text
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(qualified, fn, args, kwargs)
    return traced


def _traced_pool(tracer):
    class TracedPool(ThreadPoolExecutor):
        """The campaign's pool; each trial becomes a span under run_checks."""

        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            tracer.high("verify.workers", self._max_workers)

        def map(self, fn, *iterables, **kwargs):
            parent = tracer.current()

            def trial(*args):
                return tracer.call(TRIAL, fn, args, {}, parent=parent)

            return super().map(trial, *iterables, **kwargs)

    return TracedPool


def install(tracer):
    """Wrap the traced functions everywhere they are bound; returns an undo list."""
    import fusionframes

    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "fusionframes"]
    undo = []
    for layer, names in LAYER_FUNCTIONS.items():
        home = getattr(fusionframes, layer, None)
        for name in names:
            fn = getattr(home, name, None)
            if fn is None:
                continue
            traced = _wrapper(tracer, layer, name, fn)
            for mod in modules:
                if mod.__dict__.get(name) is fn:
                    undo.append((mod, name, fn))
                    setattr(mod, name, traced)
    verify = getattr(fusionframes, "verify", None)
    if verify is not None and hasattr(verify, "ThreadPoolExecutor"):
        undo.append((verify, "ThreadPoolExecutor", verify.ThreadPoolExecutor))
        verify.ThreadPoolExecutor = _traced_pool(tracer)
    return undo


def uninstall(undo):
    for mod, name, fn in reversed(undo):
        setattr(mod, name, fn)


def self_times(spans) -> dict[tuple, float]:
    """Span duration minus the union of its children's intervals, by (op, id).

    Children on other threads (campaign trials under run_checks) count, so
    parallel children never drive a self time below zero.
    """
    children: dict[tuple, list] = {}
    for sid, parent, _, op, _, start, end in spans:
        if parent is not None:
            children.setdefault((op, parent), []).append((start, end))
    out = {}
    for sid, _, _, op, _, start, end in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get((op, sid), ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[(op, sid)] = (end - start) - covered
    return out
