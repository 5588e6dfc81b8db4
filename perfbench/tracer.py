"""In-memory span tracer that times calls into ``seqmeas`` from outside.

:class:`Tracer` wraps each named function and rebinds the wrapper wherever
the original is bound in a ``seqmeas.*`` module namespace, which also catches
the copies made by ``from .x import y``.  Each call records a span (name,
start, end, parent, thread id); :meth:`Tracer.uninstall` restores every
binding.  A span opened on a thread with no open span of its own (a sampler
worker thread) takes the innermost open span of the main thread as parent.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import resource
import sys
import threading
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: "Span | None"
    thread: int
    # Process-wide CPU seconds, minor page faults and trials, for functions
    # listed in ``usage`` (their calls must not overlap each other).
    cpu_s: float = 0.0
    minor_faults: int = 0
    trials: int = 0


def _usage() -> tuple[float, int]:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime, ru.ru_minflt


class Tracer:
    """Trace calls to ``targets`` ("module.function" under ``seqmeas``).

    ``usage`` names the targets whose spans also record CPU time, minor page
    faults and the ``trials`` attribute of their result.
    """

    def __init__(self, targets: list[str], usage: tuple[str, ...] = ()) -> None:
        self.targets = targets
        self.usage = usage
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[Span] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        probe = name in self.usage
        spans, main_stack, main_ident = self.spans, self._main_stack, self._main_ident
        local, get_ident, clock = self._local, threading.get_ident, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            thread = get_ident()
            if thread == main_ident:
                stack = main_stack
            else:
                stack = getattr(local, "stack", None)
                if stack is None:
                    stack = local.stack = []
            parent_stack = stack or main_stack
            span = Span(name, 0.0, 0.0, parent_stack[-1] if parent_stack else None, thread)
            spans.append(span)
            stack.append(span)
            if probe:
                cpu0, faults0 = _usage()
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if probe:
                cpu1, faults1 = _usage()
                span.cpu_s = cpu1 - cpu0
                span.minor_faults = faults1 - faults0
                span.trials = getattr(result, "trials", 0)
            return result

        return traced

    def install(self) -> None:
        """Rebind every target in every loaded ``seqmeas`` module."""
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "seqmeas" or n.startswith("seqmeas."))]
        for target in self.targets:
            module_name, func_name = target.split(".")
            original = getattr(importlib.import_module(f"seqmeas.{module_name}"), func_name)
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._bindings.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path, origin: float) -> None:
        """Write the spans as gzipped TSV, times in seconds after ``origin``."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tstart_s\tend_s\tparent\tthread\n")
            index = {id(s): i for i, s in enumerate(self.spans)}
            for i, s in enumerate(self.spans):
                parent = "" if s.parent is None else index[id(s.parent)]
                out.write(f"{i}\t{s.name}\t{s.start - origin:.9f}\t{s.end - origin:.9f}"
                          f"\t{parent}\t{s.thread}\n")


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    out = []
    for s in spans:
        kids = children.get(id(s), [])
        clipped = [(max(lo, s.start), min(hi, s.end)) for lo, hi in kids]
        out.append((s.end - s.start) - union_length([iv for iv in clipped if iv[1] > iv[0]]))
    return out
