"""In-memory spans around the package's layer functions.

A span records the name of the wrapped function, its start and end times and
the index of the span that was open when it started. Layers are timed from
outside the package: ``instrument`` rebinds each layer function in the
modules that call it (or replaces the method on its class) with a wrapper
that opens a span, and restores every original binding on exit.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    nested: bool  # an enclosing span has the same name


class Tracer:
    """Collects spans and counts; ``paused`` stops recording for checks."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.paused = False
        self._stack = []
        self._open = Counter()

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent,
                               self._open[name] > 0))
        index = len(self.spans) - 1
        self._stack.append(index)
        self._open[name] += 1
        return index

    def close(self, index):
        span = self.spans[index]
        span.end = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        self._open[span.name] -= 1

    @contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    @contextmanager
    def pause(self):
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    def wrap(self, name, fn, on_return=None):
        """``fn`` inside a span; ``on_return(args, result)`` may add counts."""

        def wrapped(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(args, result)
                return result
            finally:
                self.close(index)

        wrapped.__wrapped__ = fn
        return wrapped

    def counted(self, name, fn):
        """``fn`` counting its calls under ``name``, without a span."""
        counts = self.counts

        def wrapped(*args, **kwargs):
            if not self.paused:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped


def self_times(spans):
    """Per-span duration minus the time covered by its direct children."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def summarize(spans):
    """{name: {"calls", "total_s", "self_s"}}; total_s skips nested repeats."""
    out = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        if not s.nested:
            row["total_s"] += s.end - s.start
    return out


def ancestors(spans, index):
    """Names of the spans enclosing span ``index``, innermost first."""
    names = []
    parent = spans[index].parent
    while parent >= 0:
        names.append(spans[parent].name)
        parent = spans[parent].parent
    return names


def check_tree(spans, slack=1e-9):
    """Problems with a span list: open spans, bad parents, negative self time,
    children reaching outside their parents."""
    problems = []
    for i, s in enumerate(spans):
        if not s.end >= s.start:
            problems.append(f"span {i} ({s.name}) not closed")
        if not -1 <= s.parent < i:
            problems.append(f"span {i} ({s.name}) has parent {s.parent}")
        elif s.parent >= 0:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end:
                problems.append(f"span {i} ({s.name}) lies outside its parent {p.name}")
    for i, own in enumerate(self_times(spans)):
        if own < -slack:
            problems.append(f"span {i} ({spans[i].name}) has self time {own:.3e}")
    return problems


@contextmanager
def instrument(tracer, bindings):
    """Rebind every ``(owner, attribute, wrapper_factory)`` for the duration.

    ``wrapper_factory(original)`` returns the replacement. Owners that share
    one original share one wrapper, so a function bound in several modules
    is wrapped once.
    """
    saved = []
    wrappers = {}
    try:
        for owner, attr, factory in bindings:
            original = getattr(owner, attr)
            key = (id(original), factory)
            if key not in wrappers:
                wrappers[key] = factory(original)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrappers[key])
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
