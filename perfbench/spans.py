"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent): the parent is the index of the span
that was open when this one began, or -1.  Spans are kept in a list and
reduced after the run; nothing is written while the workload executes.
Counters record calls that are too frequent to time individually.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int


class SpanRecorder:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def timed(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so that every call records a span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(Span(name, self.clock(), float("nan"), parent))
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx] = self.spans[idx]._replace(end=self.clock())

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so that every call increments ``counts[name]``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def covered_length(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it covered by its children.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so self time is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for idx, span in enumerate(spans):
        clipped = [(max(s, span.start), min(e, span.end))
                   for s, e in children.get(idx, ()) if e > span.start and s < span.end]
        out.append((span.end - span.start) - covered_length(clipped))
    return out
