"""In-memory spans recorded around calls into the program's layers.

A span has a name, a start and an end (``time.perf_counter`` seconds),
the id of the span that was open when it began (its parent) and the id
of the job it belongs to.  Spans stay in memory until :meth:`SpanRecorder.
write` dumps them when the run ends.  A span's *self time* is its
duration minus the part of its interval that its children cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, Sequence

__all__ = ["Span", "SpanRecorder", "union_length", "self_times",
           "span_cost"]

#: empty spans timed by :func:`span_cost`
SPAN_COST_REPS = 20_000


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, so a child that
    outlives its parent (a span closed on another thread) never drives
    the parent's self time below zero.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {s.id: s for s in spans}
    for s in spans:
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is not None:
            children[parent.id].append(
                (max(s.start, parent.start), min(s.end, parent.end)))
    return {s.id: s.duration - union_length(children[s.id]) for s in spans}


class SpanRecorder:
    """Collects spans for one job; nesting follows the ``with`` blocks."""

    def __init__(self, job: str) -> None:
        self.job = job
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent,
                                   self.job))

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def self_total(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        own = self_times(self.spans)
        return sum(own[s.id] for s in self.spans if s.name == name)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def span_cost(reps: int = SPAN_COST_REPS) -> float:
    """Seconds the recorder adds per span: ``reps`` empty spans, timed."""
    probe = SpanRecorder(job="probe")
    start = time.perf_counter()
    for _ in range(reps):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - start) / reps
