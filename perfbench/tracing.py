"""Spans and counts recorded from the benchmark's own calls into the
library's public functions.

A span has a name, a start, an end, the span that encloses it and the
operation it belongs to.  Spans stay in memory until the run ends.  A
layer's self time is the duration of its spans minus the part their child
spans cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class _NullSpan:
    def count(self, name, n):
        pass


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    @contextmanager
    def span(self, name, tag=None):
        yield _NullSpan()


NULL_TRACER = NullTracer()


class _Span:
    __slots__ = ("name", "tag", "op", "parent", "start", "end", "tracer")

    def __init__(self, tracer, name, tag, op, parent):
        self.tracer, self.name, self.tag = tracer, name, tag
        self.op, self.parent = op, parent
        self.start = self.end = 0.0

    def count(self, name, n):
        self.tracer.counts[name] += n


class Tracer:
    def __init__(self):
        self.spans: list[_Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = None
        self._open: list[_Span] = []

    @contextmanager
    def span(self, name, tag=None):
        parent = self._open[-1] if self._open else None
        s = _Span(self, name, tag, self.op, parent)
        self._open.append(s)
        s.start = perf_counter()
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._open.pop()
            self.spans.append(s)

    def self_times(self) -> dict[tuple, float]:
        """(name, tag) -> summed self time."""
        child_cover: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_cover[id(s.parent)] += s.end - s.start
        out: dict[tuple, float] = defaultdict(float)
        for s in self.spans:
            out[(s.name, s.tag)] += s.end - s.start - child_cover[id(s)]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "tag": s.tag, "op": s.op,
                    "parent": s.parent.name if s.parent else None,
                    "start": s.start, "end": s.end}) + "\n")
