"""In-memory span recording around the public functions of each layer.

A ``Tracer`` replaces module attributes with wrappers for the length of a
``patched`` block, so the program runs unmodified and every call that goes
through the patched name records one span: name, start, end, the span that
was open when it started (its parent) and the benchmark operation it belongs
to. Spans stay in memory until ``write_spans`` writes them out at the end.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int | None
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; single-threaded, so an explicit stack gives the parent."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None

    def _open(self, name: str) -> Span:
        span = Span(name, self.clock(), self._stack[-1] if self._stack else None, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None, **attrs):
        """Span around a block; ``op`` (if given) tags it and every span inside it."""
        outer_op = self.op
        if op is not None:
            self.op = op
        span = self._open(name)
        span.attrs.update(attrs)
        try:
            yield span
        finally:
            self._close(span)
            self.op = outer_op

    def wrap(self, fn, name: str, annotate=None):
        """``fn`` with a span per call; ``annotate(attrs, args, kwargs, result)``
        may copy facts from the call into the span after it has ended."""

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["raised"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if annotate is not None:
                annotate(span.attrs, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap ``(module, attribute, span name, annotate)`` targets, restoring on exit."""
        saved = []
        try:
            for module, attr, name, annotate in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, annotate))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
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
    """Duration of each span minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for idx, span in enumerate(spans):
        kids = [(max(s, span.start), min(e, span.end)) for s, e in children.get(idx, ())]
        out.append(span.duration - _covered((s, e) for s, e in kids if e > s))
    return out


def ancestor(spans: list[Span], idx: int, name: str) -> Span | None:
    """Nearest enclosing span called ``name``, or None."""
    parent = spans[idx].parent
    while parent is not None:
        if spans[parent].name == name:
            return spans[parent]
        parent = spans[parent].parent
    return None


def write_spans(path, spans: list[Span]) -> None:
    """One JSON object per span (gzip-compressed JSON lines), ids are list indices."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for idx, span in enumerate(spans):
            record = {"id": idx, "name": span.name, "start": span.start,
                      "end": span.end, "parent": span.parent, "op": span.op}
            record.update(span.attrs)
            fh.write(json.dumps(record, default=str) + "\n")
