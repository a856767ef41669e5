"""Spans recorded around calls into the program, kept in memory.

A span has a name, a start and end time, the span that caused it and the
request it belongs to. The tracer wraps the module attributes that callers
look up, so that spans are recorded at layer boundaries without changing the
program, and puts the originals back afterwards.
"""
from __future__ import annotations

import csv
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    request: int
    note: object = None  # small value taken from the call's result


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.request = -1

    def wrap(self, fn, name, note=None):
        """Return fn recording one span per call; note(result) is kept."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(len(spans), name, 0, 0,
                        stack[-1] if stack else None, self.request)
            spans.append(span)
            stack.append(span.id)
            span.start_ns = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = perf_counter_ns()
                stack.pop()
            if note is not None:
                span.note = note(result)
            return result

        return traced

    def call(self, name, fn, *args, note=None):
        """Call fn as the root span of a new request."""
        self.request += 1
        return self.wrap(fn, name, note)(*args)

    @contextmanager
    def patched(self, targets):
        """Wrap (module, attribute, span name, note) targets while active."""
        saved = []
        try:
            for module, attr, name, note in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, note))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start_ns, s.end_ns))
    out = []
    for s in spans:
        covered = 0
        lo_run = hi_run = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start_ns), min(hi, s.end_ns)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out.append(s.end_ns - s.start_ns - covered)
    return out


def write_spans(spans: list[Span], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("id", "name", "start_ns", "end_ns", "parent",
                         "request"))
        for s in spans:
            writer.writerow((s.id, s.name, s.start_ns, s.end_ns,
                             "" if s.parent is None else s.parent, s.request))
