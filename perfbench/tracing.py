"""In-memory span recorder for the traced benchmark run.

A span is one timed call across a layer boundary: name, start, end, the span
that caused it, and the id of the run it belongs to. Spans are appended to a
list while the run executes and written out once, at the end, so tracing
does no I/O inside the timed region.

Worker threads start with an empty span stack; their spans are parented to
the innermost span open on the thread that created the tracer, which is the
call that fanned the work out.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, name, start, end, parent)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Time the body; the yielded list receives the duration in seconds."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._home_stack[-1] if self._home_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        elapsed: list[float] = []
        start = time.perf_counter()
        try:
            yield elapsed
        finally:
            end = time.perf_counter()
            stack.pop()
            elapsed.append(end - start)
            self.spans.append((span_id, name, start, end, parent))

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span and return (result, seconds)."""
        with self.span(name) as elapsed:
            result = fn(*args, **kwargs)
        return result, elapsed[0]

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _ in self.spans if n == name]

    def records(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "run": self.run_id}
            for i, n, s, e, p in self.spans
        ]


def self_time(spans, span_id: int) -> float:
    """Duration of a span minus the time its direct children cover.

    Children of one parent can overlap when they ran on worker threads, so
    their intervals are merged before they are subtracted.
    """
    by_id = {s["id"]: s for s in spans}
    parent = by_id[span_id]
    children = sorted(
        (s["start"], s["end"]) for s in spans if s["parent"] == span_id
    )
    covered = 0.0
    cur_start = cur_end = None
    for start, end in children:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return (parent["end"] - parent["start"]) - covered
