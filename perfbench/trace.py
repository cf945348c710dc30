"""In-memory span recording around the public functions of quintic_flow.

The tracer replaces module attributes with timing wrappers for the length of
a ``with tracer.installed(...)`` block and restores them afterwards.  The
program's own modules are not edited: a wrapper only sees calls that look the
function up through its module at call time, which is how solver, basins and
verify reach each other.

One span per call records name, start, end, parent span, the index of the
input being processed and, if the call raised, the exception type.  Steps of
the phi_K map are not spans: the callable that ``params.phiK_map`` returns is
wrapped to add a step count and the time inside it to the enclosing
``iterate_phiK`` span.
"""
from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int = -1
    error: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
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
    """Each span's duration minus the part of its interval that its child
    spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            children.setdefault(s.parent, []).append(
                (max(s.start, p.start), min(s.end, p.end)))
    return [s.duration - covered(children.get(i, ())) for i, s in enumerate(spans)]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent=parent, op=self.op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, error: BaseException | None = None) -> None:
        span = self.spans[idx]
        span.end = self.clock()
        if error is not None:
            span.error = type(error).__name__
        self._stack.pop()

    def wrap(self, fn, name: str, on_return=None):
        """A callable that records a span around each call of ``fn``;
        ``on_return(span, result)`` may annotate the span or wrap the
        result."""
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(idx, exc)
                raise
            if on_return is not None:
                result = on_return(self.spans[idx], result)
            self.close(idx)
            return result
        return traced

    def count_steps(self, step):
        """Wrap a phi_K step callable: each call adds one step and its time to
        the innermost open span."""
        def counted(w):
            t0 = self.clock()
            try:
                return step(w)
            finally:
                info = self.spans[self._stack[-1]].info if self._stack else {}
                info["steps"] = info.get("steps", 0) + 1
                info["step_s"] = info.get("step_s", 0.0) + self.clock() - t0
        return counted

    @contextlib.contextmanager
    def installed(self, targets):
        """Install wrappers for ``(module, attribute, span_name, on_return)``
        targets; restore the originals on exit."""
        saved = []
        try:
            for module, attr, name, on_return in targets:
                orig = getattr(module, attr)
                saved.append((module, attr, orig))
                setattr(module, attr, self.wrap(orig, name, on_return))
            yield self
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)
