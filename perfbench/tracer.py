"""In-memory span recording around calls into ptychokit's public functions.

A :class:`Tracer` replaces module attributes with pass-through wrappers
that record one span per call: name, start, end and parent span. The
wrappers sit in the namespace the caller looks the function up in (for
example ``pmace.fft2_orthonormal``, not ``fields.fft2_orthonormal``),
so the program's own code is untouched and the originals are restored
when the ``with`` block ends. All spans of one tracer share its run id;
they stay in memory until :func:`dump_spans` writes them out.
"""

from __future__ import annotations

import contextlib
import json
import time
import uuid
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _nbytes(args, result) -> int:
    """Bytes read plus bytes written by an array-to-array call."""
    return int(getattr(args[0], "nbytes", 0)) + int(getattr(result, "nbytes", 0))


class Tracer:
    """Records nested spans from one thread of one process."""

    def __init__(self, run_id: str | None = None):
        self.run_id = run_id or uuid.uuid4().hex
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block; nested spans get it as parent."""
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, count_bytes: bool):
        def wrapper(*args, **kwargs):
            with self.span(name(args, kwargs) if callable(name) else name) as span:
                result = fn(*args, **kwargs)
            if count_bytes:
                span.nbytes = _nbytes(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def install(self, targets):
        """Wrap ``(module, attribute, span_name[, count_bytes])`` targets.

        ``span_name`` may be a function of ``(args, kwargs)`` for calls
        whose span name depends on an argument. A target the module no
        longer has is skipped, so its layer shows up as recording no calls.
        """
        saved = []
        try:
            for module, attr, name, *flags in targets:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, bool(flags and flags[0])))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def dump_spans(path, run_id: str, spans: list[Span]) -> None:
    """Write spans as JSON lines, one span per line."""
    with open(path, "w") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({
                "run": run_id, "id": i, "parent": s.parent, "name": s.name,
                "start": s.start, "end": s.end, "bytes": s.nbytes,
            }) + "\n")


def load_spans(path) -> list[Span]:
    """Read spans written by :func:`dump_spans`."""
    spans = []
    with open(path) as fh:
        for line in fh:
            d = json.loads(line)
            spans.append(Span(d["name"], d["start"], d["end"], d["parent"], d["bytes"]))
    return spans


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans from one thread nest without overlap, so the children's
    durations are exactly the part of the interval they cover.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child_time)]


def subtree(spans: list[Span], root: int) -> list[int]:
    """Indices of the root span and all its descendants, in call order."""
    inside = {root}
    out = [root]
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
            out.append(i)
    return out
