"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into saddlekit by replacing module
attributes with timing wrappers for the length of a ``Tracer.installed``
block; the package itself is not edited.  Calls are synchronous, so a
child span lies inside its parent and children do not overlap: a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._open = []

    def timed(self, fn, name):
        """Return ``fn`` wrapped to record a span called ``name`` per call."""

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append([name, perf_counter(), None, parent])
            self._open.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = perf_counter()
                self._open.pop()

        return wrapper

    @contextmanager
    def installed(self, targets):
        """Replace each ``(module, attribute, span name)`` by a timed wrapper;
        every original is put back on exit, also when the body raises."""
        saved = []
        try:
            for module, attr, name in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.timed(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self):
        """``{name: (calls, total seconds, self seconds)}`` over all spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (end - start),
                         own + (end - start - child[i]))
        return out
