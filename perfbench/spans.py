"""Call timing from outside the program.

The benchmark never edits `src/`.  It measures a layer by replacing a
module attribute (for example `qnas.planner.release`) with a wrapper for
the duration of one operation, so every call the program makes through
that attribute is timed.  Wrappers nest: a span's self time is its
duration minus the time covered by spans that started inside it.
"""

import contextlib
import time
from collections import defaultdict


@contextlib.contextmanager
def patched(replacements):
    """Set `(module, attr, value)` triples and restore the originals on exit.

    A missing attribute raises AttributeError: a renamed layer must fail
    the benchmark, not drop out of it silently.
    """
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, value in replacements:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


class Tracer:
    """Aggregated spans: total time, time in child spans, call count, per name."""

    def __init__(self):
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.calls = defaultdict(int)
        self._stack = []

    def wrap(self, fn, name, on_result=None):
        """Return `fn` timed as span `name`; `on_result(args, result)` runs
        after a successful call, outside the span."""
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, time.perf_counter() - t0)
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, time.perf_counter() - t0)

    def _close(self, name, duration):
        kids = self._stack.pop()
        self.total[name] += duration
        self.child[name] += kids
        self.calls[name] += 1
        if self._stack:
            self._stack[-1] += duration

    def self_time(self, name):
        return self.total[name] - self.child[name]
