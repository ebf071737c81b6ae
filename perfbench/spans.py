"""In-memory spans recorded by wrappers installed at the callers' lookup sites.

A site is an (owner, attribute) pair such as `(edgecache.cli,
"tradeoff_sweep")`: the module global or class attribute through which the
program's caller finds the function. Installing a site replaces it with a
wrapper that records a span; uninstalling puts the original object back.
Nothing in the program itself is edited.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 for a root

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans and named counters in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, on_result=None):
        """Wrap `fn` so each call records a span.

        `name` is the span name, or a function of the call's positional
        arguments returning it. `on_result(tracer, result)` runs after the
        span has ended, so its cost is charged to the caller's span.
        """
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name(args) if callable(name) else name, 0.0, 0.0,
                        open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def install(self, sites) -> None:
        """Wrap each (owner, attribute, name, on_result) site."""
        for owner, attr, name, on_result in sites:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(
                    self.wrap(name, original.__func__, on_result))
            else:
                replacement = self.wrap(name, original, on_result)
            setattr(owner, attr, replacement)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def self_times(self, lo: int = 0, hi: int | None = None) -> list[float]:
        """Self time of spans[lo:hi]: duration minus direct children's."""
        hi = len(self.spans) if hi is None else hi
        child = defaultdict(float)
        for span in self.spans[lo:hi]:
            if span.parent >= 0:
                child[span.parent] += span.duration
        return [self.spans[i].duration - child[i] for i in range(lo, hi)]

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps([span.name, span.start, span.end,
                                     span.parent]) + "\n")
