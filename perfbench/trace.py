"""In-memory spans and counters recorded around the benchmark's calls into
the library.

A span is (name, start, end, parent, op id).  The name's prefix before the
first dot is its layer (``simple.ring`` belongs to ``simple``); ``bench.*``
spans are the harness's own time.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Dict, List


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self.op = None
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, n=1) -> None:
        self.counters[name] += n

    def self_times(self) -> Dict[str, List[float]]:
        """Span name -> list of self times in seconds, one per span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, List[float]] = defaultdict(list)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name].append(end - start - child[i])
        return out

    def dump(self, path: str, info: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"info": info,
                       "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans,
                       "counters": dict(self.counters)}, handle)


class NullTracer:
    """Tracing switched off: spans and counters cost one call each."""

    op = None
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, n=1) -> None:
        pass
