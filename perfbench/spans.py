"""Span recording for the benchmark's traced pass.

A span is (name, start, end, parent): the benchmark opens one around each
operation (a search or a design) and records one around each call it makes
into a library layer inside it.  Spans live in flat arrays in memory and are
written out once, when the run ends.  Counters (rejected candidates, ties,
...) are kept beside them, at the same call sites.

`NullTracer` has the same interface and records nothing, so the untraced
passes and the traced pass share one code path for everything except the
search replay.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from pathlib import Path

clock = time.perf_counter_ns


class Tracer:
    """Spans and counters of one traced run."""

    enabled = True

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def record(self, nid: int, t0: int, t1: int) -> None:
        """Add a finished span under the innermost open span."""
        self.name.append(nid)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(self._stack[-1] if self._stack else -1)

    def call(self, name: str, fn, *args, **kwargs):
        """Call `fn` inside a span named `name`; exceptions still close it."""
        nid = self.name_id(name)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.record(nid, t0, clock())

    def open(self, name: str) -> int:
        """Open a span that later spans nest under; returns its index."""
        self.record(self.name_id(name), clock(), 0)
        idx = len(self.name) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> int:
        """Close span `idx` and return its duration in ns."""
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError("spans closed out of order")
        self.end[idx] = clock()
        return self.end[idx] - self.start[idx]

    def count(self, key: str, k: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + k

    def children_ns(self, idx: int) -> int:
        """Total duration of the direct children of span `idx`."""
        total = 0
        for i in range(idx + 1, len(self.name)):
            if self.parent[i] == idx:
                total += self.end[i] - self.start[i]
        return total

    def totals(self) -> dict[str, tuple[int, int]]:
        """Per span name: (number of spans, summed duration in ns)."""
        count = [0] * len(self.names)
        total = [0] * len(self.names)
        for nid, t0, t1 in zip(self.name, self.start, self.end):
            count[nid] += 1
            total[nid] += t1 - t0
        return {n: (count[i], total[i]) for i, n in enumerate(self.names)}

    def write(self, path: Path, meta: dict) -> None:
        """Write every span and counter as gzipped JSON, one list per column."""
        doc = dict(meta)
        doc.update(
            names=self.names,
            name=self.name.tolist(),
            start_ns=self.start.tolist(),
            end_ns=self.end.tolist(),
            parent=self.parent.tolist(),
            counters=self.counters,
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


class NullTracer:
    """Tracer stand-in for untraced passes: calls through, records nothing."""

    enabled = False

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def open(self, name: str) -> int:
        return -1

    def close(self, idx: int) -> int:
        return 0

    def count(self, key: str, k: int = 1) -> None:
        pass
