"""In-memory spans and a counting random stream, both used from outside the package.

Spans are recorded by the benchmark around its own calls into levystop's
public functions; nothing inside ``src/`` is instrumented. The spans are
kept in memory and written out once, when the run ends.
"""
from __future__ import annotations

import json
import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

import numpy as np


class Tracer:
    """Nested spans (name, parent, trace id, start, end) plus named counters."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.trace_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "trace": self.trace_id,
               "parent": self._stack[-1] if self._stack else None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start_ns"] = perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end_ns"] = perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def durations(self, name: str) -> list[float]:
        """Seconds spent in each closed span called ``name``."""
        return [(s["end_ns"] - s["start_ns"]) * 1e-9 for s in self.spans
                if s["name"] == name and "end_ns" in s]

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def summary(self) -> dict[str, dict]:
        """Per span name: count, median, total and self time (children excluded)."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None and "end_ns" in s:
                child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
        out: dict[str, dict] = {}
        for s in self.spans:
            if "end_ns" not in s:
                continue
            dur = s["end_ns"] - s["start_ns"]
            row = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0, "_d": []})
            row["count"] += 1
            row["total_s"] += dur * 1e-9
            row["self_s"] += (dur - child_ns[s["id"]]) * 1e-9
            row["_d"].append(dur * 1e-9)
        for row in out.values():
            row["median_s"] = statistics.median(row.pop("_d"))
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "summary": self.summary()}, fh)


class NullTracer:
    """Stand-in for untraced runs: spans cost one call and record nothing."""

    def span(self, name: str, **attrs):
        return nullcontext()


NULL = NullTracer()


class CountingStream:
    """Wraps a numpy Generator, forwarding every method and counting its use.

    ``calls`` counts sampling calls and ``draws`` the values they returned
    (or filled, for in-place methods), so any engine that takes a Generator,
    whatever methods it uses (``standard_normal``, ``wald``, ...), is
    counted the same way.
    """

    _UNCOUNTED = frozenset({"spawn"})

    def __init__(self, gen: np.random.Generator) -> None:
        self._gen = gen
        self.calls = 0
        self.draws = 0
        self.by_method: dict[str, int] = {}

    def __getattr__(self, name: str):
        attr = getattr(self._gen, name)
        if not callable(attr) or name.startswith("_") or name in self._UNCOUNTED:
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.calls += 1
            filled = out if out is not None else (args[0] if args else kwargs.get("x"))
            n = int(np.size(filled))
            self.draws += n
            self.by_method[name] = self.by_method.get(name, 0) + n
            return out

        return counted
