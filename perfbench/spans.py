"""In-memory span recorder used by the traced benchmark runs.

A span has a name, start, end, parent and op id.  Spans are only opened
by the benchmark's own code, around the calls it makes into the
program's public functions; nothing inside ``src/`` is instrumented.
With tracing off, ``span`` hands back one shared no-op context manager.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import nullcontext

_NULL = nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        parent = t.stack[-1] if t.stack else -1
        t.spans.append([self.name, time.perf_counter(), 0.0, parent, t.op])
        t.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t.stack.pop()
        return False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = 0

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def count(self, name: str, value: int = 1) -> None:
        if self.enabled:
            self.counts[name] += value

    def absorb(self, name: str, start: float, end: float, spans: list[list], counts: dict) -> None:
        """Add an op span covering a child interpreter, with the child's spans under it.

        ``perf_counter`` reads the system-wide monotonic clock, so the
        child's timestamps line up with this process's.
        """
        parent = len(self.spans)
        self.spans.append([name, start, end, -1, self.op])
        base = len(self.spans)
        for child, t0, t1, par, _op in spans:
            self.spans.append([child, t0, t1, parent if par < 0 else base + par, self.op])
        self.counts.update(counts)

    def summary(self) -> tuple[dict, dict]:
        """Per span name: (busy seconds, calls, self seconds)."""
        busy: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        selfs: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            selfs[name] += end - start - child[i]
        return {k: (busy[k], calls[k], selfs[k]) for k in busy}, dict(self.counts)
