"""In-memory spans around calls into newsrec's modules.

The benchmark installs wrappers on module attributes at the places that
resolve them (``newsrec.textprep.stem`` rather than ``porter.stem``, since
textprep imported the name), so every call a CLI command makes through
that attribute opens a span.  A span records its name, start, end, parent
and the CLI call (request) it belongs to; its self time is its duration
minus the time its child spans cover.  Per-name totals are kept for every
call; individual spans are kept for the first ``KEEP_PER_NAME`` calls of
each name, so that hot leaves such as ``stem`` stay bounded in memory.
Everything is written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

_clock = time.perf_counter
KEEP_PER_NAME = 2000


class Tracer:
    def __init__(self):
        self.totals: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self._distinct: dict[str, set] = {}
        self.spans: list[tuple] = []  # (id, parent, request, name, start, end, self_s)
        self.request = 0
        self._stack: list[list] = []  # [id, name, start, child_s]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def count_distinct(self, name: str, key) -> None:
        seen = self._distinct.setdefault(name, set())
        seen.add(key)
        self.counters[name] = len(seen)

    def _open(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, _clock(), 0.0])

    def _close(self) -> None:
        end = _clock()
        span_id, name, start, child_s = self._stack.pop()
        duration = end - start
        self_s = duration - child_s
        if self._stack:
            self._stack[-1][3] += duration
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += self_s
        if entry[0] <= KEEP_PER_NAME:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((span_id, parent, self.request, name, start, end, self_s))

    @contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def wrap(self, owner: object, attr: str, name: str, on_call=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper until :meth:`restore`.

        ``on_call(args, result)`` runs after the call, outside the span,
        to update counters.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close()
            if on_call is not None:
                on_call(args, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def seconds(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_seconds(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    def write(self, path: str) -> None:
        """Span records as JSON lines, then one line of per-name totals."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, request, name, start, end, self_s in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "request": request,
                                     "name": name, "start": start, "end": end,
                                     "self_s": self_s}) + "\n")
            fh.write(json.dumps({"totals": {n: {"calls": c, "total_s": t, "self_s": s}
                                            for n, (c, t, s) in sorted(self.totals.items())},
                                 "counters": self.counters}) + "\n")
