"""In-memory span recording for the traced runs.

A span is ``(span_id, parent_id, name, start, end, request)``: the
benchmark opens one around each call it makes into a layer of the
program, so spans nest exactly as the calls do.  Spans are kept in a
list while the run measures and written out as NDJSON once it ends.
"""

from __future__ import annotations

import gc
import json
import time
from collections import defaultdict

_NOW = time.perf_counter


class Tracer:
    """Records nested spans; ``begin``/``end`` must pair like calls."""

    __slots__ = ("spans", "_stack", "_next", "_unwatch")

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, str]] = []
        self._stack: list[tuple[int, str, float, str]] = []
        self._next = 0
        self._unwatch = None

    def begin(self, name: str, request: str = "") -> None:
        self._next += 1
        self._stack.append((self._next, name, _NOW(), request))

    def end(self) -> float:
        """Close the innermost open span; returns its duration."""
        stop = _NOW()
        span_id, name, start, request = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else 0
        self.spans.append((span_id, parent, name, start, stop, request))
        return stop - start

    def add(self, name: str, start: float, stop: float, request: str = "",
            parent: int = 0) -> int:
        """Record a span measured elsewhere (e.g. a server-side stage)."""
        self._next += 1
        self.spans.append((self._next, parent, name, start, stop, request))
        return self._next

    def watch_gc(self, root_name: str) -> None:
        """Record every garbage-collector pause that falls inside an
        open ``root_name`` span as a ``gc`` span under the innermost
        open span (the call that triggered it)."""
        started = []

        def callback(phase, info):
            if not self._stack or self._stack[0][1] != root_name:
                return
            if phase == "start":
                started.append(_NOW())
            elif started:
                self.add("gc", started.pop(), _NOW(), parent=self._stack[-1][0])

        gc.callbacks.append(callback)
        self._unwatch = lambda: gc.callbacks.remove(callback)

    def unwatch_gc(self) -> None:
        unwatch = self._unwatch
        if unwatch is not None:
            unwatch()
            self._unwatch = None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, stop, request in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": stop, "request": request,
                }, separators=(",", ":")) + "\n")


def by_root(spans) -> dict[tuple[str, str], tuple[int, float]]:
    """Per ``(root name, span name)``: ``(count, total seconds)``.  A
    top-level span is filed under root ``""``."""
    info = {span_id: (parent, name) for span_id, parent, name, _, _, _ in spans}
    out: dict = defaultdict(lambda: [0, 0.0])
    for span_id, parent, name, start, stop, _ in spans:
        root = ""
        while parent:
            parent, root = info[parent]
        entry = out[root, name]
        entry[0] += 1
        entry[1] += stop - start
    return {key: (count, total) for key, (count, total) in out.items()}


def coverage(spans, root_name: str) -> float:
    """Share of the time spent in ``root_name`` spans that their direct
    children — the blocking steps — cover."""
    roots = {
        span_id: stop - start
        for span_id, parent, name, start, stop, _ in spans
        if parent == 0 and name == root_name
    }
    children = sum(
        stop - start for _, parent, _, start, stop, _ in spans if parent in roots
    )
    total = sum(roots.values())
    return children / total if total else 0.0
