"""In-memory spans around calls into votewire's layers.

A span is (name, start, end, parent index, operation id). Spans are
recorded only from the benchmark's own files: around the calls it makes
into each layer, or by temporarily rebinding names the CLI module
imported. Nothing inside the package is edited.

A span's self time is its duration minus the durations of its direct
children; children never overlap because the program is single-threaded.
The first segment of a span name is the layer (the votewire module).
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path


def direct(name, fn, *args, **kwargs):
    """Untraced counterpart of Tracer.call."""
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def rebound(self, targets):
        """Trace calls through ``(owner, attribute, span name)`` while active."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        for (owner, attr, name), (_, _, fn) in zip(targets, originals):
            setattr(owner, attr, self.wrap(fn, name))
        try:
            yield
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def rows(self) -> list[tuple[str, int, float, float, bool]]:
        """(name, operation, self seconds, total seconds, is top-level) per span."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [
            (name, op, end - start - child, end - start, parent < 0)
            for (name, start, end, parent, op), child in zip(self.spans, covered)
        ]

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]
        path.write_text(json.dumps({"meta": meta, "spans": rows}) + "\n", encoding="utf-8")
