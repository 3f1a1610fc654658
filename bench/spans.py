"""Spans and counters recorded around the benchmark's calls into the library.

A span is (name, start, end, parent, op id); spans stay in memory and are
written out once, when the run ends.  ``NullTracer`` has the same
interface and records nothing, so untraced runs pay one extra Python call
per library call and nothing else.
"""

from __future__ import annotations

import json
from time import perf_counter


class NullTracer:
    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, value):
        pass

    def begin_op(self, op_id):
        pass

    def end_op(self):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or None, op id]
        self.counts: dict = {}  # op id -> {counter name: value}
        self._stack: list[int] = []
        self._op = None

    def call(self, name, fn, *args):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, self._op])
        self._stack.append(idx)
        try:
            return fn(*args)
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def count(self, name, value):
        bucket = self.counts.setdefault(self._op, {})
        bucket[name] = bucket.get(name, 0) + value

    def begin_op(self, op_id):
        """Open the root span of one op; every span until ``end_op`` is its
        descendant and carries its id."""
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(["op", perf_counter(), None, None, op_id])

    def end_op(self):
        idx = self._stack.pop()
        self.spans[idx][2] = perf_counter()
        self._op = None

    def self_times(self) -> list[tuple[str, object, float]]:
        """(name, op id, self time) per span: its duration minus the part of
        that interval its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                children.setdefault(parent, []).append((start, end))
        out = []
        for k, (name, start, end, _, op) in enumerate(self.spans):
            if end is None:  # cut short by an op budget
                continue
            covered = 0.0
            reach = start
            for cs, ce in sorted(children.get(k, ())):
                cs, ce = max(cs, reach), min(ce, end)
                if ce > cs:
                    covered += ce - cs
                    reach = ce
            out.append((name, op, (end - start) - covered))
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
