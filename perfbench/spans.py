"""Spans around the benchmark's calls into supertrop.

A workload calls the library only through ``call(name, fn, *args)``.  The
untraced run binds it to `plain_call`, which adds one Python call per
library call and records nothing.  The traced run binds it to
`Tracer.call`, which records one span per call: name, start, end, parent
span and request id.  Spans stay in memory and are written out once, at
the end of the run.
"""

from __future__ import annotations

import json
from time import perf_counter


def plain_call(name, fn, *args):
    return fn(*args)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.request = -1

    def call(self, name, fn, *args):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.request)

    def summary(self) -> dict[str, dict]:
        """Per span name: count, total time and self time in seconds.

        Self time is the span's duration minus the time its child spans
        cover.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[k]
        return out

    def durations(self, name: str) -> list[tuple[int, float]]:
        """(request id, seconds) of every span with this name."""
        return [(req, end - start) for n, start, end, _, req in self.spans
                if n == name]

    def write(self, path) -> None:
        fields = ["name", "start", "end", "parent", "request"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)
