"""In-memory span recorder for the traced run.

A span is ``[name, start, end, parent, task]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``task`` the index of the task it
belongs to.  Spans are recorded from the benchmark side around each call
into a layer's public functions; nothing inside the package is traced.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Recorder:
    """Times calls as spans when enabled; otherwise just makes the call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.task = -1
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.task]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def totals(self) -> dict:
        """Per span name: calls, total and self time in microseconds.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, task in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for index, (name, start, end, parent, task) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_us": 0.0, "self_us": 0.0})
            entry["calls"] += 1
            entry["total_us"] += (end - start) * 1e6
            entry["self_us"] += (end - start - child_time[index]) * 1e6
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, task in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "task": task}
                    )
                    + "\n"
                )
