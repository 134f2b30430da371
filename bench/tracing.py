"""In-memory span tracer that wraps qmatch's public functions from outside.

A wrapper replaces a function at the module (or class) attribute its callers
look up, records one span per call (name, start, end, parent) and optional
counters, and is removed again by :meth:`Tracer.restore`.  Spans stay in
memory until :meth:`Tracer.write` dumps them as JSON lines.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._open.append(idx)
        return idx

    def _end(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self._open.pop()

    def patch(self, owner, attr: str, name, count=None):
        """Replace ``owner.attr`` with a traced wrapper.

        ``name`` is a span name or a function of (args, kwargs) giving one;
        ``count`` maps (args, kwargs, result) to counter increments.
        """
        fn = getattr(owner, attr)
        name_of = name if callable(name) else (lambda args, kwargs: name)

        def traced(*args, **kwargs):
            idx = self._begin(name_of(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- summaries -------------------------------------------------------------

    def busy(self) -> dict[str, float]:
        """Summed span duration per name."""
        out: dict[str, float] = defaultdict(float)
        for name, s, e in zip(self.names, self.starts, self.ends):
            out[name] += e - s
        return out

    def self_time(self) -> dict[str, float]:
        """Summed duration per name minus the time covered by child spans."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            out[name] += self.ends[i] - self.starts[i] - child[i]
        return out

    def count_within(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        inside = [False] * len(self.names)
        total = 0
        for i, parent in enumerate(self.parents):
            inside[i] = parent >= 0 and (inside[parent] or self.names[parent] == ancestor)
            total += inside[i] and self.names[i] == name
        return total

    def write(self, path):
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"id": i, "name": name, "parent": self.parents[i],
                                     "start": self.starts[i], "end": self.ends[i]}) + "\n")
