"""In-memory span recorder for the benchmark's traced runs.

A span is ``(name, start, end, parent, run)``: ``parent`` is the index of the
enclosing span (-1 for a root) and ``run`` numbers the traced operation it
belongs to.  Spans are only kept in memory while the run goes and are written
out once it ends (:meth:`Tracer.dump`).  Each span also records how much the
library's kernel counters (``repro.grid.counters``) moved while it was open.

A span's self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self, snapshot: Callable[[], Dict[str, int]]):
        self._snapshot = snapshot
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self.run = 0

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = {"name": name, "start": 0.0, "end": 0.0,
               "parent": self._stack[-1] if self._stack else -1,
               "run": self.run, "counters": {}}
        self.spans.append(rec)
        self._stack.append(idx)
        before = self._snapshot()
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()
            after = self._snapshot()
            rec["counters"] = {k: v - before.get(k, 0) for k, v in after.items()
                               if v != before.get(k, 0)}

    def runs(self) -> List[int]:
        return sorted({s["run"] for s in self.spans})

    def _children_time(self) -> List[float]:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] >= 0:
                covered[s["parent"]] += s["end"] - s["start"]
        return covered

    def per_run(self, run: int, *, inclusive: bool = False) -> Dict[str, float]:
        """Seconds per span name in one run: self time, or whole spans."""
        covered = self._children_time()
        out: Dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if s["run"] != run:
                continue
            dur = s["end"] - s["start"]
            out[s["name"]] = out.get(s["name"], 0.0) + (dur if inclusive else dur - covered[i])
        return out

    def counters(self, run: int, name: str) -> Optional[Dict[str, int]]:
        """Summed counter deltas of the spans called ``name`` (None: no such span)."""
        found = None
        for s in self.spans:
            if s["run"] == run and s["name"] == name:
                found = found or {}
                for k, v in s["counters"].items():
                    found[k] = found.get(k, 0) + v
        return found

    def dump(self, path, **extra) -> None:
        origin = min((s["start"] for s in self.spans), default=0.0)
        spans = [dict(s, start=s["start"] - origin, end=s["end"] - origin) for s in self.spans]
        with open(path, "w") as fh:
            json.dump({**extra, "spans": spans}, fh, indent=1)
