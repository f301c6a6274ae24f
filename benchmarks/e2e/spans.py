"""In-memory spans around calls into each layer, recorded from outside.

The benchmark times public functions of ``repro`` from its own files
(spans inside ``src/repro`` are a later change). A span is
``(id, name, parent, start, end, workload, rep)``; spans of one
repetition share ``rep``. Nothing is written until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Span recorder; a disabled tracer makes :meth:`span` a no-op."""

    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, rep: int | None = None, count: int = 1):
        """Time one layer call (or a loop of ``count`` identical calls)."""
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "rep": rep if rep is not None else self._inherited_rep(),
            "count": count,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _inherited_rep(self) -> int | None:
        return self.spans[self._stack[-1]]["rep"] if self._stack else None

    def self_seconds(self, name: str) -> list[float]:
        """Self time per call of every span called ``name``.

        Self time is the span's duration minus the part its child spans
        cover; a span over a loop of ``count`` calls reports the mean.
        """
        covered: dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] = covered.get(
                    span["parent"], 0.0
                ) + (span["end"] - span["start"])
        return [
            (span["end"] - span["start"] - covered.get(span["id"], 0.0))
            / span["count"]
            for span in self.spans
            if span["name"] == name
        ]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
