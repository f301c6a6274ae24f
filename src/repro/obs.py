"""Spans inside the layers from records to served: stdlib only, off by default.

``span(name)`` times the block it wraps when a :class:`Recorder` is
installed (:func:`installed`), and otherwise returns one shared no-op
object: a module-global check, no clock read, nothing allocated. The
layers call it around their own work, so a per-layer number is read
from inside ``src/`` and keeps its meaning when code moves:

* ``io.jsonl.read`` (each block read and parsed), ``core.observation.build``
  (the matrix fold, reading included), ``core.kbt.fit``,
  ``core.indexing.compile``, ``exec.plan.build``;
* per EM iteration, ``em.map`` (the map round as the driver sees it),
  inside it ``em.extcorr`` and ``em.triplepr`` (the map task's C and V
  steps; only where the task runs in this process: ``serial`` and
  ``threads``), then ``em.srcaccu`` and ``em.extquality`` (the reduce
  and M step of theta_1 and theta_2) and ``em.prior`` (Eq. 26);
* ``core.engine_numpy.assemble``, ``core.kbt.save`` and inside it
  ``io.artifact.save`` (``.columns``, ``.keys``, ``.members``),
  ``io.mmap_layout.serving_columns``, ``io.mmap_layout.etag`` and
  ``io.mmap_layout.write``; ``serving.store.open``; with a checkpoint
  directory, ``exec.checkpoint.save`` around each checkpoint written.

The driver adds one :func:`event` per EM iteration (the deltas and the
claims whose ``p(C|X)`` crossed 0.5), and :meth:`Recorder.write` closes
a trace with the paper's Table 7 from these timings: the mean seconds
per stage per iteration. ``kbt fit --trace FILE`` is the one switch.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

#: The installed recorder; None (the default) turns every span off.
_recorder: "Recorder | None" = None

#: Table 7's MapReduce stages and the spans that time them.
TABLE7_STAGES = {
    "I ExtCorr": "em.extcorr",
    "II TriplePr": "em.triplepr",
    "III SrcAccu": "em.srcaccu",
    "IV ExtQuality": "em.extquality",
    "map round": "em.map",
}


class _Off:
    """The span of a process that records nothing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_OFF = _Off()


class _Span:
    __slots__ = ("_recorder", "_name", "_parent", "_start")

    def __init__(self, recorder: "Recorder", name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> None:
        stack = self._recorder._stack()
        self._parent = stack[-1] if stack else None
        stack.append(self._name)
        self._start = time.perf_counter()

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter()
        self._recorder._stack().pop()
        self._recorder.spans.append(
            (self._name, self._parent, self._start, end)
        )


def span(name: str):
    """A context manager timing its block as ``name`` (no-op when off)."""
    recorder = _recorder
    if recorder is None:
        return _OFF
    return _Span(recorder, name)


def spanned(name: str):
    """Decorate a function to run inside ``span(name)``."""

    def decorate(function):
        @functools.wraps(function)
        def timed(*args, **kwargs):
            with span(name):
                return function(*args, **kwargs)

        return timed

    return decorate


def recording() -> bool:
    """Whether a recorder is installed: guard work done only for one."""
    return _recorder is not None


def event(**fields) -> None:
    """Record one trace line of ``fields`` (no-op when off)."""
    recorder = _recorder
    if recorder is not None:
        recorder.events.append(fields)


class Recorder:
    """What the spans and events of one run recorded, in order.

    ``spans`` holds ``(name, parent, start, end)`` tuples: ``parent`` is
    the span that was open on the same thread, so a reader can take
    self times; ``start`` / ``end`` are ``time.perf_counter`` seconds.
    Appends are single list operations, so threads may share it.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, str | None, float, float]] = []
        self.events: list[dict] = []
        self._local = threading.local()
        self._origin = time.perf_counter()

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def table7(self) -> dict:
        """Mean seconds per stage per EM iteration (None: not timed in
        this process, e.g. the map task under ``processes``)."""
        iterations = sum("iteration" in line for line in self.events)
        totals = dict.fromkeys(TABLE7_STAGES.values(), 0.0)
        seen = set()
        for name, _parent, start, end in self.spans:
            if name in totals:
                totals[name] += end - start
                seen.add(name)
        return {
            "iterations": iterations,
            "seconds_per_iteration": {
                stage: totals[name] / iterations
                if iterations and name in seen
                else None
                for stage, name in TABLE7_STAGES.items()
            },
        }

    def lines(self) -> Iterator[dict]:
        """The trace: one line per span, then one per event, then
        Table 7."""
        for name, parent, start, end in self.spans:
            yield {
                "span": name,
                "parent": parent,
                "start_s": start - self._origin,
                "seconds": end - start,
            }
        yield from self.events
        yield {"table7": self.table7()}

    def write(self, path: str | Path) -> None:
        """Write :meth:`lines` to ``path`` as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for line in self.lines():
                handle.write(json.dumps(line) + "\n")


@contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Record every span and event into ``recorder`` for the block."""
    global _recorder
    previous, _recorder = _recorder, recorder
    try:
        yield recorder
    finally:
        _recorder = previous


__all__ = [
    "Recorder",
    "TABLE7_STAGES",
    "event",
    "installed",
    "recording",
    "span",
    "spanned",
]
