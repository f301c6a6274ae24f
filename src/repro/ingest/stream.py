"""Record sources and micro-batching for the live ingest pipeline.

The continuous pipeline consumes :class:`~repro.core.types.ExtractionRecord`
streams from wherever extraction happens to land them. Two built-in
sources cover the common cases:

* :class:`SpoolDirectorySource` tails a directory of JSONL spool files
  that a separate extractor process appends to. It is *tail-safe*: a
  partially written trailing line (the extractor mid-``write``) is left
  in place and re-read on the next poll once its newline arrives.
* :class:`QueueRecordSource` is an in-memory handoff for tests, for the
  ``kbt ingest --stdin`` reader thread, and for embedding the pipeline
  in another process.

The :class:`MicroBatcher` sits on top of either and groups records into
batches, flushing on **max-records or max-latency, whichever comes
first** — a full batch never waits, and a trickle never waits longer
than the latency bound.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Iterator
from pathlib import Path
from typing import Callable, Protocol, runtime_checkable

from repro.core.types import ExtractionRecord
from repro.io.jsonl import RecordParser


@runtime_checkable
class RecordSource(Protocol):
    """Anything the batcher can pull extraction records from.

    ``poll`` returns at most ``max_records`` records that arrived since
    the last poll (possibly none); ``exhausted`` turns true once the
    source can never produce another record, letting the batcher drain
    and stop instead of spinning forever.
    """

    def poll(self, max_records: int) -> list[ExtractionRecord]: ...

    @property
    def exhausted(self) -> bool: ...


class QueueRecordSource:
    """An in-memory source fed by ``push`` from any thread.

    ``close()`` marks the end of the stream: the source drains whatever
    is queued and then reports ``exhausted``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._queue: deque[ExtractionRecord] = deque()
        self._closed = False

    def push(self, records) -> None:
        """Enqueue one record or an iterable of records."""
        if isinstance(records, ExtractionRecord):
            records = [records]
        with self._lock:
            if self._closed:
                raise RuntimeError("QueueRecordSource is closed")
            self._queue.extend(records)

    def close(self) -> None:
        with self._lock:
            self._closed = True

    def poll(self, max_records: int) -> list[ExtractionRecord]:
        out: list[ExtractionRecord] = []
        with self._lock:
            while self._queue and len(out) < max_records:
                out.append(self._queue.popleft())
        return out

    @property
    def exhausted(self) -> bool:
        with self._lock:
            return self._closed and not self._queue


class SpoolDirectorySource:
    """Tail every ``*.jsonl`` file in a spool directory.

    Files are processed in sorted-filename order and each file's read
    position is remembered as a byte offset, so appends to any file —
    including one already visited — are picked up on the next poll. New
    files appearing in the directory join the rotation automatically.

    Tail safety: lines are consumed only once newline-terminated. A
    truncated final line (a writer caught mid-append) stays unconsumed —
    the offset does not advance past it — and is re-read whole on a
    later poll. A newline-*terminated* line that fails to parse raises
    :class:`ValueError` immediately, since no further append can ever
    repair it.

    The source is never ``exhausted``: a spool directory is by
    definition open-ended. ``kbt ingest --watch`` stops on signal, and
    tests bound the run with ``max_batches``.
    """

    def __init__(self, directory: str | Path, pattern: str = "*.jsonl") -> None:
        self._directory = Path(directory)
        if not self._directory.is_dir():
            raise ValueError(
                f"spool directory does not exist: {self._directory}"
            )
        self._pattern = pattern
        self._offsets: dict[Path, int] = {}
        self._carry: deque[ExtractionRecord] = deque()

    @property
    def exhausted(self) -> bool:
        return False

    def poll(self, max_records: int) -> list[ExtractionRecord]:
        out: list[ExtractionRecord] = []
        while self._carry and len(out) < max_records:
            out.append(self._carry.popleft())
        if len(out) >= max_records:
            return out
        # One parser per poll: equal keys are one object across every
        # file the poll reads, and the memo is gone when it returns.
        parser = RecordParser()
        for path in sorted(self._directory.glob(self._pattern)):
            for record in self._tail_file(path, parser):
                if len(out) < max_records:
                    out.append(record)
                else:
                    # Already parsed from the file (its offset has
                    # advanced past them); hold for the next poll.
                    self._carry.append(record)
        return out

    def _tail_file(
        self, path: Path, parser: RecordParser
    ) -> list[ExtractionRecord]:
        offset = self._offsets.get(path, 0)
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            return []
        if size <= offset:
            return []
        # Binary mode: offsets are byte positions, and a torn multibyte
        # UTF-8 sequence at the tail must not raise mid-decode.
        with open(path, "rb") as handle:
            handle.seek(offset)
            data = handle.read()
        records: list[ExtractionRecord] = []
        consumed = 0
        for raw_line in data.splitlines(keepends=True):
            if not raw_line.endswith(b"\n"):
                # Partially written tail: leave it for the next poll.
                break
            record = parser.parse(raw_line, path, offset + consumed, "byte ")
            consumed += len(raw_line)
            if record is not None:
                records.append(record)
        self._offsets[path] = offset + consumed
        return records


class MicroBatcher:
    """Group a source's records into batches by size or latency.

    ``batches()`` yields non-empty lists of records. A batch is flushed
    as soon as it reaches ``max_records``, or once ``max_latency``
    seconds have passed since its first record arrived — whichever
    comes first. Between polls the batcher sleeps ``poll_interval``
    seconds.

    ``stop()`` (thread-safe, signal-handler-safe) requests a clean
    drain: the generator pulls whatever the source already holds,
    flushes the pending partial batch, and returns — nothing received
    before the stop is dropped. The generator also ends on its own
    when the source is exhausted.

    ``clock`` and ``sleep`` are injectable for deterministic tests.
    """

    def __init__(
        self,
        source: RecordSource,
        max_records: int = 500,
        max_latency: float = 2.0,
        poll_interval: float = 0.05,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_records < 1:
            raise ValueError(f"max_records must be >= 1, got {max_records}")
        if max_latency <= 0:
            raise ValueError(f"max_latency must be > 0, got {max_latency}")
        if poll_interval <= 0:
            raise ValueError(
                f"poll_interval must be > 0, got {poll_interval}"
            )
        self._source = source
        self._max_records = max_records
        self._max_latency = max_latency
        self._poll_interval = min(poll_interval, max_latency)
        self._clock = clock
        self._sleep = sleep
        self._stopped = threading.Event()

    def stop(self) -> None:
        """Request a clean drain (flush pending records, then end)."""
        self._stopped.set()

    @property
    def stopped(self) -> bool:
        return self._stopped.is_set()

    def batches(self) -> Iterator[list[ExtractionRecord]]:
        pending: list[ExtractionRecord] = []
        deadline: float | None = None
        while True:
            if self._stopped.is_set():
                # Clean drain: flush everything the source already has
                # (full batches first), then the pending remainder.
                while True:
                    got = self._source.poll(
                        self._max_records - len(pending)
                    )
                    pending.extend(got)
                    if len(pending) >= self._max_records:
                        yield pending
                        pending = []
                        continue
                    if not got:
                        break
                if pending:
                    yield pending
                return
            got = self._source.poll(self._max_records - len(pending))
            if got:
                if not pending:
                    deadline = self._clock() + self._max_latency
                pending.extend(got)
            if pending and (
                len(pending) >= self._max_records
                or self._clock() >= deadline
            ):
                yield pending
                pending = []
                deadline = None
                continue
            if not got:
                if self._source.exhausted:
                    if pending:
                        yield pending
                    return
                self._sleep(self._poll_interval)


__all__ = [
    "MicroBatcher",
    "QueueRecordSource",
    "RecordSource",
    "SpoolDirectorySource",
]
