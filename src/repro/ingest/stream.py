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

import os
import threading
import time
from collections import deque
from collections.abc import Iterator
from pathlib import Path
from typing import BinaryIO, Callable, Protocol, runtime_checkable

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

    Rotation: each file is held open across polls, keyed by its device
    and inode, not by its name. A name that no longer shows a held file
    (renamed away, deleted, or now holding another file: a log rotated
    by rename and recreate) has the held file drained to its last
    complete line and closed, so records appended between the last poll
    and the rotation are read too. A file shorter than its offset
    (rotated by copy and truncate) is read from its start. ``close()``
    closes every held file.

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
        #: Per (st_dev, st_ino): the open file, its last name, its offset.
        self._files: dict[tuple[int, int], _SpoolFile] = {}
        self._carry: deque[ExtractionRecord] = deque()

    @property
    def exhausted(self) -> bool:
        return False

    def close(self) -> None:
        """Close every held file; a later poll opens them again."""
        for held in self._files.values():
            held.handle.close()
        self._files.clear()

    def poll(self, max_records: int) -> list[ExtractionRecord]:
        out: list[ExtractionRecord] = []
        while self._carry and len(out) < max_records:
            out.append(self._carry.popleft())
        if len(out) >= max_records:
            return out
        # One parser per poll: equal keys are one object across every
        # file the poll reads, and the memo is gone when it returns.
        parser = RecordParser()
        shown = {}
        for path in sorted(self._directory.glob(self._pattern)):
            try:
                shown[path] = os.stat(path)
            except FileNotFoundError:
                continue
        live = {(stat.st_dev, stat.st_ino) for stat in shown.values()}
        # A held file no name shows any more (renamed away, deleted or
        # replaced): its complete lines not yet read, then it is closed.
        gone = [self._files.pop(key) for key in list(self._files)
                if key not in live]
        batches = [held.drain(parser) for held in gone]
        batches += [self._tail_file(path, stat, parser)
                    for path, stat in shown.items()]
        for records in batches:
            for record in records:
                if len(out) < max_records:
                    out.append(record)
                else:
                    # Already parsed from the file (its offset has
                    # advanced past them); hold for the next poll.
                    self._carry.append(record)
        return out

    def _tail_file(
        self, path: Path, stat: os.stat_result, parser: RecordParser
    ) -> list[ExtractionRecord]:
        held = self._files.get((stat.st_dev, stat.st_ino))
        if held is None:
            # Binary mode: offsets are byte positions, and a torn
            # multibyte UTF-8 sequence at the tail must not raise
            # mid-decode. Identity and size are the open file's: the
            # name may be replaced between the stat and the open.
            try:
                handle = open(path, "rb")
            except FileNotFoundError:
                return []
            stat = os.fstat(handle.fileno())
            identity = (stat.st_dev, stat.st_ino)
            held = self._files.get(identity)
            if held is None:
                held = self._files[identity] = _SpoolFile(handle, path)
            else:
                handle.close()
        held.path = path
        if stat.st_size < held.offset:
            held.offset = 0
        if stat.st_size <= held.offset:
            return []
        return held.read(parser)


class _SpoolFile:
    """One spool file held open: the name it was last seen under and
    the byte offset of its first line not yet consumed."""

    __slots__ = ("handle", "path", "offset")

    def __init__(self, handle: BinaryIO, path: Path) -> None:
        self.handle = handle
        self.path = path
        self.offset = 0

    def read(self, parser: RecordParser) -> list[ExtractionRecord]:
        """The records of the complete lines past the offset, which
        then moves past them."""
        self.handle.seek(self.offset)
        lines = self.handle.read().split(b"\n")
        # Lines end at "\n" only, as in JSON Lines: a CR is whitespace
        # inside one (and the parser strips a "\r\n" ending). The last
        # piece is a partially written tail, or empty: it waits for the
        # next poll.
        lines.pop()
        records: list[ExtractionRecord] = []
        position = self.offset
        for raw_line in lines:
            record = parser.parse(raw_line, self.path, position, "byte ")
            position += len(raw_line) + 1
            if record is not None:
                records.append(record)
        self.offset = position
        return records

    def drain(self, parser: RecordParser) -> list[ExtractionRecord]:
        """:meth:`read`, then close the file."""
        with self.handle:
            return self.read(parser)


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
