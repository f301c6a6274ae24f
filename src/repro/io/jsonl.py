"""JSON Lines interchange for extraction records.

One record per line::

    {"extractor": ["sys", "pat", "capital", "geo.example"],
     "source": ["geo.example", "capital", "geo.example/fr.html"],
     "subject": "france", "predicate": "capital",
     "value": "paris", "confidence": 0.95}

Accepted shapes. ``extractor`` / ``source`` are the hierarchical feature
vectors (any prefix of their hierarchies): JSON *arrays of scalars*, each
feature stringified — a bare string is rejected, not read character by
character. An optional integer ``*_bucket`` restores split keys.
``subject``, ``predicate`` and ``value`` are JSON *scalars* (string,
number, boolean, null); subject and predicate are stringified, the value
is kept as it is — the same scalar rule
:func:`repro.io.artifact.save_artifact` applies, so whatever a reader
accepts a fitted model can be saved with. ``confidence`` is a number in
(0, 1] and defaults to 1.0.

Errors. Every reader raises :class:`ValueError` with the place and the
problem, ``<path>:<line>: invalid JSON`` or ``<path>:<line>: malformed
record: {...}`` (the spool tailer, which knows offsets rather than line
numbers, says ``<path>:byte <offset>: ...``). All of them parse through
one :class:`RecordParser`, which is also where equal keys become one
object.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    SourceKey,
)

#: The JSON scalar types: what a feature, a subject, a predicate or a
#: value may be on the way in, and what an artifact can carry.
SCALAR_TYPES = (str, int, float, bool, type(None))


def record_to_dict(record: ExtractionRecord) -> dict:
    """The JSON-serialisable form of one record."""
    out = {
        "extractor": list(record.extractor.features),
        "source": list(record.source.features),
        "subject": record.item.subject,
        "predicate": record.item.predicate,
        "value": record.value,
        "confidence": record.confidence,
    }
    if record.extractor.bucket is not None:
        out["extractor_bucket"] = record.extractor.bucket
    if record.source.bucket is not None:
        out["source_bucket"] = record.source.bucket
    return out


#: The one JSON decoding call site of every reader (see RecordParser.parse).
_decode_json = json.JSONDecoder().raw_decode


class RecordParser:
    """The one line -> record step, and the one place keys get an identity.

    Every reader — :func:`read_records`, :func:`read_record_chunks`, the
    spool tailer's poll (:mod:`repro.ingest.stream`), ``kbt ingest
    --stdin`` — owns a parser for the length of one read and pushes
    every line through :meth:`parse`. The parser remembers the keys it
    has built: a feature vector (+ bucket) or a ``(subject, predicate)``
    seen before returns the *same* validated
    :class:`~repro.core.types.ExtractorKey` /
    :class:`~repro.core.types.SourceKey` /
    :class:`~repro.core.types.DataItem` object, so a corpus holds one
    object per distinct key instead of three per record, and every dict
    downstream resolves a repeated key on the pointer comparison. The
    memo lives and dies with the parser: nothing is shared between
    reads, processes or threads, and there is nothing to evict.
    """

    __slots__ = ("_extractors", "_sources", "_items")

    def __init__(self) -> None:
        self._extractors: dict[tuple, ExtractorKey] = {}
        self._sources: dict[tuple, SourceKey] = {}
        self._items: dict[tuple[str, str], DataItem] = {}

    def parse(
        self, line: str | bytes, path, position: int, unit: str = ""
    ) -> ExtractionRecord | None:
        """One JSONL line as a record; ``None`` for a blank line.

        Any failure — undecodable bytes, invalid JSON, a record of the
        wrong shape — is a :class:`ValueError` reading
        ``path:position: problem``. ``position`` is a line number unless
        ``unit`` words it otherwise (the tailer passes ``"byte "`` and a
        file offset).
        """
        try:
            if isinstance(line, bytes):
                line = line.decode("utf-8")
            line = line.strip()
            if not line:
                return None
            # What json.loads does, minus its two whitespace scans —
            # a fifth of its time, with nothing to skip on a stripped
            # line: decode one value, refuse anything after it.
            data, end = _decode_json(line)
            if end != len(line):
                raise json.JSONDecodeError("Extra data", line, end)
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValueError(
                f"{path}:{unit}{position}: invalid JSON"
            ) from error
        try:
            return self.from_dict(data)
        except ValueError as error:
            raise ValueError(f"{path}:{unit}{position}: {error}") from error

    def from_dict(self, data: dict) -> ExtractionRecord:
        """One decoded JSON object as a record; ValueError if malformed."""
        try:
            extractor = _intern_key(
                self._extractors,
                ExtractorKey,
                data["extractor"],
                data.get("extractor_bucket"),
            )
            source = _intern_key(
                self._sources,
                SourceKey,
                data["source"],
                data.get("source_bucket"),
            )
            name = (data["subject"], data["predicate"])
            item = self._items.get(name)
            if item is None:
                name = (_scalar_str(name[0]), _scalar_str(name[1]))
                item = self._items.get(name)
                if item is None:
                    item = self._items[name] = DataItem(*name)
            value = data["value"]
            if type(value) not in SCALAR_TYPES:
                raise TypeError("value must be a JSON scalar")
            confidence = float(data.get("confidence", 1.0))
        except (KeyError, TypeError) as error:
            raise ValueError(f"malformed record: {data!r}") from error
        return ExtractionRecord(extractor, source, item, value, confidence)


# How the memos stay sound while being asked with *raw* JSON values: they
# are keyed by the coerced form — strings only — and a raw tuple can equal
# a tuple of strings only if it holds strings itself (a number never
# equals a string; an array or object is unhashable, a TypeError). So a
# hit needs no validation and no coercion, and everything else — the
# first sight of a key, or features like ``1`` and ``true``, which are
# equal to each other but stringify differently — takes the checked,
# coerced path and is looked up again under its strings.
def _intern_key(memo: dict, kind, features, bucket):
    """The one ``kind`` key for a feature array (+ bucket) within ``memo``."""
    if type(features) is not list:
        raise TypeError("features must be an array")
    if bucket is not None and type(bucket) is not int:
        raise TypeError("a bucket must be an integer")
    name = (tuple(features), bucket)
    key = memo.get(name)
    if key is None:
        name = (tuple(map(_scalar_str, features)), bucket)
        key = memo.get(name)
        if key is None:
            key = memo[name] = kind(*name)
    return key


def _scalar_str(scalar) -> str:
    if type(scalar) not in SCALAR_TYPES:
        raise TypeError("expected a JSON scalar")
    return str(scalar)


def record_from_dict(data: dict) -> ExtractionRecord:
    """Parse one record; raises ValueError on malformed input."""
    return RecordParser().from_dict(data)


def write_records(
    records: Iterable[ExtractionRecord], path: str | Path
) -> int:
    """Write records as JSONL; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record_to_dict(record)))
            handle.write("\n")
            count += 1
    return count


def read_records(path: str | Path) -> Iterator[ExtractionRecord]:
    """Stream records from a JSONL file (blank lines are skipped).

    Equal keys are the same object across the whole file (see
    :class:`RecordParser`).
    """
    parser = RecordParser()
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            record = parser.parse(line, path, line_number)
            if record is not None:
                yield record


def read_record_chunks(
    path: str | Path, chunk_size: int = 50_000
) -> Iterator[list[ExtractionRecord]]:
    """Stream a JSONL file as bounded record chunks.

    The reader for tailers of a file that is still being appended to:
    concatenating the chunks reproduces :func:`read_records` exactly —
    key identity included, one parser serves every chunk — but no more
    than ``chunk_size`` parsed records exist at once.

    Unlike :func:`read_records` (the strict reader every batch ``kbt
    fit`` goes through), a *partially written trailing line* —
    truncated JSON at EOF with no terminating newline, as produced by a
    writer appending to the file concurrently (a live spool) — is not
    an error: the chunks up to the last complete record are returned
    cleanly and a tailer can resume from there. A malformed
    line *inside* the file (newline-terminated garbage) still raises,
    since no further append can ever complete it.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    parser = RecordParser()
    chunk: list[ExtractionRecord] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            try:
                record = parser.parse(line, path, line_number)
            except ValueError:
                if not line.endswith("\n"):
                    # The file's final bytes are a record still being
                    # written; stop at the last complete one. That holds
                    # for a torn tail that parses as JSON on its own too
                    # (the "1" of an in-flight "12345"): only a
                    # newline-terminated record is trusted to be whole.
                    break
                raise
            if record is None:
                continue
            chunk.append(record)
            if len(chunk) >= chunk_size:
                yield chunk
                chunk = []
    if chunk:
        yield chunk
