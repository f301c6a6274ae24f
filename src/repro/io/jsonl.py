"""JSON Lines interchange for extraction records.

One record per line::

    {"extractor": ["sys", "pat", "capital", "geo.example"],
     "source": ["geo.example", "capital", "geo.example/fr.html"],
     "subject": "france", "predicate": "capital",
     "value": "paris", "confidence": 0.95}

Accepted shapes. ``extractor`` / ``source`` are the hierarchical feature
vectors (any prefix of their hierarchies): JSON *arrays of scalars*, each
feature stringified — a bare string is rejected, not read character by
character. An optional integer ``*_bucket`` (``>= 0``) restores split
keys.
``subject``, ``predicate`` and ``value`` are JSON *scalars* (string,
number, boolean, null); subject and predicate are stringified, the value
is kept as it is — the same scalar rule
:func:`repro.io.artifact.save_artifact` applies, so whatever a reader
accepts a fitted model can be saved with; a string must be valid
Unicode, so a lone surrogate escape (``"\\ud800"``) is refused.
``confidence`` is a JSON number (not a string, not a boolean) in (0, 1]
and defaults to 1.0.

Errors. Every reader raises :class:`ValueError` with the place and the
problem, ``<path>:<line>: invalid JSON`` or ``<path>:<line>: malformed
record: {...}`` (the spool tailer, which knows offsets rather than line
numbers, says ``<path>:byte <offset>: ...``). All of them frame lines
through one :class:`JsonlLines` and parse them with one
:class:`RecordParser`, which is also where equal keys become one
object.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path

from repro import obs
from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    SourceKey,
    new_record,
)
from repro.util.heap import paused_gc

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

    Every reader — :func:`read_records`, the spool tailer's poll
    (:mod:`repro.ingest.stream`), ``kbt ingest --stdin`` — owns a
    parser for the length of one read, and its :class:`JsonlLines`
    pushes every line through :meth:`parse`. The parser remembers the
    keys it has built: a feature vector (+ bucket) or a ``(subject,
    predicate)`` seen before returns the *same* validated
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

    def parse(self, line: bytes) -> ExtractionRecord | None:
        """One JSONL line's bytes as a record; ``None`` for a blank line.
        Undecodable bytes, invalid JSON or a record of the wrong shape
        is a :class:`ValueError` without the place (:class:`JsonlLines`
        names it)."""
        try:
            text = line.decode("utf-8").strip()
            if not text:
                return None
            # What json.loads does, minus its two whitespace scans —
            # a fifth of its time, with nothing to skip on a stripped
            # line: decode one value, refuse anything after it.
            data, end = _decode_json(text)
            if end != len(text):
                raise json.JSONDecodeError("Extra data", text, end)
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValueError("invalid JSON") from error
        return self.from_dict(data)

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
            if type(value) is str:
                if not value.isascii():
                    value.encode("utf-8")  # a lone surrogate raises
            elif type(value) not in SCALAR_TYPES:
                raise TypeError("value must be a JSON scalar")
            confidence = data.get("confidence", 1.0)
            if type(confidence) is not float:
                # A JSON number: not a string float() would parse, and
                # not a boolean, although bool subclasses int.
                if type(confidence) is not int:
                    raise TypeError("confidence must be a JSON number")
                confidence = float(confidence)
        except (
            KeyError, TypeError, OverflowError, UnicodeEncodeError
        ) as error:
            raise ValueError(f"malformed record: {data!r}") from error
        if not 0.0 < confidence <= 1.0:
            raise ValueError(f"confidence must be in (0, 1], got {confidence}")
        return new_record(
            ExtractionRecord, (extractor, source, item, value, confidence)
        )


# How the memos stay sound while being asked with *raw* JSON values: they
# are keyed by the coerced form — strings only — and a raw tuple can equal
# a tuple of strings only if it holds strings itself (a number never
# equals a string; an array or object is unhashable, a TypeError). So a
# hit needs no validation and no coercion (the UTF-8 check included: a
# string that fails it never becomes a key), and everything else — the
# first sight of a key, or features like ``1`` and ``true``, which are
# equal to each other but stringify differently — takes the checked,
# coerced path and is looked up again under its strings.
def _intern_key(memo: dict, kind, features, bucket):
    """The one ``kind`` key for a feature array (+ bucket) within ``memo``."""
    if type(features) is not list:
        raise TypeError("features must be an array")
    if bucket is not None and (type(bucket) is not int or bucket < 0):
        # A split bucket is an index: the artifact writer refuses a
        # negative one, so the reader does, naming the line.
        raise TypeError("a bucket must be an integer >= 0")
    name = (tuple(features), bucket)
    key = memo.get(name)
    if key is None:
        name = (tuple(map(_scalar_str, features)), bucket)
        key = memo.get(name)
        if key is None:
            key = memo[name] = kind(*name)
    return key


def _scalar_str(scalar) -> str:
    if type(scalar) is str:
        if not scalar.isascii():
            scalar.encode("utf-8")  # a lone surrogate raises
        return scalar
    if type(scalar) not in SCALAR_TYPES:
        raise TypeError("expected a JSON scalar")
    return str(scalar)


def record_from_dict(data: dict) -> ExtractionRecord:
    """Parse one record; raises ValueError on malformed input."""
    return RecordParser().from_dict(data)


def write_records(
    records: Iterable[ExtractionRecord], path: str | Path
) -> int:
    """Write records as JSONL; returns the number written.

    Each line is, byte for byte, what ``json.dumps`` writes for the
    record's :func:`record_to_dict`, and a newline. The JSON of each key
    object — an extractor's or a source's feature array and bucket, an
    item's subject and predicate — is encoded once per call: keys are
    remembered by identity and held while remembered, so equal but
    distinct key objects are each encoded, never confused. A value or a
    confidence is encoded on every line (see :func:`_scalar_json`), so
    ``1``, ``1.0`` and ``True`` stay apart. The memos live and die with
    the call and start over past ``_MEMO_KEYS`` entries. Lines reach the
    file ``_WRITE_LINES`` at a time; a record that fails to encode
    raises after the lines before it are written.
    """
    extractors: dict[int, tuple] = {}
    sources: dict[int, tuple] = {}
    items: dict[int, tuple] = {}
    lines: list[str] = []
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        try:
            for extractor, source, item, value, confidence in records:
                if len(lines) == _WRITE_LINES:
                    block = "".join(lines)
                    lines.clear()
                    handle.write(block)
                    for memo in (extractors, sources, items):
                        if len(memo) > _MEMO_KEYS:
                            memo.clear()
                head = extractors.get(id(extractor))
                if head is None:
                    head = extractors[id(extractor)] = _key_json(
                        extractor, '{"extractor": ', "extractor"
                    )
                body = sources.get(id(source))
                if body is None:
                    body = sources[id(source)] = _key_json(
                        source, ', "source": ', "source"
                    )
                names = items.get(id(item))
                if names is None:
                    names = items[id(item)] = (
                        item,
                        f', "subject": {_str_json(item.subject)}'
                        f', "predicate": {_str_json(item.predicate)}'
                        ', "value": ',
                    )
                lines.append(
                    f"{head[1]}{body[1]}{names[1]}{_scalar_json(value)}"
                    f', "confidence": {_scalar_json(confidence)}'
                    f"{head[2]}{body[2]}}}\n"
                )
                count += 1
        finally:
            handle.write("".join(lines))
    return count


#: Lines :func:`write_records` joins into one write, and the keys a memo
#: of it holds before it is emptied (a streamed write of a huge corpus
#: must not keep every key it has seen alive).
_WRITE_LINES = 1024
_MEMO_KEYS = 1 << 16

_dumps = json.dumps
#: What ``json.dumps`` writes for a ``str``, at any depth.
_encode_str = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
_INFINITY = float("inf")


def _str_json(text) -> str:
    """``json.dumps(text)``, straight from the string encoder it uses."""
    try:
        return _encode_str(text)
    except TypeError:  # not a string
        return _dumps(text)


def _key_json(key, opening: str, field: str) -> tuple:
    """``(key, opening + its feature array, its bucket member or "")``:
    the key is held so that its id is not reused while remembered."""
    try:
        array = f"[{', '.join(map(_encode_str, key.features))}]"
    except TypeError:  # a feature that is not a string
        array = _dumps(list(key.features))
    bucket = (
        "" if key.bucket is None
        else f', "{field}_bucket": {_dumps(key.bucket)}'
    )
    return (key, opening + array, bucket)


def _scalar_json(scalar) -> str:
    """``json.dumps(scalar)``: a ``str`` through the string encoder, a
    finite ``float`` as its ``repr`` (what the encoder writes, and
    ``-0.0`` stays ``-0.0``), anything else through ``json.dumps``."""
    kind = scalar.__class__
    if kind is str:
        return _encode_str(scalar)
    if kind is float and -_INFINITY < scalar < _INFINITY:
        return _float_repr(scalar)
    return _dumps(scalar)


#: Bytes a reader takes per read — of a file, of a spool file past its
#: offset, of stdin — and ``read_records`` parses per collector pause.
#: Reads of 1 MiB took as long and raised a cold read's peak RSS by
#: 4 MB on the 5.5 MB e2e corpus.
_BLOCK_BYTES = 1 << 16


class JsonlLines:
    """The one place JSONL bytes become lines, and lines records: split
    at ``b"\n"`` only (a CR is whitespace inside a line), a torn piece
    carried to the next block, each line decoded on its own and parsed
    by ``parser``. A bad line raises ``path:LINE: problem`` after the
    records before it. From a byte ``offset`` (the spool tailer), errors
    name ``path:byte N``, a torn last line waits for the rest and
    :attr:`offset` stands past the last complete line; otherwise the
    stream's end ends its last line.
    """

    __slots__ = ("path", "offset", "_parser", "_unit", "_line")

    def __init__(
        self, path, parser: RecordParser, offset: int | None = None
    ) -> None:
        self.path = path
        self.offset = offset or 0
        self._parser = parser
        self._unit = "" if offset is None else "byte "
        self._line = 1  # the number of the first line not yet parsed

    def blocks(
        self, read: Callable[[int], bytes]
    ) -> Iterator[list[ExtractionRecord]]:
        """The records of each ``read(_BLOCK_BYTES)`` until ``b""``."""
        tail = b""
        while data := read(_BLOCK_BYTES):
            lines = data.split(b"\n")
            lines[0] = tail + lines[0]
            tail = lines.pop()
            yield from self._parse(lines)
        if tail and not self._unit:
            yield from self._parse([tail])

    def _parse(self, lines: list[bytes]) -> Iterator[list[ExtractionRecord]]:
        records: list[ExtractionRecord] = []
        for index, line in enumerate(lines):
            try:
                record = self._parser.parse(line)
            except ValueError as error:
                yield records
                position = self._line + index if not self._unit else (
                    self.offset + sum(map(len, lines[:index])) + index
                )
                raise ValueError(
                    f"{self.path}:{self._unit}{position}: {error}"
                ) from error
            if record is not None:
                records.append(record)
        self._line += len(lines)
        self.offset += sum(map(len, lines)) + len(lines)
        yield records


def read_records(path: str | Path) -> Iterator[ExtractionRecord]:
    """Stream records from a JSONL file (blank lines are skipped).

    Equal keys are the same object across the whole file (see
    :class:`RecordParser`). :class:`JsonlLines` frames it, one block per
    pause of the cyclic collector; every record before a malformed line
    is yielded before its ``ValueError``.
    """
    with open(path, "rb") as handle:
        blocks = JsonlLines(path, RecordParser()).blocks(handle.read)
        while True:
            with obs.span("io.jsonl.read"), paused_gc():
                records = next(blocks, None)
            if records is None:
                return
            yield from records
