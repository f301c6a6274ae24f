"""Core value types: data items, triples, source/extractor keys, records,
and the KBT score a fit reports and a store serves.

The paper's observation matrix is indexed by four coordinates (Table 1):
an extractor ``e``, a web source ``w``, a data item ``d`` and a value ``v``.
Sources and extractors are identified by *hierarchical feature vectors*
(Section 4), ordered from most general to most specific:

* sources:    ``<website, predicate, webpage>``
* extractors: ``<extractor, pattern, predicate, website>``

A key may be truncated to any prefix of its feature vector (a coarser
granularity) and may carry a split-bucket index when a too-large source or
extractor has been partitioned by SPLITANDMERGE.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import itemgetter
from typing import ClassVar, Hashable

#: Values extracted for a data item. Entity ids, strings, numbers and dates
#: all appear as values; anything hashable is accepted.
Value = Hashable

#: How the frozen key classes below assign their slots in ``__init__``.
_set = object.__setattr__


class _HashOnce:
    """Base of the three key types: the hash is computed once, in ``__init__``.

    Keys are dict and set members in every layer between the JSONL reader
    and the artifact writer, so ``__hash__`` is by far their hottest
    method. Each key class stores ``hash((field, ...))`` — the value the
    dataclass-generated ``__hash__`` would return, so every set and dict
    iterates as it always did — in the ``_hash`` slot and returns it.

    ``_hash`` is not a dataclass field: it takes no part in ``__eq__``,
    ``__repr__``, :func:`dataclasses.fields` or :func:`dataclasses.replace`.
    It must also never leave the process — ``str`` hashes are salted per
    interpreter (``PYTHONHASHSEED``), and keys do travel: ``spawn``-started
    workers, user pickles. So pickling and copying rebuild a key through
    its constructor from the public fields, which recomputes the hash
    where the key lands.
    """

    __slots__ = ("_hash",)

    def __reduce__(self):
        return (
            self.__class__,
            tuple(getattr(self, field.name) for field in fields(self)),
        )


@dataclass(frozen=True, slots=True, init=False)
class DataItem(_HashOnce):
    """A (subject, predicate) pair describing one aspect of an entity."""

    subject: str
    predicate: str

    def __init__(self, subject: str, predicate: str) -> None:
        _set(self, "subject", subject)
        _set(self, "predicate", predicate)
        _set(self, "_hash", hash((subject, predicate)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"({self.subject}, {self.predicate})"


@dataclass(frozen=True, slots=True)
class Triple:
    """A (subject, predicate, object) knowledge triple."""

    subject: str
    predicate: str
    value: Value

    @property
    def item(self) -> DataItem:
        """The (subject, predicate) data item this triple provides a value for."""
        return DataItem(self.subject, self.predicate)

    def __str__(self) -> str:
        return f"({self.subject}, {self.predicate}, {self.value})"


@dataclass(frozen=True, slots=True, init=False)
class SourceKey(_HashOnce):
    """Identity of a web source at some granularity.

    ``features`` is a prefix of ``<website, predicate, webpage>``; ``bucket``
    is set when the source was split into uniform sub-sources (Section 4).
    """

    features: tuple[str, ...]
    bucket: int | None = None

    #: Feature names, most general first (Section 4).
    HIERARCHY: ClassVar[tuple[str, ...]] = ("website", "predicate", "webpage")

    def __init__(
        self, features: tuple[str, ...], bucket: int | None = None
    ) -> None:
        if not 1 <= len(features) <= 3:
            raise ValueError(
                f"source key needs 1-3 features, got {features!r}"
            )
        _set(self, "features", features)
        _set(self, "bucket", bucket)
        _set(self, "_hash", hash((features, bucket)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def website(self) -> str:
        return self.features[0]

    @property
    def level(self) -> int:
        """Granularity level: 1=website, 2=+predicate, 3=+webpage."""
        return len(self.features)

    def parent(self) -> "SourceKey | None":
        """The key one level more general, or None at the top of the hierarchy.

        A split bucket's parent is the unsplit key at the same level.
        """
        if self.bucket is not None:
            return SourceKey(self.features)
        if len(self.features) == 1:
            return None
        return SourceKey(self.features[:-1])

    def child_bucket(self, bucket: int) -> "SourceKey":
        """A sub-source produced by splitting this key."""
        if self.bucket is not None:
            raise ValueError("cannot split an already-split source")
        return SourceKey(self.features, bucket=bucket)

    def __str__(self) -> str:
        body = ", ".join(self.features)
        if self.bucket is not None:
            return f"<{body}>#{self.bucket}"
        return f"<{body}>"


@dataclass(frozen=True, slots=True)
class KBTScore:
    """A trustworthiness estimate for one source aggregate.

    ``score`` is the accuracy A (probability a provided fact is correct);
    ``support`` is the expected number of correctly extracted triples that
    the estimate rests on.
    """

    key: object
    score: float
    support: float


@dataclass(frozen=True, slots=True, init=False)
class ExtractorKey(_HashOnce):
    """Identity of an extractor at some granularity.

    ``features`` is a prefix of ``<extractor, pattern, predicate, website>``.
    """

    features: tuple[str, ...]
    bucket: int | None = None

    HIERARCHY: ClassVar[tuple[str, ...]] = (
        "extractor",
        "pattern",
        "predicate",
        "website",
    )

    def __init__(
        self, features: tuple[str, ...], bucket: int | None = None
    ) -> None:
        if not 1 <= len(features) <= 4:
            raise ValueError(
                f"extractor key needs 1-4 features, got {features!r}"
            )
        _set(self, "features", features)
        _set(self, "bucket", bucket)
        _set(self, "_hash", hash((features, bucket)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def system(self) -> str:
        """The extraction system name (most general feature)."""
        return self.features[0]

    @property
    def level(self) -> int:
        return len(self.features)

    def parent(self) -> "ExtractorKey | None":
        if self.bucket is not None:
            return ExtractorKey(self.features)
        if len(self.features) == 1:
            return None
        return ExtractorKey(self.features[:-1])

    def child_bucket(self, bucket: int) -> "ExtractorKey":
        if self.bucket is not None:
            raise ValueError("cannot split an already-split extractor")
        return ExtractorKey(self.features, bucket=bucket)

    def __str__(self) -> str:
        body = ", ".join(self.features)
        if self.bucket is not None:
            return f"<{body}>#{self.bucket}"
        return f"<{body}>"


def page_source(website: str, predicate: str, url: str) -> SourceKey:
    """The finest-granularity source key used in the paper's experiments."""
    return SourceKey((website, predicate, url))


def website_source(website: str) -> SourceKey:
    """A whole-website source key (coarsest granularity)."""
    return SourceKey((website,))


def pattern_extractor(
    system: str, pattern: str, predicate: str, website: str
) -> ExtractorKey:
    """The finest-granularity extractor key used in the paper's experiments."""
    return ExtractorKey((system, pattern, predicate, website))


#: ``new_record(ExtractionRecord, (extractor, source, item, value,
#: confidence))`` builds a record in one C call, with no constructor frame
#: and no check: for callers that checked the confidence themselves (the
#: JSONL parser) or copy it from a cell that was checked on the way in.
new_record = tuple.__new__


def _unordered(self, other):
    # Raised, not NotImplemented: Python would then fall back to the
    # other operand's method, and a plain tuple orders against a record.
    raise TypeError(f"{type(self).__name__} records have no order")


class ExtractionRecord(tuple):
    """One observed extraction: extractor ``e`` saw value ``v`` for ``d`` on ``w``.

    ``confidence`` is the extractor's probability that the triple is present
    on the page (Section 3.5); binary extractors report 1.0.

    A record is the immutable tuple ``(extractor, source, item, value,
    confidence)`` with a property per field: a corpus builds one per
    extraction, and a tuple is built and unpacked in C. Otherwise it keeps
    the surface of a frozen dataclass: keyword or positional construction,
    the confidence check, the ``repr``, ``__match_args__``, pickling and
    copying through the constructor, and the hash of its field tuple. It
    equals only another record, never a plain tuple of the same fields,
    and has no order.
    """

    __slots__ = ()
    __match_args__ = ("extractor", "source", "item", "value", "confidence")

    def __new__(
        cls,
        extractor: ExtractorKey,
        source: SourceKey,
        item: DataItem,
        value: Value,
        confidence: float = 1.0,
    ) -> "ExtractionRecord":
        if not 0.0 < confidence <= 1.0:
            raise ValueError(f"confidence must be in (0, 1], got {confidence}")
        return new_record(cls, (extractor, source, item, value, confidence))

    extractor: ExtractorKey = property(itemgetter(0))
    source: SourceKey = property(itemgetter(1))
    item: DataItem = property(itemgetter(2))
    value: Value = property(itemgetter(3))
    confidence: float = property(itemgetter(4))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        # False rather than NotImplemented for any other tuple: Python
        # would then try the tuple's own __eq__, which compares items.
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__
    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __repr__(self) -> str:
        extractor, source, item, value, confidence = self
        return (
            f"{self.__class__.__qualname__}(extractor={extractor!r}, "
            f"source={source!r}, item={item!r}, value={value!r}, "
            f"confidence={confidence!r})"
        )

    def __reduce__(self):
        return (self.__class__, tuple(self))

    @property
    def triple(self) -> Triple:
        return Triple(self.item.subject, self.item.predicate, self.value)

