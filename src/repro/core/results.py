"""Result containers returned by the fusion models.

Both models expose the same triple-level API (``triple_probability``,
``most_probable_value``, ``coverage``) so the evaluation harness can score
them uniformly; the multi-layer result additionally carries the extraction
correctness posteriors and the separated source/extractor qualities that
constitute Knowledge-Based Trust.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import compress, islice
from operator import is_, itemgetter
from typing import Hashable

import numpy as np

from repro.core.quality import ExtractorQuality
from repro.core.types import DataItem, ExtractorKey, SourceKey, Value

#: A (source, item, value) coordinate of the C layer.
Coord = tuple[SourceKey, DataItem, Value]

#: In the single-layer model a "source" is a provenance: any hashable key
#: combining extractor and web-source identities (Section 5.1.2 uses the
#: 4-tuple (extractor, website, predicate, pattern)).
ProvenanceKey = Hashable


@dataclass(frozen=True, slots=True)
class IterationSnapshot:
    """Convergence trace entry for one EM iteration."""

    iteration: int
    max_accuracy_delta: float
    max_extractor_delta: float = 0.0

    @property
    def max_delta(self) -> float:
        return max(self.max_accuracy_delta, self.max_extractor_delta)


class _TripleView:
    """Shared read API over per-item value posteriors."""

    def __init__(
        self,
        value_posteriors: dict[DataItem, dict[Value, float]],
        num_triples_total: int,
    ) -> None:
        self._value_posteriors = value_posteriors
        self._num_triples_total = num_triples_total

    @property
    def value_posteriors(self) -> dict[DataItem, dict[Value, float]]:
        """p(V_d = v | X) for every covered item and observed value."""
        return self._value_posteriors

    def triple_probability(self, item: DataItem, value: Value) -> float | None:
        """p(V_d = v | X), or None when the triple is not covered."""
        values = self.value_posteriors.get(item)
        if values is None:
            return None
        return values.get(value)

    def most_probable_value(self, item: DataItem) -> Value | None:
        """argmax_v p(V_d = v | X), or None when the item is not covered."""
        values = self.value_posteriors.get(item)
        if not values:
            return None
        return max(values.items(), key=lambda kv: kv[1])[0]

    def covered_triples(self) -> set[tuple[DataItem, Value]]:
        """The (item, value) pairs for which a probability was computed."""
        return {
            (item, value)
            for item, values in self.value_posteriors.items()
            for value in values
        }

    @property
    def num_triples_total(self) -> int:
        """Total observed (item, value) pairs, the Cov denominator."""
        return self._num_triples_total

    @property
    def coverage(self) -> float:
        """Cov: fraction of observed triples with a computed probability."""
        if self._num_triples_total == 0:
            return 0.0
        covered = sum(len(v) for v in self.value_posteriors.values())
        return covered / self._num_triples_total


class SingleLayerResult(_TripleView):
    """Output of the single-layer knowledge-fusion baseline."""

    def __init__(
        self,
        value_posteriors: dict[DataItem, dict[Value, float]],
        provenance_accuracy: dict[ProvenanceKey, float],
        participating: set[ProvenanceKey],
        num_triples_total: int,
        history: list[IterationSnapshot],
    ) -> None:
        super().__init__(value_posteriors, num_triples_total)
        self.provenance_accuracy = provenance_accuracy
        self.participating = participating
        self.history = history

    @property
    def iterations_run(self) -> int:
        return len(self.history)


@dataclass(frozen=True, slots=True)
class ResultColumns:
    """A multi-layer result as key tables and integer / float columns.

    The ``*_source`` / ``*_extractor`` / ``*_item`` / ``*_value``
    columns are ids into the four key tables; the float columns run
    alongside their ids. Sections, in the artifact's order: accuracy
    per source (``acc_*``), P / R / Q per extractor (``eq_*``), the
    estimable masks over the source and extractor tables, the C layer
    (``coord_*``), the re-estimated priors (``prior_*``; empty when
    none), the V layer (``vp_*``, an item's rows together) and the
    covered items without a posterior entry (``vp_empty_item``).

    A table never lists two equal keys (``1``, ``True`` and ``1.0`` are
    one value), and starts with the keys its columns name, in the order
    the sections first name them (an estimable key the section before
    does not name: in ``str`` order), as the artifact lists them.
    ``coords`` and ``prior_coords`` are the coordinate tuples of the C
    layer's and the priors' rows (shared, as a fit's are, with the cells
    of its matrix), ``vp_values`` the V layer's value objects (a fit's:
    each triple's value as its first claim has it). The dict views of
    :class:`MultiLayerResult` are decoded from these by the methods
    below.
    """

    sources: list[SourceKey]
    extractors: list[ExtractorKey]
    items: list[DataItem]
    values: list[Value]
    acc_source: np.ndarray
    acc_value: np.ndarray
    eq_extractor: np.ndarray
    eq_precision: np.ndarray
    eq_recall: np.ndarray
    eq_q: np.ndarray
    est_source: np.ndarray  # bool, by source id
    est_extractor: np.ndarray  # bool, by extractor id
    coord_source: np.ndarray
    coord_item: np.ndarray
    coord_value: np.ndarray
    coord_p: np.ndarray
    prior_source: np.ndarray
    prior_item: np.ndarray
    prior_value: np.ndarray
    prior_p: np.ndarray
    vp_item: np.ndarray
    vp_value: np.ndarray
    vp_p: np.ndarray
    vp_empty_item: np.ndarray
    coords: list[Coord]
    prior_coords: list[Coord]
    vp_values: list[Value]

    def value_posteriors(self) -> dict[DataItem, dict[Value, float]]:
        out: dict[DataItem, dict[Value, float]] = {}
        for item, value, p in zip(
            map(self.items.__getitem__, self.vp_item.tolist()),
            self.vp_values,
            self.vp_p.tolist(),
        ):
            out.setdefault(item, {})[value] = p
        for item in map(self.items.__getitem__, self.vp_empty_item.tolist()):
            out.setdefault(item, {})
        return out

    def extraction_posteriors(self) -> dict[Coord, float]:
        return dict(zip(self.coords, self.coord_p.tolist()))

    def priors(self) -> dict[Coord, float]:
        return dict(zip(self.prior_coords, self.prior_p.tolist()))

    def source_accuracy(self) -> dict[SourceKey, float]:
        return keyed(self.sources, self.acc_source, self.acc_value.tolist())

    def extractor_quality(self) -> dict[ExtractorKey, ExtractorQuality]:
        qualities = map(
            ExtractorQuality,
            self.eq_precision.tolist(),
            self.eq_recall.tolist(),
            self.eq_q.tolist(),
        )
        return keyed(self.extractors, self.eq_extractor, qualities)

    def estimable_sources(self) -> set[SourceKey]:
        return set(compress(self.sources, self.est_source.tolist()))

    def estimable_extractors(self) -> set[ExtractorKey]:
        return set(compress(self.extractors, self.est_extractor.tolist()))


def first_seen(
    ids: np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct ids (each below ``size``) in the order ``ids`` first
    lists them, the row where each first occurs, and each id's position
    in that order (-1 for ids ``ids`` does not list).

    One ``np.minimum.at`` scatter and a sort of the distinct ids: no
    sort of ``ids`` itself, which ``np.unique(…, return_index=True)``
    needs (about 20 times slower at a few tens of thousands of ids),
    and no plain ``np.unique``, whose first call imports ``numpy.ma``.
    """
    ids = np.asarray(ids, dtype=np.intp)
    first = np.full(size, len(ids), dtype=np.intp)
    np.minimum.at(first, ids, np.arange(len(ids)))
    seen = np.flatnonzero(first < len(ids))
    order = seen[np.argsort(first[seen])]
    rank = np.full(size, -1, dtype=np.intp)
    rank[order] = np.arange(len(order))
    return order, first[order], rank


def keyed(keys: list, ids: np.ndarray, values: Iterable) -> dict:
    """``values`` by the keys (of table ``keys``) that ``ids`` name."""
    return dict(zip(map(keys.__getitem__, ids.tolist()), values))


def source_support(
    sources: list[SourceKey], coord_source, coord_p
) -> dict[SourceKey, float]:
    """Expected number of correctly-extracted triples per source: the
    C layer's ``p`` summed by source id.

    ``bincount`` adds its weights one by one, in input order, from 0.0
    — the sums of a loop over the C layer, bit for bit. Sources come in
    the order the C layer first lists them.
    """
    coord_source = np.asarray(coord_source, dtype=np.intp)
    totals = np.bincount(
        coord_source, weights=np.asarray(coord_p, dtype=np.float64)
    )
    order = first_seen(coord_source, len(totals))[0]
    return keyed(sources, order, totals[order].tolist())


def first_seen_keys(
    coords: list[Coord], part: int, ids: np.ndarray
) -> tuple[list, np.ndarray]:
    """The keys ``ids`` name, in first-seen order, each as part ``part``
    of its first coordinate in ``coords`` (row ``k`` holds id
    ``ids[k]``); and ``ids`` renumbered in that order."""
    size = int(ids.max()) + 1 if len(ids) else 0
    _order, rows, rank = first_seen(ids, size)
    keys = list(map(itemgetter(part), map(coords.__getitem__, rows.tolist())))
    return keys, rank[ids]


def id_mask(size: int, *columns: np.ndarray) -> np.ndarray:
    """A bool mask over a table of ``size`` keys: the ids ``columns`` name."""
    out = np.zeros(size, dtype=bool)
    for ids in columns:
        out[ids] = True
    return out


def join_keys(table: list, keys: Iterable) -> np.ndarray:
    """The ids of ``keys`` in ``table``, each looked up once; a key not
    there joins it at its end (``1``, ``True``, ``1.0`` are one key).
    Keys that are the table's own first objects, in its order (a fit's
    matrix and result share them), are found without hashing."""
    keys = list(keys)
    if len(keys) <= len(table) and all(map(is_, keys, table)):
        return np.arange(len(keys), dtype=np.intp)
    index = dict(zip(table, range(len(table))))
    ids = [index.setdefault(key, len(index)) for key in keys]
    table.extend(islice(index, len(table), None))
    return np.array(ids, dtype=np.intp)


#: Each key table's id columns, section by section in payload order.
_NAMED = {
    "sources": ("acc_source", "est_source", "coord_source", "prior_source"),
    "extractors": ("eq_extractor", "est_extractor"),
    "items": ("coord_item", "prior_item", "vp_item", "vp_empty_item"),
    "values": ("coord_value", "prior_value", "vp_value"),
}
_TABLE = {column: table for table, names in _NAMED.items() for column in names}

#: The sections an update extends: id columns, float columns, tuples.
_KEYED = (
    (["acc_source"], ["acc_value"], None),
    (["eq_extractor"], ["eq_precision", "eq_recall", "eq_q"], None),
    *(([f"{p}_source", f"{p}_item", f"{p}_value"], [f"{p}_p"], coords)
      for p, coords in (("coord", "coords"), ("prior", "prior_coords"))),
)


def merge_columns(old: ResultColumns, delta: ResultColumns) -> ResultColumns:
    """``delta`` folded into ``old``, as array work over their columns.

    Each delta key is looked up in ``old``'s table once. The accuracy,
    quality, C-layer and prior sections keep ``old``'s rows, then take
    the delta's rows whose key they lack; the estimable masks are ORed.
    The V layer keeps ``old``'s items, filled then empty, but an item
    the delta covers takes the delta's rows and value objects; new
    items come last. Each table then holds the keys the columns name,
    in the order :class:`ResultColumns` lists them.
    """
    tables = {name: list(getattr(old, name)) for name in _NAMED}
    to = {name: join_keys(tables[name], getattr(delta, name))
          for name in _NAMED}
    # A loaded artifact's tables go on with keys only its matrix names.
    # Such a key the delta names is the delta's object (``True`` where
    # old's table has ``1``), as in a merge of the two results' views.
    for name, columns in _NAMED.items():
        named = [np.asarray(getattr(old, column)) for column in columns]
        unnamed = ~id_mask(
            len(getattr(old, name)),
            *(np.flatnonzero(ids) if ids.dtype == bool else ids
              for ids in named),
        )
        for key, k in zip(getattr(delta, name), to[name].tolist()):
            if k < len(unnamed) and unnamed[k]:
                tables[name][k], unnamed[k] = key, False
    sizes = {name: len(keys) for name, keys in tables.items()}

    def stack(name: str, mine=slice(None), theirs=slice(None)):
        """``old``'s rows of column ``name``, then ``delta``'s."""
        a, b = getattr(old, name), getattr(delta, name)
        if name in _TABLE:
            a, b = np.asarray(a, dtype=np.intp), to[_TABLE[name]][b]
        return np.concatenate([a[mine], b[theirs]])

    merged: dict = {}
    for keys, floats, coords in _KEYED:
        packed = np.ravel_multi_index(
            [stack(name) for name in keys],
            [max(sizes[_TABLE[name]], 1) for name in keys],
        )
        n = len(getattr(old, keys[0]))
        # A section never lists a key twice, on either side.
        new = ~np.isin(packed[n:], packed[:n], assume_unique=True)
        for name in keys + floats:
            merged[name] = stack(name, theirs=new)
        if coords:
            merged[coords] = getattr(old, coords) + list(
                compress(getattr(delta, coords), new.tolist())
            )
    for name in ("est_source", "est_extractor"):
        merged[name] = id_mask(
            sizes[_TABLE[name]],
            np.flatnonzero(getattr(old, name)),
            to[_TABLE[name]][getattr(delta, name)],
        )

    # The V layer, item by item in ``sequence`` order: old's filled
    # items, its empty ones, then the delta's items old lacks.
    n, m = len(old.vp_item), len(old.vp_empty_item)
    items, empty = stack("vp_item"), stack("vp_empty_item")
    sequence, _rows, position = first_seen(
        np.concatenate([items[:n], empty[:m], items[n:], empty[m:]]),
        sizes["items"],
    )
    kept = ~id_mask(sizes["items"], items[n:], empty[m:])[items[:n]]
    rows = np.argsort(position[stack("vp_item", kept)], kind="stable")
    for name in ("vp_item", "vp_value", "vp_p"):
        merged[name] = stack(name, kept)[rows]
    objects = list(compress(old.vp_values, kept.tolist())) + delta.vp_values
    merged["vp_values"] = list(map(objects.__getitem__, rows.tolist()))
    filled = id_mask(sizes["items"], merged["vp_item"])
    merged["vp_empty_item"] = sequence[~filled[sequence]]

    for table, names in _NAMED.items():
        keys = tables[table]
        named = [merged[name] for name in names]
        if names[1].startswith("est_"):
            extra = named[1] & ~id_mask(sizes[table], named[0])
            extra = sorted(np.flatnonzero(extra), key=lambda k: str(keys[k]))
            named[1] = np.array(extra, dtype=np.intp)
        order, _rows, rank = first_seen(
            np.concatenate(named, dtype=np.intp), sizes[table]
        )
        tables[table] = list(map(keys.__getitem__, order.tolist()))
        for name in names:
            held = merged[name]
            merged[name] = held[order] if held.dtype == bool else rank[held]
    return ResultColumns(**tables, **merged)


def _view(name: str) -> property:
    """The read-only view ``name``, decoded from the columns on first
    read by the :class:`ResultColumns` method of that name. Racing first
    readers decode equal values: no lock needed."""

    def read(self: "MultiLayerResult"):
        views = self._views
        if name not in views:
            views[name] = getattr(self._columns, name)()
        return views[name]

    return property(read)


class MultiLayerResult(_TripleView):
    """Output of the multi-layer model: the KBT estimate lives in
    ``source_accuracy`` (A_w per web source, Eq. 28).

    The views: ``value_posteriors`` p(V_d = v | X),
    ``extraction_posteriors`` p(C_wdv = 1 | X) per scored coordinate,
    ``source_accuracy``, ``extractor_quality`` (P / R / Q, Eq. 29-33
    and Eq. 7), the estimable sets, and ``priors``, the final
    re-estimated p(C_wdv = 1) (Eq. 26; empty when the prior update is
    disabled or never reached its start iteration).

    Its one state is its :class:`ResultColumns` (:meth:`columns`, what
    the artifact writer reads): a numpy fit's, a loaded artifact's or a
    merged update's. The views are decoded from them on first read.

    The views are read-only: assigning one raises ``AttributeError``,
    and their contents are not to be edited: an edited view would not
    be what a save writes.
    """

    def __init__(
        self,
        columns: ResultColumns,
        num_triples_total: int,
        history: list[IterationSnapshot],
    ) -> None:
        self._num_triples_total = num_triples_total
        self.history = history
        self._columns = columns
        self._views: dict = {}

    def columns(self) -> ResultColumns:
        """This result as :class:`ResultColumns`."""
        return self._columns

    value_posteriors = _view("value_posteriors")
    extraction_posteriors = _view("extraction_posteriors")
    source_accuracy = _view("source_accuracy")
    extractor_quality = _view("extractor_quality")
    estimable_sources = _view("estimable_sources")
    estimable_extractors = _view("estimable_extractors")
    priors = _view("priors")

    @property
    def iterations_run(self) -> int:
        return len(self.history)

    def extraction_probability(
        self, source: SourceKey, item: DataItem, value: Value
    ) -> float | None:
        """p(C_wdv = 1 | X), or None when the coordinate was not scored."""
        return self.extraction_posteriors.get((source, item, value))

    def expected_triples_by_source(self) -> dict[SourceKey, float]:
        """Expected number of correctly-extracted triples per source.

        Used by the KBT facade to apply the paper's "at least 5 extracted
        triples" reporting rule (Section 5.4).
        """
        held = self._columns
        return source_support(held.sources, held.coord_source, held.coord_p)
