"""Sparse observation matrix X = {X_ewdv}: key tables and integer columns.

The matrix is the "data cube" of Figure 1(b): extractor x source x
(data item, value), stored as cells, one per distinct (source, item,
value) coordinate, each holding the extractors (and confidences) that
extracted that triple from that source. Duplicate records for the same
(e, w, d, v) keep the maximum confidence.

The matrix holds, and compilation and the artifact writer read
(:meth:`ObservationMatrix.columns`), the coordinate tuples in cell order
with integer columns over them (:class:`CellColumns`), and the source
and extractor tables in first-seen order (the order fixes the compiled
column order) with their support sizes. A restriction also keeps its
sources' corpus-level active pairs (the ACTIVE absence scope).

The columns are the one representation: every reader (the weightings,
gold labels, the co-claim graph, SPLITANDMERGE planning, and the Gibbs
sampler of ``tests/gibbs_reference.py``) groups them itself, and the dict oracles of ``tests/`` convert
them to ``tests/matrix_reference.py``'s ``ReferenceMatrix``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    SourceKey,
    Value,
)
from repro.util.heap import paused_gc

if TYPE_CHECKING:
    from repro.core.granularity import GranularityPlan

#: A (source, item, value) coordinate of the C layer.
Coord = tuple[SourceKey, DataItem, Value]


@dataclass(frozen=True, slots=True)
class CellColumns:
    """The cells as ``int64`` id and ``float64`` confidence columns.

    Entries are cell-contiguous, in cell order. Equal items or values
    share an id (``1``, ``True`` and ``1.0`` share a cell).
    """

    coords: list[Coord]
    cell_source: np.ndarray  # (n_cells,) -> ObservationMatrix.sources()
    cell_item: np.ndarray  # (n_cells,)
    cell_value: np.ndarray  # (n_cells,)
    entry_cell: np.ndarray  # (n_entries,) -> coords, nondecreasing
    entry_extractor: np.ndarray  # (n_entries,) -> .extractors()
    entry_conf: np.ndarray  # (n_entries,)


class ObservationMatrix:
    """Immutable-after-build sparse view of all extractions.

    Build with :meth:`from_records` (or :meth:`from_cells`, from the
    cells of another matrix); the constructor is private API.
    """

    @paused_gc()
    def __init__(self, records: Iterable[ExtractionRecord]) -> None:
        # One loop over the records, names bound locally: a record
        # hashes its coordinate once, into its cell id, and a new cell
        # interns its source, item and value. A record hashes its
        # extractor only when it differs from the previous record's: a
        # reader hands out one object per key, and consecutive records
        # mostly share their extractor. Which record wins its (cell,
        # extractor) entry is array work after the loop; a record that
        # does not win still counts.
        cells: dict[Coord, int] = {}
        sources, items, values, extractors = {}, {}, {}, {}
        cell_source, cell_item, cell_value = [], [], []
        record_cell, record_extractor, record_conf = [], [], []
        cell_of = cells.setdefault
        add_cell, add_extractor = record_cell.append, record_extractor.append
        add_conf = record_conf.append
        new = 0
        last = extractor_id = None
        for extractor, source, item, value, confidence in records:
            cell = cell_of((source, item, value), new)
            if cell == new:
                new += 1
                cell_source.append(sources.setdefault(source, len(sources)))
                cell_item.append(items.setdefault(item, len(items)))
                cell_value.append(values.setdefault(value, len(values)))
            if extractor is not last:
                last = extractor
                extractor_id = extractors.setdefault(
                    extractor, len(extractors)
                )
            add_cell(cell)
            add_extractor(extractor_id)
            add_conf(confidence)
        _check_buckets(sources)
        _check_buckets(extractors)
        self._hold(
            CellColumns(
                list(cells),
                *(
                    np.array(ids, dtype=np.int64)
                    for ids in (cell_source, cell_item, cell_value)
                ),
                *_strongest(
                    np.array(record_cell, dtype=np.int64),
                    np.array(record_extractor, dtype=np.int64),
                    np.array(record_conf, dtype=np.float64),
                ),
            ),
            list(sources),
            list(extractors),
            len(record_conf),
        )

    def _hold(
        self,
        columns: CellColumns,
        sources: list[SourceKey],
        extractors: list[ExtractorKey],
        num_records: int,
        active: list[tuple[SourceKey, ExtractorKey]] | None = None,
    ) -> None:
        """Hold ``columns`` over the key tables, with the ``active``
        (source, extractor) pairs beyond those the entries show."""
        self._columns: CellColumns | None = columns  # None once released
        self._sources = sources
        self._extractors = extractors
        self._source_size = np.bincount(
            columns.cell_source, minlength=len(sources)
        )
        self._extractor_size = np.bincount(
            columns.entry_extractor, minlength=len(extractors)
        )
        self._num_records = num_records
        self._active = active or []
        self._num_triples: int | None = None
        # The key indexes, None until read; built into a local and
        # assigned once, so racing readers build equal values: no lock.
        self._indexes = None

    @paused_gc()
    def _grown(
        self,
        indexes: tuple[dict, dict, dict, dict, dict],
        coords: list[Coord],
        entry_cell: np.ndarray,
        keys: list[ExtractorKey],
        confidences: np.ndarray,
        num_records: int,
    ) -> "ObservationMatrix":
        """This matrix plus cells: ``coords`` (equal ones are one cell)
        with entries (row of ``coords``, extractor, confidence). New
        keys join ``indexes`` — the cell, source, item, value and
        extractor ids by key, this matrix's or seeds — in the order
        ``coords`` and ``keys`` first list them; the result keeps them."""
        mine = self._columns
        cells, sources, items, values, extractors = indexes
        grown = list(mine.coords)
        cell_source, cell_item, cell_value, cell_of = [], [], [], []
        for coord in coords:
            cell = cells.setdefault(coord, len(grown))
            if cell == len(grown):
                grown.append(coord)
                source, item, value = coord
                cell_source.append(sources.setdefault(source, len(sources)))
                cell_item.append(items.setdefault(item, len(items)))
                cell_value.append(values.setdefault(value, len(values)))
            cell_of.append(cell)
        cell_of = np.array(cell_of, dtype=np.int64)[entry_cell]
        extractor_of = [
            extractors.setdefault(key, len(extractors)) for key in keys
        ]
        old = (mine.entry_cell, mine.entry_extractor, mine.entry_conf)
        new = (cell_of, np.array(extractor_of, dtype=np.int64), confidences)
        out = ObservationMatrix.__new__(ObservationMatrix)
        out._hold(
            CellColumns(
                grown,
                *(
                    np.concatenate([known_ids, np.array(ids, dtype=np.int64)])
                    for known_ids, ids in (
                        (mine.cell_source, cell_source),
                        (mine.cell_item, cell_item),
                        (mine.cell_value, cell_value),
                    )
                ),
                *_strongest(*map(np.concatenate, zip(old, new))),
            ),
            list(sources),
            list(extractors),
            self._num_records + num_records,
            self._active,
        )
        out._indexes = indexes
        return out

    @classmethod
    def from_records(
        cls, records: Iterable[ExtractionRecord]
    ) -> "ObservationMatrix":
        """Build the matrix from extraction records (any iterable).

        A corpus that arrives in chunks is one
        ``itertools.chain.from_iterable(chunks)``: no record outlives
        its fold into the columns. The fold runs with the cyclic
        collector paused (:func:`repro.util.heap.paused_gc`), drawing
        the records included, so ``records`` must not fork.
        """
        with obs.span("core.observation.build"):
            return cls(records)

    @classmethod
    def from_cells(
        cls,
        coords: Iterable[Coord],
        lens: Iterable[int],
        extractors: list[ExtractorKey],
        confidences: list[float],
        extractor_order: Iterable[ExtractorKey] | None = None,
    ) -> "ObservationMatrix":
        """Build the matrix from cells as another matrix held them.

        Cell ``k`` is ``coords[k]`` with the next ``lens[k]`` entries of
        ``extractors`` / ``confidences``: distinct coordinates, at least
        one entry per cell, distinct extractors within a cell, no NaN or
        negative confidence — what :meth:`columns` holds; anything else
        is a ``ValueError``. The result equals :meth:`from_records` over
        one record per entry of that matrix, without building a record.

        ``extractor_order`` restores the source matrix's extractor
        order, which the compiled column order follows; left out,
        extractors rank by first entry, as :meth:`from_records` would.
        """
        coords = list(coords)
        lens = np.array(list(lens), dtype=np.int64)
        count = int(lens.sum())
        if count != len(extractors) or len(confidences) != count:
            raise ValueError(
                f"the cells hold {count} entries, but there are "
                f"{len(extractors)} extractors and {len(confidences)} "
                "confidences"
            )
        if len(lens) != len(coords) or (lens < 1).any():
            raise ValueError("every cell needs a length of at least 1")
        confidences = np.array(confidences, dtype=np.float64)
        if not (confidences >= 0.0).all():
            raise ValueError("a confidence is NaN or negative")
        order = [] if extractor_order is None else list(extractor_order)
        out = cls(())._grown(
            ({}, {}, {}, {}, dict(zip(order, range(len(order))))),
            coords,
            np.repeat(np.arange(len(coords)), lens),
            extractors,
            confidences,
            count,
        )
        if order and (
            out._extractors != order or not out._extractor_size.all()
        ):
            raise ValueError(
                "extractor_order must list each extractor of the cells "
                "exactly once"
            )
        if out.num_cells != len(coords):
            raise ValueError("a coordinate is repeated")
        if len(out._columns.entry_cell) != count:
            raise ValueError("a cell lists an extractor twice")
        return out

    def release(self) -> None:
        """Drop the cells and the key indexes, keeping the counters.

        Call after :func:`~repro.core.indexing.compile_problem`: the
        compiled arrays carry everything inference needs, and result
        assembly only reads ``num_triples``. Any later cell access (or
        another compile) raises a ``RuntimeError``.
        """
        self._num_triples = self.num_triples
        self._columns = self._indexes = None

    def columns(self) -> CellColumns:
        """The cells as columns (what compilation and the artifact
        writer read)."""
        if self._columns is None:
            raise RuntimeError(
                "this ObservationMatrix was released (release()); its "
                "cells are gone — rebuild it from the records to read or "
                "compile it again"
            )
        return self._columns

    def active_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct active (source id, extractor id) pairs whose
        extractor has a cell here, sorted by source, then extractor."""
        columns = self.columns()
        source = columns.cell_source[columns.entry_cell]
        extractor = columns.entry_extractor
        if self._active:
            _cells, source_of, _items, _values, column = self._index()
            extra = np.array(
                [
                    (source_of[s], column[e])
                    for s, e in self._active
                    if e in column
                ],
                dtype=np.int64,
            ).reshape(-1, 2)
            source = np.concatenate([source, extra[:, 0]])
            extractor = np.concatenate([extractor, extra[:, 1]])
        width = max(self.num_extractors, 1)
        # ``return_index`` keeps ``np.unique`` off its plain path, whose
        # first call imports ``numpy.ma``: tens of ms in a fresh process.
        pairs, _first = np.unique(
            source * width + extractor, return_index=True
        )
        return pairs // width, pairs % width

    # ------------------------------------------------------------------
    # Size and universe accessors
    # ------------------------------------------------------------------
    @property
    def num_records(self) -> int:
        """Number of extraction records folded into the matrix."""
        return self._num_records

    @property
    def num_cells(self) -> int:
        """Number of distinct (source, item, value) coordinates."""
        return len(self.columns().coords)

    def sources(self) -> Iterator[SourceKey]:
        return iter(self._sources)

    def extractors(self) -> Iterator[ExtractorKey]:
        return iter(self._extractors)

    @property
    def num_sources(self) -> int:
        return len(self._sources)

    @property
    def num_extractors(self) -> int:
        return len(self._extractors)

    @property
    def num_triples(self) -> int:
        if self._num_triples is None:
            columns = self.columns()
            values = columns.cell_value
            width = int(values.max()) + 1 if len(values) else 1
            # Not plain ``np.unique``: see ``active_pairs``.
            triples, _first = np.unique(
                columns.cell_item * width + values, return_index=True
            )
            self._num_triples = len(triples)
        return self._num_triples

    def restricted_to_items(
        self, items: set[DataItem]
    ) -> "ObservationMatrix":
        """The sub-matrix of all claims on ``items``: a mask over the
        cells. The retained sources keep their *corpus-level* active
        sets: the restriction is a view of the same crawl, so "which
        extractors processed source w" (the ACTIVE absence scope) must
        not shrink because most of w's claims fall outside the slice.

        Cell order is items by ``str``, each item's values in the order
        this matrix first lists them, then sources by ``str``; distinct
        keys that print alike keep this matrix's cell order. That order
        becomes the compiled coordinate order, which the EM scatter-adds
        associate in, so it must not follow set order (it varies with
        ``PYTHONHASHSEED``): a warm-start ``update`` would produce
        hash-seed-dependent float bytes, breaking determinism-ladder
        entry 6.
        """
        columns = self.columns()
        coords = columns.coords
        index = self._index()[2]
        wanted = np.zeros(len(index), dtype=bool)
        wanted[[index[item] for item in items if item in index]] = True
        kept = np.flatnonzero(wanted[columns.cell_item]).tolist()
        # Each item's and each (item, value)'s first cell: it breaks the
        # ties of items that print alike, orders an item's values, and
        # writes each cell's value as that first cell has it (``1``,
        # ``True`` and ``1.0`` are one value), as the by-item view does.
        first: dict = {}
        for k in kept:
            first.setdefault(coords[k][1], k)
            first.setdefault(coords[k][1:], k)
        kept.sort(
            key=lambda k: (
                str(coords[k][1]),
                first[coords[k][1]],
                first[coords[k][1:]],
                str(coords[k][0]),
                k,
            )
        )
        sub = []
        for k in kept:
            coord = coords[k]
            value = coords[first[coord[1:]]][2]
            sub.append(
                coord if coord[2] is value else (coord[0], coord[1], value)
            )
        kept = np.array(kept, dtype=np.int64)
        lens = np.bincount(columns.entry_cell, minlength=len(coords))[kept]
        rows = _spans(np.searchsorted(columns.entry_cell, kept), lens)
        out = ObservationMatrix.from_cells(
            sub,
            lens,
            [
                self._extractors[e]
                for e in columns.entry_extractor[rows].tolist()
            ],
            columns.entry_conf[rows],
        )
        retained = np.zeros(self.num_sources, dtype=bool)
        retained[columns.cell_source[kept]] = True
        source, extractor = self.active_pairs()
        held = retained[source]
        kept_sources = set(out._sources)
        out._active = [
            *zip(
                map(self._sources.__getitem__, source[held].tolist()),
                map(self._extractors.__getitem__, extractor[held].tolist()),
            ),
            *(pair for pair in self._active if pair[0] in kept_sources),
        ]
        return out

    def extended(self, other: "ObservationMatrix") -> "ObservationMatrix":
        """A new matrix equal to this one plus ``other``'s extractions.

        New cells, sources and extractors follow this matrix's, in the
        order ``other`` first lists them (extractors: by its entries).
        An extraction both hold keeps the larger confidence. Neither
        input is mutated. ``other``'s keys are looked up in copies of
        this matrix's key indexes, which the result keeps: a chain of
        updates builds them once. The copies, the concatenated columns
        and the entry sort still cost O(cells), at C speed.
        """
        theirs = other.columns()
        return self._grown(
            tuple(map(dict, self._index())),
            theirs.coords,
            theirs.entry_cell,
            [other._extractors[e] for e in theirs.entry_extractor.tolist()],
            theirs.entry_conf,
            other._num_records,
        )

    def _index(self) -> tuple[dict, dict, dict, dict, dict]:
        """The cell, source, item, value and extractor ids by key."""
        if self._indexes is None:
            columns = self.columns()
            coords = columns.coords
            self._indexes = (
                dict(zip(coords, range(len(coords)))),
                dict(zip(self._sources, range(self.num_sources))),
                _keys_by_id(coords, 1, columns.cell_item),
                _keys_by_id(coords, 2, columns.cell_value),
                dict(zip(self._extractors, range(self.num_extractors))),
            )
        return self._indexes

    # ------------------------------------------------------------------
    # Statistics used by granularity selection and Figure 5
    # ------------------------------------------------------------------
    def source_sizes(self) -> dict[SourceKey, int]:
        """Number of distinct (item, value) triples per source."""
        return dict(zip(self._sources, self._source_size.tolist()))

    def extractor_sizes(self) -> dict[ExtractorKey, int]:
        """Number of distinct coordinates per extractor."""
        return dict(zip(self._extractors, self._extractor_size.tolist()))

    # ------------------------------------------------------------------
    # Relabeling (granularity changes)
    # ------------------------------------------------------------------
    def relabel(
        self,
        sources: GranularityPlan | None = None,
        extractors: GranularityPlan | None = None,
    ) -> "ObservationMatrix":
        """Rebuild the matrix under new source / extractor identities.

        ``sources`` gives each cell a key (``SplitAndMerge.plan_sources``)
        and ``extractors`` each entry (``plan_extractors``); left out, a
        cell or entry keeps its key. Cells that become equal are one cell.
        """
        columns = self.columns()
        cell_keys = _keys_of(sources, self._sources, columns.cell_source)
        coords = [(w, d, v) for w, (_, d, v) in zip(cell_keys, columns.coords)]
        keys = _keys_of(extractors, self._extractors, columns.entry_extractor)
        return ObservationMatrix(())._grown(
            ({}, {}, {}, {}, {}),
            coords,
            columns.entry_cell,
            keys,
            columns.entry_conf,
            len(keys),
        )


def _check_buckets(keys: Iterable[SourceKey | ExtractorKey]) -> None:
    """Refuse a key whose split bucket is not an index (an int >= 0),
    which no artifact can hold, before a fit or update runs on it."""
    for key in keys:
        bucket = key.bucket
        if bucket is not None and (type(bucket) is not int or bucket < 0):
            raise ValueError(
                f"a split bucket must be an int >= 0, got {bucket!r} "
                f"in {type(key).__name__} {key}"
            )


def _strongest(
    cell: np.ndarray, extractor: np.ndarray, conf: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One entry per (cell, extractor) pair, with its largest confidence:
    in cell order, a cell's entries in the order their pairs first come."""
    pair = cell * (int(extractor.max()) + 1 if len(extractor) else 1)
    pair += extractor
    by_pair = np.argsort(pair, kind="stable")
    starts = np.flatnonzero(np.diff(pair[by_pair], prepend=-1))
    first = by_pair[starts]  # each pair's first row
    best = np.maximum.reduceat(conf[by_pair], starts) if len(starts) else conf
    order = np.argsort(cell[first] * len(cell) + first)
    first = first[order]
    return cell[first], extractor[first], best[order]


def _keys_of(
    plan: GranularityPlan | None, keys: list, ids: np.ndarray
) -> list:
    """Each ref's key under ``plan``; without one, ``keys[ids]``."""
    if plan is not None:
        keys, ids = plan.keys, plan.ids
    return list(map(keys.__getitem__, ids.tolist()))


def _keys_by_id(coords: list[Coord], part: int, ids: np.ndarray) -> dict:
    """Each id by its key: part ``part`` of the id's first coordinate."""
    ids, rows = np.unique(ids, return_index=True)
    return {
        coords[row][part]: k for k, row in zip(ids.tolist(), rows.tolist())
    }


def _spans(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The rows ``starts[k] .. starts[k] + lens[k] - 1``, span by span."""
    offsets = np.cumsum(lens) - lens
    return np.repeat(starts - offsets, lens) + np.arange(int(lens.sum()))
