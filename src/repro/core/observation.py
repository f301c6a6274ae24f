"""Sparse observation matrix X = {X_ewdv}: the cells, and views of them.

The matrix is the "data cube" of Figure 1(b): extractor x source x
(data item, value). It is stored sparsely as a mapping from (source, item,
value) coordinates to the extractors (and confidences) that extracted that
triple from that source. Duplicate records for the same (e, w, d, v) keep
the maximum confidence.

Maintained on every record — this is all that compilation, the engines
and the artifact writer read:

* the cells,
* the source and extractor universes in first-seen order with their
  support sizes (the order fixes the compiled column order),
* active extractors per source (for the ACTIVE absence-vote scope).

Derived from the cells in one pass on first read, then kept:

* by data item (warm-start updates, the co-claim graph),
* by source and by extractor (granularity planning, gold labels, the
  Gibbs sampler, figures).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    SourceKey,
    Value,
)

#: A (source, item, value) coordinate of the C layer.
Coord = tuple[SourceKey, DataItem, Value]


class ObservationMatrix:
    """Immutable-after-build sparse view of all extractions.

    Build with :meth:`from_records`; the constructor is private API.
    """

    def __init__(self, records: Iterable[ExtractionRecord]) -> None:
        # coordinate -> {extractor: confidence}; None once released
        self._cells: dict[Coord, dict[ExtractorKey, float]] | None = {}
        # source -> number of cells, extractor -> number of cells it is
        # in; insertion order is the first-seen order of the keys
        self._source_sizes: dict[SourceKey, int] = {}
        self._extractor_sizes: dict[ExtractorKey, int] = {}
        # source -> extractors with >= 1 extraction from it
        self._active_extractors: dict[SourceKey, set[ExtractorKey]] = {}
        self._num_records = 0
        # Derived views, None until read. Each is built into a local and
        # assigned once, so racing readers build equal values: no lock.
        self._by_item = self._by_source = self._by_extractor = None
        self._num_triples: int | None = None
        for record in records:
            self._add(record)

    @classmethod
    def from_records(
        cls, records: Iterable[ExtractionRecord]
    ) -> "ObservationMatrix":
        """Build the matrix from extraction records (any iterable).

        A corpus that arrives in chunks is one
        ``itertools.chain.from_iterable(chunks)``: no record outlives
        its fold into a cell.
        """
        return cls(records)

    def _add(self, record: ExtractionRecord) -> None:
        source = record.source
        extractor = record.extractor
        coord: Coord = (source, record.item, record.value)
        cell = self._cells.get(coord)
        if cell is None:
            cell = self._cells[coord] = {}
            sizes = self._source_sizes
            sizes[source] = sizes.get(source, 0) + 1
        if record.confidence > cell.get(extractor, 0.0):
            if extractor not in cell:
                sizes = self._extractor_sizes
                sizes[extractor] = sizes.get(extractor, 0) + 1
            cell[extractor] = record.confidence
        # A record that does not beat its cell still marks its extractor
        # active for the source, and still counts.
        self._active_extractors.setdefault(source, set()).add(extractor)
        self._num_records += 1

    def release(self) -> None:
        """Drop the cells and the derived views, keeping the counters.

        Call after :func:`~repro.core.indexing.compile_problem`: the
        compiled arrays carry everything inference needs, and result
        assembly only reads ``num_triples``. Any later cell access (or
        another compile) raises a ``RuntimeError``.
        """
        self._num_triples = self.num_triples
        self._cells = self._by_item = None
        self._by_source = self._by_extractor = None

    def _live_cells(self) -> dict[Coord, dict[ExtractorKey, float]]:
        if self._cells is None:
            raise RuntimeError(
                "this ObservationMatrix was released (release()); its "
                "cells are gone — rebuild it from the records to read or "
                "compile it again"
            )
        return self._cells

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
        return len(self._live_cells())

    def sources(self) -> Iterator[SourceKey]:
        return iter(self._source_sizes)

    def extractors(self) -> Iterator[ExtractorKey]:
        return iter(self._extractor_sizes)

    def items(self) -> Iterator[DataItem]:
        return iter(self._item_view())

    @property
    def num_sources(self) -> int:
        return len(self._source_sizes)

    @property
    def num_extractors(self) -> int:
        return len(self._extractor_sizes)

    @property
    def num_items(self) -> int:
        return len(self._item_view())

    def triples(self) -> Iterator[tuple[DataItem, Value]]:
        """Distinct (data item, value) pairs observed anywhere."""
        for item, values in self._item_view().items():
            for value in values:
                yield (item, value)

    @property
    def num_triples(self) -> int:
        if self._num_triples is None:
            if self._by_item is not None:
                count = sum(map(len, self._by_item.values()))
            else:
                count = len(
                    {(item, value) for _s, item, value in self._live_cells()}
                )
            self._num_triples = count
        return self._num_triples

    # ------------------------------------------------------------------
    # Cell access
    # ------------------------------------------------------------------
    def cells(self) -> Iterator[tuple[Coord, dict[ExtractorKey, float]]]:
        """Iterate (coordinate, {extractor: confidence}) pairs."""
        return iter(self._live_cells().items())

    def cell(self, coord: Coord) -> dict[ExtractorKey, float]:
        """The extractions of one coordinate ({} when never extracted)."""
        return self._live_cells().get(coord, {})

    def active_extractors(self, source: SourceKey) -> set[ExtractorKey]:
        """Extractors that extracted at least one triple from ``source``."""
        return self._active_extractors.get(source, set())

    # ------------------------------------------------------------------
    # Views derived from the cells, in cell order
    # ------------------------------------------------------------------
    def _item_view(self) -> dict[DataItem, dict[Value, set[SourceKey]]]:
        view = self._by_item
        if view is None:
            view = {}
            for source, item, value in self._live_cells():
                view.setdefault(item, {}).setdefault(value, set()).add(source)
            self._by_item = view
        return view

    def values_for_item(self, item: DataItem) -> dict[Value, set[SourceKey]]:
        """All observed values for an item with the sources claiming each."""
        return self._item_view().get(item, {})

    def source_claims(
        self, source: SourceKey
    ) -> list[tuple[DataItem, Value]]:
        """The (item, value) pairs that were extracted from ``source``."""
        view = self._by_source
        if view is None:
            view = {}
            for claimant, item, value in self._live_cells():
                view.setdefault(claimant, []).append((item, value))
            self._by_source = view
        return view.get(source, [])

    def extractor_cells(
        self, extractor: ExtractorKey
    ) -> dict[Coord, float]:
        """All coordinates touched by ``extractor`` with confidences.

        Listed in cell order — a function of the cells, so a matrix
        rebuilt from :meth:`iter_records` (an artifact reload) lists
        them identically and a seeded SPLITANDMERGE splits it alike.
        """
        view = self._by_extractor
        if view is None:
            view = {}
            for coord, cell in self._live_cells().items():
                for key, confidence in cell.items():
                    view.setdefault(key, {})[coord] = confidence
            self._by_extractor = view
        return view.get(extractor, {})

    def iter_records(self) -> Iterator[ExtractionRecord]:
        """Reconstruct one record per (coordinate, extractor) cell entry.

        Duplicate input records were already collapsed to their maximum
        confidence, so a rebuilt matrix is cell-identical to this one even
        though ``num_records`` counts the deduplicated entries.
        """
        for (source, item, value), cell in self.cells():
            for extractor, confidence in cell.items():
                yield ExtractionRecord(
                    extractor=extractor,
                    source=source,
                    item=item,
                    value=value,
                    confidence=confidence,
                )

    def restricted_to_items(
        self, items: set[DataItem]
    ) -> "ObservationMatrix":
        """The sub-matrix of all claims on ``items``.

        Built from the by-item view (no intermediate records), so the
        cost is proportional to the retained cells, and the sub-matrix's
        own by-item view is filled on the way. The retained sources keep
        their *corpus-level* active-extractor sets: the restriction is a
        view of the same crawl, so the answer to "which extractors
        processed source w" (the ACTIVE absence-vote scope) must not
        shrink just because most of w's claims fall outside the item
        slice.

        Cell order is pinned by sorting the item and claiming-source
        sets: set iteration order varies with string hash randomization
        (``PYTHONHASHSEED``), and the sub-matrix's insertion order
        becomes the compiled problem's coordinate order — which the EM
        scatter-adds associate in. Without the sort, a warm-start
        ``update`` would produce hash-seed-dependent float bytes,
        breaking determinism-ladder entry 6 across processes.
        """
        by_item = self._item_view()
        out = ObservationMatrix(())
        cells = out._cells
        source_sizes = out._source_sizes
        extractor_sizes = out._extractor_sizes
        out._by_item = sub_by_item = {}
        num_records = 0
        for item in sorted(items, key=str):
            values = by_item.get(item)
            if not values:
                continue
            sub_by_item[item] = {
                value: set(claiming) for value, claiming in values.items()
            }
            for value, claiming in values.items():
                for source in sorted(claiming, key=str):
                    coord = (source, item, value)
                    cell = cells[coord] = dict(self._cells[coord])
                    source_sizes[source] = source_sizes.get(source, 0) + 1
                    for extractor in cell:
                        extractor_sizes[extractor] = (
                            extractor_sizes.get(extractor, 0) + 1
                        )
                    num_records += len(cell)
        out._num_records = num_records
        out._active_extractors = {
            source: set(self._active_extractors.get(source, ()))
            for source in source_sizes
        }
        return out

    def extended(self, other: "ObservationMatrix") -> "ObservationMatrix":
        """A new matrix equal to this one plus ``other``'s extractions.

        Copy-on-write: the top-level dicts are (C-speed) copies and only
        the entries ``other`` touches get fresh inner structures, so
        folding a small delta into a large matrix costs far less than
        rebuilding from records. A by-item view this matrix has already
        derived is carried forward the same way, so a chain of updates
        derives it once. Neither input is mutated.
        """
        out = ObservationMatrix(())
        cells = out._cells = dict(self._live_cells())
        source_sizes = out._source_sizes = dict(self._source_sizes)
        extractor_sizes = out._extractor_sizes = dict(self._extractor_sizes)
        active = out._active_extractors = dict(self._active_extractors)
        out._num_records = self._num_records + other._num_records
        by_item = None
        if self._by_item is not None:
            by_item = out._by_item = dict(self._by_item)

        copied_items: set[DataItem] = set()
        copied_active: set[SourceKey] = set()

        for coord, new_cell in other._live_cells().items():
            source, item, value = coord
            existing = cells.get(coord)
            cell = cells[coord] = dict(existing or ())
            if existing is None:
                source_sizes[source] = source_sizes.get(source, 0) + 1
                if by_item is not None:
                    if item not in copied_items:
                        copied_items.add(item)
                        by_item[item] = {
                            v: set(claiming)
                            for v, claiming in by_item.get(item, {}).items()
                        }
                    by_item[item].setdefault(value, set()).add(source)
            for extractor, confidence in new_cell.items():
                if confidence > cell.get(extractor, 0.0):
                    if extractor not in cell:
                        extractor_sizes[extractor] = (
                            extractor_sizes.get(extractor, 0) + 1
                        )
                    cell[extractor] = confidence
            if source not in copied_active:
                copied_active.add(source)
                active[source] = set(active.get(source, ()))
            active[source].update(new_cell)
        return out

    # ------------------------------------------------------------------
    # Statistics used by granularity selection and Figure 5
    # ------------------------------------------------------------------
    def source_sizes(self) -> dict[SourceKey, int]:
        """Number of distinct (item, value) triples per source."""
        return dict(self._source_sizes)

    def extractor_sizes(self) -> dict[ExtractorKey, int]:
        """Number of distinct coordinates per extractor."""
        return dict(self._extractor_sizes)

    # ------------------------------------------------------------------
    # Relabeling (granularity changes)
    # ------------------------------------------------------------------
    def relabel(
        self,
        source_map: Callable[[SourceKey, DataItem, Value], SourceKey] | None = None,
        extractor_map: Callable[[ExtractorKey, DataItem, Value], ExtractorKey]
        | None = None,
    ) -> "ObservationMatrix":
        """Rebuild the matrix under new source / extractor identities.

        The maps receive the coordinate's item and value so that splitting
        can route triples of one oversized key into uniform buckets.
        """
        def iter_relabelled() -> Iterator[ExtractionRecord]:
            for (source, item, value), cell in self.cells():
                new_source = (
                    source_map(source, item, value) if source_map else source
                )
                for extractor, confidence in cell.items():
                    new_extractor = (
                        extractor_map(extractor, item, value)
                        if extractor_map
                        else extractor
                    )
                    yield ExtractionRecord(
                        extractor=new_extractor,
                        source=new_source,
                        item=item,
                        value=value,
                        confidence=confidence,
                    )

        return ObservationMatrix(iter_relabelled())
