"""Sparse observation matrix X = {X_ewdv} with the indexes inference needs.

The matrix is the "data cube" of Figure 1(b): extractor x source x
(data item, value). It is stored sparsely as a mapping from (source, item,
value) coordinates to the extractors (and confidences) that extracted that
triple from that source, plus secondary indexes:

* by data item (for the truth-finding V step),
* by source (for source-accuracy updates and granularity decisions),
* by extractor (for extractor-quality updates),
* active extractors per source (for the ACTIVE absence-vote scope).

Duplicate records for the same (e, w, d, v) keep the maximum confidence.
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
        # coordinate -> {extractor: confidence}
        self._cells: dict[Coord, dict[ExtractorKey, float]] = {}
        # item -> value -> set of sources claiming (item, value)
        self._item_index: dict[DataItem, dict[Value, set[SourceKey]]] = {}
        # source -> list of (item, value) it was seen with
        self._source_index: dict[SourceKey, list[tuple[DataItem, Value]]] = {}
        # extractor -> {coordinate: confidence}
        self._extractor_index: dict[ExtractorKey, dict[Coord, float]] = {}
        # source -> extractors with >= 1 extraction from it
        self._active_extractors: dict[SourceKey, set[ExtractorKey]] = {}
        self._num_records = 0
        for record in records:
            self._add(record)

    @classmethod
    def from_records(
        cls, records: Iterable[ExtractionRecord]
    ) -> "ObservationMatrix":
        """Build the matrix (and all indexes) from extraction records."""
        return cls(records)

    def _add(self, record: ExtractionRecord) -> None:
        source = record.source
        item = record.item
        value = record.value
        extractor = record.extractor
        confidence = record.confidence
        coord: Coord = (source, item, value)
        cell = self._cells.get(coord)
        if cell is None:
            cell = self._cells[coord] = {}
            self._item_index.setdefault(item, {}).setdefault(
                value, set()
            ).add(source)
            self._source_index.setdefault(source, []).append((item, value))
        if confidence > cell.get(extractor, 0.0):
            cell[extractor] = confidence
            self._extractor_index.setdefault(extractor, {})[coord] = (
                confidence
            )
        self._active_extractors.setdefault(source, set()).add(extractor)
        self._num_records += 1

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
        return len(self._cells)

    def sources(self) -> Iterator[SourceKey]:
        return iter(self._source_index)

    def extractors(self) -> Iterator[ExtractorKey]:
        return iter(self._extractor_index)

    def items(self) -> Iterator[DataItem]:
        return iter(self._item_index)

    @property
    def num_sources(self) -> int:
        return len(self._source_index)

    @property
    def num_extractors(self) -> int:
        return len(self._extractor_index)

    @property
    def num_items(self) -> int:
        return len(self._item_index)

    def triples(self) -> Iterator[tuple[DataItem, Value]]:
        """Distinct (data item, value) pairs observed anywhere."""
        for item, values in self._item_index.items():
            for value in values:
                yield (item, value)

    @property
    def num_triples(self) -> int:
        return sum(len(values) for values in self._item_index.values())

    # ------------------------------------------------------------------
    # Cell access
    # ------------------------------------------------------------------
    def cells(self) -> Iterator[tuple[Coord, dict[ExtractorKey, float]]]:
        """Iterate (coordinate, {extractor: confidence}) pairs."""
        return iter(self._cells.items())

    def cell(self, coord: Coord) -> dict[ExtractorKey, float]:
        """The extractions of one coordinate ({} when never extracted)."""
        return self._cells.get(coord, {})

    def values_for_item(self, item: DataItem) -> dict[Value, set[SourceKey]]:
        """All observed values for an item with the sources claiming each."""
        return self._item_index.get(item, {})

    def source_claims(
        self, source: SourceKey
    ) -> list[tuple[DataItem, Value]]:
        """The (item, value) pairs that were extracted from ``source``."""
        return self._source_index.get(source, [])

    def extractor_cells(
        self, extractor: ExtractorKey
    ) -> dict[Coord, float]:
        """All coordinates touched by ``extractor`` with confidences."""
        return self._extractor_index.get(extractor, {})

    def active_extractors(self, source: SourceKey) -> set[ExtractorKey]:
        """Extractors that extracted at least one triple from ``source``."""
        return self._active_extractors.get(source, set())

    def iter_records(self) -> Iterator[ExtractionRecord]:
        """Reconstruct one record per (coordinate, extractor) cell entry.

        Duplicate input records were already collapsed to their maximum
        confidence, so a rebuilt matrix is cell-identical to this one even
        though ``num_records`` counts the deduplicated entries.
        """
        for (source, item, value), cell in self._cells.items():
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

        Built index-to-index (no intermediate records), so the cost is
        proportional to the retained cells. The retained sources keep
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
        out = object.__new__(ObservationMatrix)
        cells: dict[Coord, dict[ExtractorKey, float]] = {}
        item_index: dict[DataItem, dict[Value, set[SourceKey]]] = {}
        source_index: dict[SourceKey, list[tuple[DataItem, Value]]] = {}
        extractor_index: dict[ExtractorKey, dict[Coord, float]] = {}
        num_records = 0
        for item in sorted(items, key=str):
            values = self._item_index.get(item)
            if not values:
                continue
            item_index[item] = {
                value: set(claiming) for value, claiming in values.items()
            }
            for value, claiming in values.items():
                for source in sorted(claiming, key=str):
                    coord = (source, item, value)
                    cell = dict(self._cells[coord])
                    cells[coord] = cell
                    source_index.setdefault(source, []).append((item, value))
                    for extractor, confidence in cell.items():
                        extractor_index.setdefault(extractor, {})[coord] = (
                            confidence
                        )
                    num_records += len(cell)
        out._cells = cells
        out._item_index = item_index
        out._source_index = source_index
        out._extractor_index = extractor_index
        out._active_extractors = {
            source: set(self._active_extractors.get(source, ()))
            for source in source_index
        }
        out._num_records = num_records
        return out

    def extended(self, other: "ObservationMatrix") -> "ObservationMatrix":
        """A new matrix equal to this one plus ``other``'s extractions.

        Copy-on-write: top-level indexes are (C-speed) dict copies and
        only the entries ``other`` touches get fresh inner structures, so
        folding a small delta into a large matrix costs far less than
        rebuilding from records. Neither input is mutated.
        """
        out = object.__new__(ObservationMatrix)
        out._cells = dict(self._cells)
        out._item_index = dict(self._item_index)
        out._source_index = dict(self._source_index)
        out._extractor_index = dict(self._extractor_index)
        out._active_extractors = dict(self._active_extractors)
        out._num_records = self._num_records + other._num_records

        copied_items: set[DataItem] = set()
        copied_sources: set[SourceKey] = set()
        copied_extractors: set[ExtractorKey] = set()
        copied_active: set[SourceKey] = set()

        for coord, new_cell in other._cells.items():
            source, item, value = coord
            existing = out._cells.get(coord)
            if existing is None:
                cell = dict(new_cell)
                out._cells[coord] = cell
                if item not in copied_items:
                    copied_items.add(item)
                    out._item_index[item] = {
                        v: set(claiming)
                        for v, claiming in out._item_index.get(
                            item, {}
                        ).items()
                    }
                out._item_index[item].setdefault(value, set()).add(source)
                if source not in copied_sources:
                    copied_sources.add(source)
                    out._source_index[source] = list(
                        out._source_index.get(source, ())
                    )
                out._source_index[source].append((item, value))
                updates = new_cell
            else:
                cell = dict(existing)
                out._cells[coord] = cell
                updates = {
                    extractor: confidence
                    for extractor, confidence in new_cell.items()
                    if confidence > cell.get(extractor, 0.0)
                }
                cell.update(updates)
            for extractor, confidence in updates.items():
                if extractor not in copied_extractors:
                    copied_extractors.add(extractor)
                    out._extractor_index[extractor] = dict(
                        out._extractor_index.get(extractor, {})
                    )
                out._extractor_index[extractor][coord] = confidence
            if source not in copied_active:
                copied_active.add(source)
                out._active_extractors[source] = set(
                    out._active_extractors.get(source, ())
                )
            out._active_extractors[source].update(new_cell)
        return out

    # ------------------------------------------------------------------
    # Statistics used by granularity selection and Figure 5
    # ------------------------------------------------------------------
    def source_sizes(self) -> dict[SourceKey, int]:
        """Number of distinct (item, value) triples per source."""
        return {
            source: len(claims) for source, claims in self._source_index.items()
        }

    def extractor_sizes(self) -> dict[ExtractorKey, int]:
        """Number of distinct coordinates per extractor."""
        return {
            extractor: len(cells)
            for extractor, cells in self._extractor_index.items()
        }

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
            for (source, item, value), cell in self._cells.items():
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
