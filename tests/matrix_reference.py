"""The dict-backed observation matrix and its compile, as they were
before the matrix held integer columns: the parity reference of
``tests/test_matrix_parity.py``, and the matrix the dict oracles walk.

``ReferenceMatrix`` is the former ``ObservationMatrix`` and
``reference_compile_problem`` the former ``compile_problem``, copied
verbatim but for their names: a matrix holds one dict per cell, built
by one loop over the records, and the compile walks those cells. The
library's columnar matrix and array compile must equal them — every
``CompiledProblem`` array and list, every cell and every counter.

``reference_of`` converts a library matrix, which holds columns only,
into a ``ReferenceMatrix``: the dict views (``cells``, ``triples``,
``source_claims``, ``active_extractors``, ``iter_records``, ...) that
the oracles and the tests read live here, not in ``src/``. ``plans_of``
turns the key maps ``ReferenceMatrix.relabel`` takes into the id plans
the library's ``relabel`` takes.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator

import numpy as np

from repro.core.config import FalseValueModel, MultiLayerConfig
from repro.core.granularity import GranularityPlan
from repro.core.indexing import CompiledProblem
from repro.core.observation import ObservationMatrix
from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    SourceKey,
    Value,
    new_record,
)

#: A (source, item, value) coordinate of the C layer.
Coord = tuple[SourceKey, DataItem, Value]


class ReferenceMatrix:
    """Immutable-after-build sparse view of all extractions.

    Build with :meth:`from_records` (or :meth:`from_cells`, from the
    cells of another matrix); the constructor is private API.
    """

    def __init__(self, records: Iterable[ExtractionRecord]) -> None:
        # One loop over the records, names bound locally. A record
        # hashes its coordinate once and its extractor once, into its
        # cell; a new entry's extractor is counted after the loop. A
        # duplicate (e, w, d, v) keeps its maximum confidence and
        # changes nothing else; a record that does not beat its cell
        # still counts.
        cells: dict[Coord, dict[ExtractorKey, float]] = {}
        fresh: dict[ExtractorKey, float] = {}
        entries: list[ExtractorKey] = []  # the extractor of each new entry
        add_entry = entries.append
        count = 0
        for extractor, source, item, value, confidence in records:
            count += 1
            cell = cells.setdefault((source, item, value), fresh)
            if cell is fresh:
                fresh = {}
                cell[extractor] = confidence
            else:
                size = len(cell)
                known = cell.setdefault(extractor, confidence)
                if len(cell) == size:
                    if confidence > known:
                        cell[extractor] = confidence
                    continue
            add_entry(extractor)
        # Counter keeps first-insertion order: extractors rank by their
        # first entry, as they did when each entry counted itself.
        self._index(cells, Counter(entries), count)

    def _index(
        self,
        cells: dict[Coord, dict[ExtractorKey, float]],
        extractor_sizes: dict[ExtractorKey, int],
        num_records: int,
    ) -> None:
        """Hold ``cells`` and derive the per-source counters from them."""
        # source -> number of cells; insertion order is the sources'
        # first-seen order, as a source's first record opens its first
        # cell
        source_sizes: dict[SourceKey, int] = {}
        # source -> extractors with >= 1 extraction from it: every
        # record leaves its extractor in its cell, winning or not
        active: dict[SourceKey, set[ExtractorKey]] = {}
        for coord, cell in cells.items():
            source = coord[0]
            source_sizes[source] = source_sizes.get(source, 0) + 1
            seen = active.get(source)
            if seen is None:
                active[source] = set(cell)
            else:
                seen.update(cell)
        # coordinate -> {extractor: confidence}; None once released
        self._cells: dict[Coord, dict[ExtractorKey, float]] | None = cells
        self._source_sizes = source_sizes
        # extractor -> number of cells it is in, in first-seen order
        self._extractor_sizes = dict(extractor_sizes)
        self._active_extractors = active
        self._num_records = num_records
        # Derived views, None until read. Each is built into a local and
        # assigned once, so racing readers build equal values: no lock.
        self._by_item = self._by_source = self._by_extractor = None
        self._num_triples: int | None = None

    @classmethod
    def from_records(
        cls, records: Iterable[ExtractionRecord]
    ) -> "ReferenceMatrix":
        """Build the matrix from extraction records (any iterable).

        A corpus that arrives in chunks is one
        ``itertools.chain.from_iterable(chunks)``: no record outlives
        its fold into a cell.
        """
        return cls(records)

    @classmethod
    def from_cells(
        cls,
        coords: Iterable[Coord],
        lens: Iterable[int],
        extractors: list[ExtractorKey],
        confidences: list[float],
        extractor_order: Iterable[ExtractorKey] | None = None,
    ) -> "ReferenceMatrix":
        """Build the matrix from cells as another matrix held them.

        Cell ``k`` is ``coords[k]`` with the next ``lens[k]`` entries of
        ``extractors`` / ``confidences``: distinct coordinates, distinct
        extractors within a cell, every confidence positive — what
        :meth:`cells` yields. The result equals :meth:`from_records`
        over :meth:`iter_records` of that matrix (cells, sizes, active
        sets, ``num_records``), without building a record.

        ``extractor_order`` restores the source matrix's first-seen
        extractor order, which the compiled column order follows; left
        out, extractors rank by first entry, as :meth:`from_records`
        over the entries ranks them.
        """
        cells = {}
        start = 0
        for coord, length in zip(coords, lens):
            stop = start + length
            cells[coord] = dict(
                zip(extractors[start:stop], confidences[start:stop])
            )
            start = stop
        if start != len(extractors) or len(confidences) != start:
            raise ValueError(
                f"the cells hold {start} entries, but there are "
                f"{len(extractors)} extractors and {len(confidences)} "
                "confidences"
            )
        sizes = Counter(extractors)
        if extractor_order is not None:
            order = list(extractor_order)
            if len(order) != len(sizes) or sizes.keys() != set(order):
                raise ValueError(
                    "extractor_order must list each extractor of the "
                    "cells exactly once"
                )
            sizes = {extractor: sizes[extractor] for extractor in order}
        out = cls(())
        out._index(cells, sizes, len(extractors))
        return out

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
        rebuilt from them (:meth:`from_cells`, an artifact reload) lists
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
                yield new_record(
                    ExtractionRecord,
                    (extractor, source, item, value, confidence),
                )

    def restricted_to_items(
        self, items: set[DataItem]
    ) -> "ReferenceMatrix":
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
        out = ReferenceMatrix(())
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

    def extended(self, other: "ReferenceMatrix") -> "ReferenceMatrix":
        """A new matrix equal to this one plus ``other``'s extractions.

        Copy-on-write: the top-level dicts are (C-speed) copies and only
        the entries ``other`` touches get fresh inner structures, so
        folding a small delta into a large matrix costs far less than
        rebuilding from records. A by-item view this matrix has already
        derived is carried forward the same way, so a chain of updates
        derives it once. Neither input is mutated.
        """
        out = ReferenceMatrix(())
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
    ) -> "ReferenceMatrix":
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
                    yield new_record(
                        ExtractionRecord,
                        (new_extractor, new_source, item, value, confidence),
                    )

        return ReferenceMatrix(iter_relabelled())


def reference_of(matrix: ObservationMatrix) -> ReferenceMatrix:
    """``matrix`` as a :class:`ReferenceMatrix`: its cells as
    ``columns()`` holds them, its extractor order, its ``num_records``,
    and its ``active_pairs()`` as the active-extractor sets."""
    columns = matrix.columns()
    sources = list(matrix.sources())
    extractors = list(matrix.extractors())
    out = ReferenceMatrix.from_cells(
        columns.coords,
        np.bincount(columns.entry_cell, minlength=len(columns.coords)),
        [extractors[e] for e in columns.entry_extractor.tolist()],
        columns.entry_conf.tolist(),
        extractor_order=extractors,
    )
    out._num_records = matrix.num_records
    out._active_extractors = {}
    source_ids, extractor_ids = matrix.active_pairs()
    for source, extractor in zip(source_ids.tolist(), extractor_ids.tolist()):
        out._active_extractors.setdefault(sources[source], set()).add(
            extractors[extractor]
        )
    return out


def plans_of(
    matrix: ObservationMatrix,
    source_map: Callable[..., SourceKey] | None = None,
    extractor_map: Callable[..., ExtractorKey] | None = None,
) -> tuple[GranularityPlan | None, GranularityPlan | None]:
    """The key maps :meth:`ReferenceMatrix.relabel` takes as the plans
    ``ObservationMatrix.relabel`` takes: the source map's key for each
    cell and the extractor map's key for each entry (``None`` for a map
    left out)."""
    columns = matrix.columns()
    sources = list(matrix.sources())
    extractors = list(matrix.extractors())
    cell_keys = entry_keys = None
    if source_map:
        cell_keys = [
            source_map(sources[source], *coord[1:])
            for source, coord in zip(
                columns.cell_source.tolist(), columns.coords
            )
        ]
    if extractor_map:
        entry_keys = [
            extractor_map(extractors[extractor], *columns.coords[cell][1:])
            for extractor, cell in zip(
                columns.entry_extractor.tolist(), columns.entry_cell.tolist()
            )
        ]
    return plan_of(cell_keys), plan_of(entry_keys)


def plan_of(keys: list | None) -> GranularityPlan | None:
    """One final key per ref as a plan: the distinct keys and their ids."""
    if keys is None:
        return None
    table: dict = {}
    ids = [table.setdefault(key, len(table)) for key in keys]
    return GranularityPlan(list(table), np.array(ids, dtype=np.int64))


def reference_compile_problem(
    observations: ReferenceMatrix, cfg: MultiLayerConfig
) -> CompiledProblem:
    """Translate the sparse observation matrix into dense integer arrays.

    Applies the same filtering as the Python engine: support thresholds
    select the estimable sources/extractors, confidences are restricted to
    estimable extractors and optionally binarised at the configured
    threshold, and V-step claims keep only estimable-source coordinates.
    """
    extractor_sizes = observations.extractor_sizes()
    source_sizes = observations.source_sizes()
    estimable_extractors = {
        e
        for e, size in extractor_sizes.items()
        if size >= cfg.min_extractor_support
    }
    estimable_sources = {
        w for w, size in source_sizes.items() if size >= cfg.min_source_support
    }

    sources = list(observations.sources())
    extractors = list(observations.extractors())
    source_id = {source: i for i, source in enumerate(sources)}
    cols = [e for e in extractors if e in estimable_extractors]
    col_id = {extractor: i for i, extractor in enumerate(cols)}

    threshold = cfg.confidence_threshold
    coords: list[Coord] = []
    coord_source: list[int] = []
    entry_coord: list[int] = []
    entry_col: list[int] = []
    entry_conf: list[float] = []
    for coord, cell in observations.cells():
        first_entry = len(entry_coord)
        ci = len(coords)
        for extractor, confidence in cell.items():
            column = col_id.get(extractor)
            if column is None:
                continue
            if threshold is not None:
                if confidence > threshold:
                    entry_coord.append(ci)
                    entry_col.append(column)
                    entry_conf.append(1.0)
            else:
                entry_coord.append(ci)
                entry_col.append(column)
                entry_conf.append(confidence)
        if len(entry_coord) == first_entry:
            continue  # nothing survived filtering: the cell is not scored
        coords.append(coord)
        coord_source.append(source_id[coord[0]])

    # Covered triples: (item, value) pairs claimed by estimable sources,
    # grouped by item in first-seen order like the Python item_claims index.
    item_values: dict[DataItem, dict[Value, list[int]]] = {}
    for ci, coord in enumerate(coords):
        source, item, value = coord
        if source not in estimable_sources:
            continue
        item_values.setdefault(item, {}).setdefault(value, []).append(ci)

    items = list(item_values)
    triple_item: list[int] = []
    triple_value: list[Value] = []
    item_ptr = [0]
    item_num_values: list[int] = []
    claim_coord: list[int] = []
    claim_triple: list[int] = []
    triple_id: dict[tuple[DataItem, Value], int] = {}
    for ii, (item, values) in enumerate(item_values.items()):
        for value, claim_cis in values.items():
            ti = len(triple_value)
            triple_id[(item, value)] = ti
            triple_item.append(ii)
            triple_value.append(value)
            claim_coord.extend(claim_cis)
            claim_triple.extend([ti] * len(claim_cis))
        item_ptr.append(len(triple_value))
        item_num_values.append(len(values))

    coord_triple = [
        triple_id.get((coord[1], coord[2]), -1) for coord in coords
    ]
    item_id = {item: ii for ii, item in enumerate(items)}
    coord_item = [item_id.get(coord[1], -1) for coord in coords]

    # Active-extractor incidence for sources with scored coordinates.
    # Sorted by column id: active_extractors() hands back a *set*, and
    # set order varies between processes (id-based hashes), which would
    # re-associate the ACTIVE-scope absence sums and make separately
    # launched fits differ in the last bits. Sorting pins one canonical
    # summation order, so equal inputs give bit-equal fits across
    # processes (the out-of-core bench compares exactly that).
    active_src: list[int] = []
    active_col: list[int] = []
    for si in sorted(set(coord_source)):
        source = sources[si]
        for column in sorted(
            col_id[extractor]
            for extractor in observations.active_extractors(source)
            if extractor in col_id
        ):
            active_src.append(si)
            active_col.append(column)

    triple_popularity: np.ndarray | None = None
    if cfg.false_value_model is FalseValueModel.POPACCU:
        counts = np.bincount(
            np.asarray(claim_triple, dtype=np.int64),
            minlength=len(triple_value),
        ).astype(np.float64)
        ptr = np.asarray(item_ptr, dtype=np.int64)
        if items:
            per_item_total = np.add.reduceat(counts, ptr[:-1])
        else:
            per_item_total = np.zeros(0)
        denom = per_item_total + np.asarray(item_num_values, dtype=np.float64)
        triple_popularity = (counts + 1.0) / denom[
            np.asarray(triple_item, dtype=np.int64)
        ]

    return CompiledProblem(
        sources=sources,
        extractors=extractors,
        estimable_sources=estimable_sources,
        estimable_extractors=estimable_extractors,
        cols=cols,
        coords=coords,
        coord_source=np.asarray(coord_source, dtype=np.int64),
        coord_triple=np.asarray(coord_triple, dtype=np.int64),
        coord_item=np.asarray(coord_item, dtype=np.int64),
        entry_coord=np.asarray(entry_coord, dtype=np.int64),
        entry_col=np.asarray(entry_col, dtype=np.int64),
        entry_conf=np.asarray(entry_conf, dtype=np.float64),
        claim_coord=np.asarray(claim_coord, dtype=np.int64),
        claim_triple=np.asarray(claim_triple, dtype=np.int64),
        triple_item=np.asarray(triple_item, dtype=np.int64),
        triple_value=triple_value,
        item_ptr=np.asarray(item_ptr, dtype=np.int64),
        items=items,
        item_num_values=np.asarray(item_num_values, dtype=np.int64),
        active_src=np.asarray(active_src, dtype=np.int64),
        active_col=np.asarray(active_col, dtype=np.int64),
        triple_popularity=triple_popularity,
    )

