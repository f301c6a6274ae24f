"""Compile an :class:`ObservationMatrix` into integer-indexed arrays.

The pure-Python engine walks ``dict[tuple, ...]`` indexes coordinate by
coordinate; at real corpus sizes that is the bottleneck of Algorithm 1. This
module performs the one-time translation from hashable keys to dense integer
ids so the NumPy engine (:mod:`repro.core.engine_numpy`) can express every
E/M step as segment operations over flat arrays:

* **coordinate rows** — one row per scored (source, item, value) cell, with
  its source id and (when covered) the id of its (item, value) triple;
* **extraction entries** — a COO list of (coordinate, extractor-column,
  confidence) triples, the sparse C-layer evidence;
* **claim segments** — the V-step view: one row per (coordinate, triple)
  claim from an estimable source, grouped so vote counts scatter-add into
  per-triple slots and triples group contiguously per item (CSR offsets in
  ``item_ptr``);
* **active-extractor pairs** — the (source, extractor) incidence used by the
  ACTIVE absence scope and the extractor recall denominator (Eq. 33).

The compilation applies exactly the same eligibility rules as the Python
engine's ``_FitState``: support thresholds, confidence thresholding, and
restriction of V-step claims to estimable sources.

The matrix maintains exactly what this module reads — the cells, the
first-seen key orders with their support sizes, the active-extractor
incidence — so a corpus that exceeds RAM compiles from a chunked record
iterator, and ``observations.release()`` afterwards leaves only the
compiled arrays resident (see ``MultiLayerConfig.spill_dir``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import FalseValueModel, MultiLayerConfig
from repro.core.observation import ObservationMatrix
from repro.core.results import Coord
from repro.core.types import DataItem, ExtractorKey, SourceKey, Value


@dataclass(slots=True)
class CompiledProblem:
    """Integer-indexed view of one inference problem.

    Array naming convention: ``coord_*`` is indexed by scored coordinate,
    ``entry_*`` by extraction entry, ``claim_*`` by V-step claim,
    ``triple_*`` by covered (item, value) triple, ``active_*`` by
    (source, active extractor) pair.
    """

    #: All sources / extractors in first-seen order (ids index these lists).
    sources: list[SourceKey]
    extractors: list[ExtractorKey]
    #: Estimable subsets, as the original keys.
    estimable_sources: set[SourceKey]
    estimable_extractors: set[ExtractorKey]
    #: Extractor-column universe: estimable extractors only. Columns index
    #: the quality arrays (P, R, Q) and the absence-vote totals.
    cols: list[ExtractorKey]

    #: Scored coordinates in cell order.
    coords: list[Coord]
    coord_source: np.ndarray  # (n_coords,) int64 -> sources
    #: Triple id of the coordinate's (item, value), -1 when not covered.
    coord_triple: np.ndarray  # (n_coords,) int64
    #: Item id of the coordinate's item, -1 when the item is not covered.
    coord_item: np.ndarray  # (n_coords,) int64

    #: Extraction entries (COO): which column extracted which coordinate.
    entry_coord: np.ndarray  # (n_entries,) int64 -> coords
    entry_col: np.ndarray  # (n_entries,) int64 -> cols
    entry_conf: np.ndarray  # (n_entries,) float64

    #: V-step claims: scored coordinates whose source is estimable.
    claim_coord: np.ndarray  # (n_claims,) int64 -> coords
    claim_triple: np.ndarray  # (n_claims,) int64 -> triples

    #: Covered triples, grouped contiguously by item.
    triple_item: np.ndarray  # (n_triples,) int64 -> items
    triple_value: list[Value]
    #: CSR offsets: triples of item ``i`` are ``[item_ptr[i], item_ptr[i+1])``.
    item_ptr: np.ndarray  # (n_items + 1,) int64
    items: list[DataItem]
    #: Observed domain size per item (number of covered values).
    item_num_values: np.ndarray  # (n_items,) int64

    #: (source, extractor-column) incidence of active estimable extractors,
    #: for sources with at least one scored coordinate.
    active_src: np.ndarray  # (n_active,) int64 -> sources
    active_col: np.ndarray  # (n_active,) int64 -> cols

    #: Laplace-smoothed empirical value popularity per triple (POPACCU
    #: only; None under ACCU).
    triple_popularity: np.ndarray | None

    #: The EM round's problem-only inputs
    #: (:class:`repro.core.engine_numpy.RoundInvariants`), derived from
    #: the arrays above on first use. Not part of the problem's identity:
    #: never digested, and a copy made with ``dataclasses.replace``
    #: starts without them (``spill_problem_arrays`` gives its mapped
    #: copy its own, spilled).
    invariants: object | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def num_coords(self) -> int:
        return len(self.coords)

    @property
    def num_cols(self) -> int:
        return len(self.cols)

    @property
    def num_items(self) -> int:
        return len(self.items)

    @property
    def num_triples(self) -> int:
        return len(self.triple_value)


def compile_problem(
    observations: ObservationMatrix, cfg: MultiLayerConfig
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

