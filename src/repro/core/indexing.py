"""Compile an :class:`ObservationMatrix` into integer-indexed arrays.

The dict oracle of Algorithm 1 (``tests/multi_layer_reference.py``) walks
``dict[tuple, ...]`` indexes coordinate by coordinate; at real corpus sizes
that is the bottleneck. This module performs the one-time translation from
hashable keys to dense integer ids so the array engine
(:mod:`repro.core.engine_numpy`) can express every E/M step as segment
operations over flat arrays:

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

The compilation applies exactly the same eligibility rules as the oracle:
support thresholds, confidence thresholding, and restriction of V-step
claims to estimable sources.

The matrix holds exactly what this module reads — its cells as key
tables plus integer columns, in first-seen key order
(:meth:`~repro.core.observation.ObservationMatrix.columns`), and the
active-extractor incidence
(:meth:`~repro.core.observation.ObservationMatrix.active_pairs`) — and
the compile is array work over them, no loop over cells. A corpus that
exceeds RAM compiles from a chunked record iterator, and
``observations.release()`` afterwards drops the columns and the key
indexes, leaving only the compiled arrays and the matrix's counters
resident (see ``MultiLayerConfig.spill_dir``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

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

    #: Each scored coordinate's item and value id in the matrix's
    #: tables, and each column's extractor id (an index into
    #: ``extractors``): what result assembly keys its tables by, as the
    #: matrix may be released by then. Set by :func:`compile_problem`
    #: and not digested; ``replace`` does not copy them, so a copy sets
    #: them itself (:func:`~repro.exec.spill.spill_problem_arrays`).
    coord_matrix_item: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    coord_matrix_value: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    col_extractor: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

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


def claims_per_item(prob: CompiledProblem) -> np.ndarray:
    """V-step claims per item: the shard planner's work estimate and the
    Table 7 TriplePr reduce-group sizes."""
    if not prob.num_items:
        return np.zeros(0, dtype=np.int64)
    return np.add.reduceat(
        np.bincount(prob.claim_triple, minlength=prob.num_triples),
        prob.item_ptr[:-1],
    )


def compile_problem(
    observations: ObservationMatrix, cfg: MultiLayerConfig
) -> CompiledProblem:
    """Translate the sparse observation matrix into dense integer arrays.

    Applies the same filtering as the dict oracle: support thresholds
    select the estimable sources/extractors, confidences are restricted to
    estimable extractors and optionally binarised at the configured
    threshold, and V-step claims keep only estimable-source coordinates.
    Every step is array work over the matrix's columns.
    """
    cells = observations.columns()
    sources = list(observations.sources())
    extractors = list(observations.extractors())
    source_ok = (
        np.bincount(cells.cell_source, minlength=len(sources))
        >= cfg.min_source_support
    )
    extractor_ok = (
        np.bincount(cells.entry_extractor, minlength=len(extractors))
        >= cfg.min_extractor_support
    )
    cols = list(compress(extractors, extractor_ok))
    col_of = np.cumsum(extractor_ok) - 1  # read where extractor_ok

    # Entries of estimable extractors (above the threshold, when one is
    # set); a cell with none left is not scored.
    keep = extractor_ok[cells.entry_extractor]
    threshold = cfg.confidence_threshold
    if threshold is not None:
        keep &= cells.entry_conf > threshold
    entry_cell = cells.entry_cell[keep]
    scored = np.zeros(len(cells.coords), dtype=bool)
    scored[entry_cell] = True
    scored_cells = np.flatnonzero(scored)
    coords = list(map(cells.coords.__getitem__, scored_cells.tolist()))
    coord_source = cells.cell_source[scored_cells]
    entry_conf = (
        cells.entry_conf[keep]
        if threshold is None
        else np.ones(len(entry_cell), dtype=np.float64)
    )

    # Covered triples: (item, value) pairs claimed by estimable sources,
    # grouped by item in first-seen order like the Python item_claims
    # index, each item's values in first-seen order; claims in
    # coordinate order within their triple.
    coord_item_id = cells.cell_item[scored_cells]
    n_values = int(cells.cell_value.max()) + 1 if len(cells.coords) else 1
    coord_pair = coord_item_id * n_values + cells.cell_value[scored_cells]
    claims = np.flatnonzero(source_ok[coord_source])
    pairs, pair_first, pair_of = np.unique(
        coord_pair[claims], return_index=True, return_inverse=True
    )
    known_items, item_first = np.unique(
        coord_item_id[claims], return_index=True
    )
    # Each item id's rank by first claim; -1 when no claim covers it.
    item_rank = np.full(
        int(cells.cell_item.max()) + 1 if len(cells.coords) else 0, -1
    )
    item_rank[known_items[np.argsort(item_first)]] = np.arange(
        len(known_items)
    )
    triple_item = item_rank[pairs // n_values]
    triple_order = np.lexsort((pair_first, triple_item))
    triple_of_pair = np.empty(len(pairs), dtype=np.int64)
    triple_of_pair[triple_order] = np.arange(len(pairs))
    claim_triple = triple_of_pair[pair_of]
    by_triple = np.argsort(claim_triple, kind="stable")
    first_claim = claims[pair_first[triple_order]].tolist()
    item_num_values = np.bincount(triple_item, minlength=len(known_items))

    # Active-extractor incidence for sources with scored coordinates,
    # in one canonical summation order: sorted by (source, column), as
    # ``active_pairs`` sorts by (source, extractor) and columns keep the
    # extractor order. Set order varies between processes (id-based
    # hashes) and would re-associate the ACTIVE-scope absence sums, so
    # separately launched fits would differ in the last bits; this order
    # makes equal inputs give bit-equal fits across processes (the
    # out-of-core bench compares exactly that).
    active_source, active_extractor = observations.active_pairs()
    has_coord = np.zeros(len(sources), dtype=bool)
    has_coord[coord_source] = True
    live = has_coord[active_source] & extractor_ok[active_extractor]

    triple_popularity: np.ndarray | None = None
    if cfg.false_value_model is FalseValueModel.POPACCU:
        counts = np.bincount(
            claim_triple, minlength=len(triple_order)
        ).astype(np.float64)
        if len(known_items):
            per_item_total = np.add.reduceat(
                counts, np.cumsum(item_num_values) - item_num_values
            )
        else:
            per_item_total = np.zeros(0)
        denom = per_item_total + item_num_values.astype(np.float64)
        triple_popularity = (counts + 1.0) / denom[
            triple_item[triple_order]
        ]

    prob = CompiledProblem(
        sources=sources,
        extractors=extractors,
        estimable_sources=set(compress(sources, source_ok)),
        estimable_extractors=set(cols),
        cols=cols,
        coords=coords,
        coord_source=coord_source,
        coord_triple=_lookup(pairs, triple_of_pair, coord_pair),
        coord_item=item_rank[coord_item_id],
        entry_coord=(np.cumsum(scored) - 1)[entry_cell],
        entry_col=col_of[cells.entry_extractor[keep]],
        entry_conf=entry_conf,
        claim_coord=claims[by_triple],
        claim_triple=claim_triple[by_triple],
        triple_item=triple_item[triple_order],
        triple_value=[coords[ci][2] for ci in first_claim],
        item_ptr=np.concatenate([[0], np.cumsum(item_num_values)]),
        items=[coords[ci][1] for ci in claims[np.sort(item_first)].tolist()],
        item_num_values=item_num_values,
        active_src=active_source[live],
        active_col=col_of[active_extractor[live]],
        triple_popularity=triple_popularity,
    )
    prob.coord_matrix_item = coord_item_id
    prob.coord_matrix_value = cells.cell_value[scored_cells]
    prob.col_extractor = np.flatnonzero(extractor_ok)
    return prob


def _lookup(keys: np.ndarray, ids: np.ndarray, queries: np.ndarray):
    """``ids[k]`` where ``keys[k] == query`` (``keys`` sorted), else -1."""
    if not len(keys):
        return np.full(len(queries), -1, dtype=np.int64)
    at = np.minimum(np.searchsorted(keys, queries), len(keys) - 1)
    return np.where(keys[at] == queries, ids[at], -1)
