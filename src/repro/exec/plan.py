"""Shard plans: partition a :class:`CompiledProblem` by data item.

A :class:`ShardPlan` cuts the compiled arrays into ``num_shards``
self-contained :class:`Shard` packets, one contiguous range of data items
each (plus an even spread of the coordinates whose item is not covered).
Keeping whole items together means everything the V step touches — the
claims of an item, its covered triples, the segmented softmax — lives
inside exactly one shard, which is the same decomposition the paper's
MapReduce jobs use (Table 7: TriplePr reduces by data item) and the one
Tabibian et al. exploit for per-item/per-source updates.

Determinism guarantee: every per-coordinate and per-item quantity is
computed from exactly the same elements in exactly the same order as in
a single shard —

* a coordinate's extraction entries are contiguous in the compiled entry
  arrays, and a shard selects entries by coordinate membership in original
  order, so the per-coordinate vote sums accumulate identically;
* a triple's claims are contiguous and a shard holds whole items, so the
  per-triple vote sums and the per-item softmax see identical segments;
* all cross-shard statistics (per-source, per-extractor-column sums) are
  computed by the *driver* over the globally re-assembled arrays, in
  compiled array order.

Results are therefore **bit-identical** for any shard count and any
backend — not merely close.

Shard boundaries balance the per-shard work estimate (coordinates +
claims + extraction entries per item) with a greedy cut over the item
axis, so heavy items do not pile into one shard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import MultiLayerConfig
from repro.core.engine_numpy import _safe_log
from repro.core.indexing import CompiledProblem


@dataclass(frozen=True)
class StageStats:
    """Record counts + reduce group sizes of one MR job (Table 7).

    ``num_mapped`` is the map-phase input cardinality; ``group_sizes``
    the reduce-key group sizes. The simulated cluster cost model
    (:mod:`repro.mapreduce.cluster`) converts these into stage wall
    clock; they are structural, so they are identical in every EM
    iteration.
    """

    num_mapped: int
    group_sizes: tuple[int, ...]


@dataclass(frozen=True)
class Shard:
    """One self-contained slice of the compiled problem.

    ``coord_idx`` maps local coordinates back to global ids (for the
    scatter of ``p_correct``); triples are a contiguous global range
    ``[triple_lo, triple_hi)`` because items are contiguous. All other
    arrays are local-indexed.
    """

    index: int
    #: Global coordinate ids of this shard (ascending).
    coord_idx: np.ndarray
    #: Global source id per local coordinate.
    coord_source: np.ndarray
    #: Local triple / item id per coordinate (-1 when not covered).
    coord_triple: np.ndarray
    coord_item: np.ndarray
    #: Extraction entries restricted to this shard (local coordinate ids,
    #: global column ids — the quality vectors are indexed globally).
    entry_coord: np.ndarray
    entry_col: np.ndarray
    entry_conf: np.ndarray
    #: V-step claims (local coordinate / triple ids, global source ids).
    claim_coord: np.ndarray
    claim_triple: np.ndarray
    claim_source: np.ndarray
    #: Per-claim log value-popularity (POPACCU only).
    claim_log_pop: np.ndarray | None
    #: Global triple range covered by this shard's items.
    triple_lo: int
    triple_hi: int
    #: Local CSR layout of the item -> triple segments.
    triple_item: np.ndarray
    item_ptr: np.ndarray
    #: ``max(n + 1 - |observed values|, 0)`` per local item.
    num_unobserved: np.ndarray

    @property
    def num_coords(self) -> int:
        return len(self.coord_idx)

    @property
    def num_items(self) -> int:
        return len(self.item_ptr) - 1

    @property
    def num_triples(self) -> int:
        return self.triple_hi - self.triple_lo


@dataclass(frozen=True)
class ShardPlan:
    """The partition of one compiled problem into executable shards.

    A plan is the *resident* implementation of the packet-source contract
    the execution backends consume (``num_shards``, the plan-level
    dimensions, and :meth:`get_shard`); :class:`repro.exec.spill.
    OutOfCoreShardSource` is the out-of-core implementation that serves
    the same packets as memory-mapped views of a directory written by
    :meth:`persist`.
    """

    num_shards: int
    shards: tuple[Shard, ...]
    num_coords: int
    num_triples: int
    num_items: int
    num_sources: int
    num_cols: int
    #: The four MR jobs of one EM iteration (Table 7), derived from the
    #: same compiled arrays the shards execute: I ExtCorr, II TriplePr,
    #: III SrcAccu, IV ExtQuality.
    stage_stats: dict[str, StageStats]

    # ------------------------------------------------------------------
    # The packet-source contract (shared with OutOfCoreShardSource)
    # ------------------------------------------------------------------
    def get_shard(self, index: int) -> Shard:
        """The shard packet with ``index`` (resident: a tuple lookup)."""
        return self.shards[index]

    def worker_payload(self, indices: tuple[int, ...]) -> tuple:
        """A picklable recipe for a process-backend worker's shards.

        Resident plans ship the packets themselves (shared copy-on-write
        under ``fork``, pickled once at startup under ``spawn``)."""
        return ("resident", tuple(self.shards[i] for i in indices))

    def persist(self, directory) -> "Path":
        """Spill every shard packet to ``directory`` for out-of-core use.

        Writes one raw ``.npy`` file per packet array plus a JSON
        manifest; see :mod:`repro.exec.spill` for the layout and
        :class:`~repro.exec.spill.OutOfCoreShardSource` for reading the
        packets back as memory-mapped views. Returns the manifest path.
        """
        from repro.exec.spill import persist_plan

        return persist_plan(self, directory)

    @classmethod
    def from_problem(
        cls, prob: CompiledProblem, cfg: MultiLayerConfig, num_shards: int
    ) -> "ShardPlan":
        """Partition ``prob`` into ``num_shards`` item-contiguous shards."""
        if num_shards < 1:
            raise ValueError(
                f"num_shards must be >= 1 (any positive shard count is "
                f"valid, including more shards than data items), got "
                f"{num_shards}"
            )
        n_items = prob.num_items
        n_coords = prob.num_coords

        # --- shard boundaries over the item axis -----------------------
        # Work estimate per item: its coordinates + claims + entries all
        # scale the map cost; approximate with coords + claims (entries
        # follow coords closely).
        covered = prob.coord_item >= 0
        coords_per_item = np.bincount(
            prob.coord_item[covered], minlength=n_items
        )
        claims_per_item = _claims_per_item(prob)
        weight = (coords_per_item + claims_per_item + 1).astype(np.float64)
        cuts = _contiguous_cuts(weight, num_shards)

        # --- uncovered coordinates spread round-robin ------------------
        # Coordinates whose item no estimable source claims still take
        # part in the C step / theta_2; they have no claims, so any
        # placement is equivalent — spread them evenly.
        shard_of_coord = np.empty(n_coords, dtype=np.int64)
        uncovered_idx = np.flatnonzero(~covered)
        if uncovered_idx.size:
            shard_of_coord[uncovered_idx] = (
                np.arange(uncovered_idx.size, dtype=np.int64) % num_shards
            )
        item_shard = np.zeros(max(n_items, 1), dtype=np.int64)
        for s in range(num_shards):
            item_shard[cuts[s] : cuts[s + 1]] = s
        if covered.any():
            shard_of_coord[covered] = item_shard[prob.coord_item[covered]]

        local_coord = np.empty(n_coords, dtype=np.int64)
        entry_shard = shard_of_coord[prob.entry_coord]
        shards = []
        for s in range(num_shards):
            item_lo, item_hi = int(cuts[s]), int(cuts[s + 1])
            coord_idx = np.flatnonzero(shard_of_coord == s)
            local_coord[coord_idx] = np.arange(
                coord_idx.size, dtype=np.int64
            )
            triple_lo = int(prob.item_ptr[item_lo])
            triple_hi = int(prob.item_ptr[item_hi])

            entry_sel = entry_shard == s
            # Claims are grouped by triple and triples by item, so an
            # item-contiguous shard owns one contiguous claim slice.
            claim_lo, claim_hi = np.searchsorted(
                prob.claim_triple, [triple_lo, triple_hi]
            )
            claim_coord_g = prob.claim_coord[claim_lo:claim_hi]
            claim_triple_g = prob.claim_triple[claim_lo:claim_hi]

            coord_triple_g = prob.coord_triple[coord_idx]
            coord_item_g = prob.coord_item[coord_idx]
            coord_triple_l = np.where(
                coord_triple_g >= 0, coord_triple_g - triple_lo, -1
            )
            coord_item_l = np.where(
                coord_item_g >= 0, coord_item_g - item_lo, -1
            )

            shards.append(
                Shard(
                    index=s,
                    coord_idx=coord_idx,
                    coord_source=prob.coord_source[coord_idx],
                    coord_triple=coord_triple_l,
                    coord_item=coord_item_l,
                    entry_coord=local_coord[prob.entry_coord[entry_sel]],
                    entry_col=prob.entry_col[entry_sel],
                    entry_conf=prob.entry_conf[entry_sel],
                    claim_coord=local_coord[claim_coord_g],
                    claim_triple=claim_triple_g - triple_lo,
                    claim_source=prob.coord_source[claim_coord_g],
                    claim_log_pop=(
                        _safe_log(prob.triple_popularity)[claim_triple_g]
                        if prob.triple_popularity is not None
                        else None
                    ),
                    triple_lo=triple_lo,
                    triple_hi=triple_hi,
                    triple_item=prob.triple_item[triple_lo:triple_hi]
                    - item_lo,
                    item_ptr=prob.item_ptr[item_lo : item_hi + 1]
                    - triple_lo,
                    num_unobserved=num_unobserved(
                        cfg, prob.item_num_values[item_lo:item_hi]
                    ),
                )
            )

        return cls(
            num_shards=num_shards,
            shards=tuple(shards),
            num_coords=n_coords,
            num_triples=prob.num_triples,
            num_items=n_items,
            num_sources=len(prob.sources),
            num_cols=prob.num_cols,
            stage_stats=_stage_stats(prob, claims_per_item),
        )


def num_unobserved(
    cfg: MultiLayerConfig, item_num_values: np.ndarray
) -> np.ndarray:
    """``max(n + 1 - |observed values|, 0)`` per item, as float64."""
    return np.maximum(cfg.n + 1 - item_num_values, 0).astype(np.float64)


def _contiguous_cuts(weight: np.ndarray, num_shards: int) -> np.ndarray:
    """Item-axis cut points balancing cumulative work across shards.

    Returns ``num_shards + 1`` monotone offsets with ``cuts[0] == 0`` and
    ``cuts[-1] == len(weight)``; empty shards are allowed when there are
    fewer items than shards.
    """
    if num_shards < 1:
        raise ValueError(
            f"num_shards must be >= 1 (any positive shard count is "
            f"valid), got {num_shards}"
        )
    n_items = len(weight)
    if n_items == 0:
        return np.zeros(num_shards + 1, dtype=np.int64)
    cumulative = np.cumsum(weight)
    targets = cumulative[-1] * np.arange(1, num_shards) / num_shards
    inner = np.searchsorted(cumulative, targets, side="left") + 1
    cuts = np.concatenate(([0], inner, [n_items])).astype(np.int64)
    return np.maximum.accumulate(np.minimum(cuts, n_items))


def _claims_per_item(prob: CompiledProblem) -> np.ndarray:
    """V-step claims per item (shard balancing + stage II group sizes)."""
    if not prob.num_items:
        return np.zeros(0, dtype=np.int64)
    return np.add.reduceat(
        np.bincount(prob.claim_triple, minlength=prob.num_triples),
        prob.item_ptr[:-1],
    )


def _stage_stats(
    prob: CompiledProblem, claims_per_item: np.ndarray | None = None
) -> dict[str, StageStats]:
    """The Table 7 job statistics of one EM iteration.

    Mirrors the record routing of the paper's dataflow: stage I maps one
    record per extraction entry and reduces by coordinate; stage II maps
    the scored coordinates and reduces the estimable-source claims by
    data item; stage III maps the scored coordinates and reduces by
    source; stage IV re-reads the extraction entries and reduces by
    extractor column.
    """
    n_entries = len(prob.entry_coord)
    n_coords = prob.num_coords
    entries_per_coord = np.bincount(prob.entry_coord, minlength=n_coords)
    if claims_per_item is None:
        claims_per_item = _claims_per_item(prob)
    coords_per_source = np.bincount(
        prob.coord_source, minlength=len(prob.sources)
    )
    entries_per_col = np.bincount(prob.entry_col, minlength=prob.num_cols)

    def sizes(counts: np.ndarray) -> tuple[int, ...]:
        return tuple(int(c) for c in counts if c > 0)

    return {
        "ext_corr": StageStats(n_entries, sizes(entries_per_coord)),
        "triple_pr": StageStats(n_coords, sizes(claims_per_item)),
        "src_accu": StageStats(n_coords, sizes(coords_per_source)),
        "ext_quality": StageStats(n_entries, sizes(entries_per_col)),
    }


def resolve_num_shards(
    cfg: MultiLayerConfig, prob: CompiledProblem
) -> int:
    """``cfg.num_shards``; unset, one shard per CPU capped at the item
    count — or a single shard when neither a backend nor a spill
    directory (whose packets bound resident memory) is selected."""
    if cfg.num_shards is not None:
        return cfg.num_shards
    if cfg.backend is None and cfg.spill_dir is None:
        return 1
    import os

    return max(1, min(os.cpu_count() or 1, max(prob.num_items, 1)))
