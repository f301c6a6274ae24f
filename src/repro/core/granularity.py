"""Dynamic granularity selection: the SPLITANDMERGE algorithm (Section 4).

Sources and extractors live in hierarchies (``<website, predicate, webpage>``
and ``<extractor, pattern, predicate, website>``). SPLITANDMERGE walks a
worklist of keys:

* a key with more than ``M`` triples is **split** uniformly at random into
  ``ceil(|W| / M)`` bucketed sub-keys (each lands directly in the output);
* a key with fewer than ``m`` triples is **merged** into its parent — all
  too-small siblings sharing the parent pool their triples, and the parent
  re-enters the worklist (so merging can cascade upward and an over-merged
  parent can be split again, as in Example 4.2);
* keys already in ``[m, M]`` are emitted unchanged.

The triples are numbered refs and a key owns an array of them: the
per-key steps run in Python, the per-triple ones are array work. The
result is a :class:`GranularityPlan`: a final key table and each ref's
final key id — one per cell for sources, one per entry for extractors —
which ``ObservationMatrix.relabel`` takes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Protocol, TypeVar

import numpy as np

from repro.core.config import GranularityConfig
from repro.core.observation import ObservationMatrix
from repro.core.types import ExtractorKey, SourceKey
from repro.util.rng import derive_rng


class HierarchicalKey(Protocol):
    """Anything with a parent and split buckets (SourceKey, ExtractorKey)."""

    bucket: int | None

    def parent(self) -> "HierarchicalKey | None": ...

    def child_bucket(self, bucket: int) -> "HierarchicalKey": ...


K = TypeVar("K", SourceKey, ExtractorKey)


@dataclass(frozen=True)
class GranularityPlan:
    """Reassignment of keys produced by SPLITANDMERGE.

    Ref ``r`` goes to the final key ``keys[ids[r]]``. ``rounds`` traces
    the algorithm: the worklist group sizes examined in each merge round
    (used by the Table 7 cost model to price preparation).
    """

    keys: list
    ids: np.ndarray
    rounds: tuple[tuple[int, ...], ...] = ()


class SplitAndMerge:
    """Algorithm 2, generic over the source and extractor hierarchies.

    ``merge_small=False`` gives the split-only variant of Table 7: oversized
    keys are still split, but undersized keys are kept as-is instead of
    being merged into their parents.

    A key that cannot move is kept as it is: an undersized key at the top
    of its hierarchy (it has no parent), and an oversized key that is
    already a split bucket (a bucket is not split again).
    """

    def __init__(
        self,
        config: GranularityConfig | None = None,
        seed: int = 0,
        merge_small: bool = True,
    ) -> None:
        self._config = config or GranularityConfig()
        self._seed = seed
        self._merge_small = merge_small

    @property
    def config(self) -> GranularityConfig:
        return self._config

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, keys: list[K], group_of: np.ndarray) -> GranularityPlan:
        """Run SPLITANDMERGE over refs ``0 .. len(group_of) - 1``, ref
        ``r`` owned by ``keys[group_of[r]]``. Every key enters the first
        round in table order, owning its refs in ref order (or none)."""
        m = self._config.min_size
        big = self._config.max_size
        order = np.argsort(group_of, kind="stable")
        ends = np.cumsum(np.bincount(group_of, minlength=len(keys)))
        work: dict[K, np.ndarray] = dict(zip(keys, np.split(order, ends[:-1])))
        ids = np.empty(len(group_of), dtype=np.int64)
        final: dict[K, int] = {}
        rounds: list[tuple[int, ...]] = []

        def emit(key: K, refs: np.ndarray) -> None:
            if len(refs):
                ids[refs] = final.setdefault(key, len(final))

        while work:
            rounds.append(tuple(map(len, work.values())))
            merged: dict[K, list[np.ndarray]] = {}
            for key, refs in work.items():
                if len(refs) > big and key.bucket is None:
                    for bucket_key, bucket_refs in self._split(key, refs):
                        emit(bucket_key, bucket_refs)
                elif len(refs) < m and self._merge_small and (
                    parent := key.parent()
                ) is not None:
                    merged.setdefault(parent, []).append(refs)
                else:
                    emit(key, refs)
            work = {
                key: np.concatenate(parts) for key, parts in merged.items()
            }
        return GranularityPlan(list(final), ids, tuple(rounds))

    def _split(
        self, key: K, refs: np.ndarray
    ) -> list[tuple[K, np.ndarray]]:
        """Uniformly distribute ``refs`` into ceil(|refs| / M) buckets:
        a seeded shuffle, then dealt round-robin."""
        num_buckets = -(-len(refs) // self._config.max_size)  # ceil div
        shuffled = list(range(len(refs)))
        derive_rng(self._seed, "split", repr(key)).shuffle(shuffled)
        shuffled = refs[shuffled]
        return [
            (key.child_bucket(bucket), shuffled[bucket::num_buckets])
            for bucket in range(num_buckets)
        ]

    # ------------------------------------------------------------------
    # ObservationMatrix integration
    # ------------------------------------------------------------------
    def plan_sources(self, observations: ObservationMatrix) -> GranularityPlan:
        """Plan source granularity from the matrix's per-source triples:
        the refs are the cells, so the plan has one id per cell."""
        return self.plan(
            list(observations.sources()), observations.columns().cell_source
        )

    def plan_extractors(
        self, observations: ObservationMatrix
    ) -> GranularityPlan:
        """Plan extractor granularity from per-extractor extraction counts:
        the refs are an extractor's distinct (item, value) pairs, in the
        order of their first cells. The plan has one id per entry."""
        columns = observations.columns()
        values = columns.cell_value
        span = int(values.max()) + 1 if len(values) else 1
        triple = (columns.cell_item * span + values)[columns.entry_cell]
        extractor = columns.entry_extractor
        span = int(triple.max()) + 1 if len(triple) else 1
        _pairs, first, pair_of = np.unique(
            extractor * span + triple, return_index=True, return_inverse=True
        )
        # The refs are the (extractor, triple) pairs by first entry.
        by_entry = np.argsort(first)
        plan = self.plan(
            list(observations.extractors()), extractor[first[by_entry]]
        )
        # ``argsort`` inverts the permutation: each pair's ref number.
        return replace(plan, ids=plan.ids[np.argsort(by_entry)[pair_of]])

    def apply(self, observations: ObservationMatrix) -> ObservationMatrix:
        """Plan and relabel in one step; returns the regrouped matrix."""
        return observations.relabel(
            self.plan_sources(observations),
            self.plan_extractors(observations),
        )
