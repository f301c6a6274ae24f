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

The result is a :class:`GranularityPlan`: a per-triple mapping from original
keys to final keys that can be fed to ``ObservationMatrix.relabel``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, TypeVar

import numpy as np

from repro.core.config import GranularityConfig
from repro.core.observation import ObservationMatrix
from repro.core.types import DataItem, ExtractorKey, SourceKey, Value
from repro.util.rng import derive_rng


class HierarchicalKey(Protocol):
    """Anything with a parent and split buckets (SourceKey, ExtractorKey)."""

    def parent(self) -> "HierarchicalKey | None": ...

    def child_bucket(self, bucket: int) -> "HierarchicalKey": ...


K = TypeVar("K", SourceKey, ExtractorKey)

#: A triple reference: (original finest key, item, value).
TripleRef = tuple[object, DataItem, Value]


@dataclass(frozen=True)
class GranularityPlan:
    """Per-triple reassignment of keys produced by SPLITANDMERGE.

    ``mapping`` sends (original key, item, value) to the final key. Keys
    absent from the plan (never observed when planning) map to themselves.
    ``rounds`` traces the algorithm: the worklist group sizes examined in
    each merge round (used by the Table 7 cost model to price preparation).
    """

    mapping: dict[tuple[object, DataItem, Value], object]
    rounds: tuple[tuple[int, ...], ...] = ()

    def __call__(self, key, item: DataItem, value: Value):
        return self.mapping.get((key, item, value), key)

    def final_sizes(self) -> dict[object, int]:
        """Number of triples assigned to each final key."""
        sizes: dict[object, int] = {}
        for final_key in self.mapping.values():
            sizes[final_key] = sizes.get(final_key, 0) + 1
        return sizes

    @property
    def num_final_keys(self) -> int:
        return len(set(self.mapping.values()))


class SplitAndMerge:
    """Algorithm 2, generic over the source and extractor hierarchies.

    ``merge_small=False`` gives the split-only variant of Table 7: oversized
    keys are still split, but undersized keys are kept as-is instead of
    being merged into their parents.
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
    def plan(self, groups: dict[K, list[TripleRef]]) -> GranularityPlan:
        """Run SPLITANDMERGE over ``groups`` (key -> owned triple refs)."""
        m = self._config.min_size
        big = self._config.max_size
        work: dict[K, list[TripleRef]] = {
            key: list(refs) for key, refs in groups.items()
        }
        mapping: dict[tuple[object, DataItem, Value], object] = {}
        rounds: list[tuple[int, ...]] = []

        def emit(key: K, refs: list[TripleRef]) -> None:
            for original, item, value in refs:
                mapping[(original, item, value)] = key

        while work:
            rounds.append(tuple(len(refs) for refs in work.values()))
            merged: dict[K, list[TripleRef]] = {}
            for key, refs in work.items():
                if len(refs) > big:
                    for bucket_key, bucket_refs in self._split(key, refs):
                        emit(bucket_key, bucket_refs)
                elif len(refs) < m and self._merge_small:
                    parent = key.parent()
                    if parent is None:
                        emit(key, refs)  # top of the hierarchy: keep as is
                    else:
                        merged.setdefault(parent, []).extend(refs)
                else:
                    emit(key, refs)
            work = merged
        return GranularityPlan(mapping, rounds=tuple(rounds))

    def _split(
        self, key: K, refs: list[TripleRef]
    ) -> list[tuple[K, list[TripleRef]]]:
        """Uniformly distribute ``refs`` into ceil(|refs| / M) buckets."""
        num_buckets = -(-len(refs) // self._config.max_size)  # ceil div
        rng = derive_rng(self._seed, "split", repr(key))
        shuffled = list(refs)
        rng.shuffle(shuffled)
        buckets: list[list[TripleRef]] = [[] for _ in range(num_buckets)]
        for index, ref in enumerate(shuffled):
            buckets[index % num_buckets].append(ref)
        return [
            (key.child_bucket(bucket_index), bucket_refs)
            for bucket_index, bucket_refs in enumerate(buckets)
        ]

    # ------------------------------------------------------------------
    # ObservationMatrix integration
    # ------------------------------------------------------------------
    def plan_sources(self, observations: ObservationMatrix) -> GranularityPlan:
        """Plan source granularity from the matrix's per-source triples."""
        keys = list(observations.sources())
        refs: list[list[TripleRef]] = [[] for _ in keys]
        columns = observations.columns()
        for source, coord in zip(columns.cell_source.tolist(), columns.coords):
            refs[source].append((keys[source], *coord[1:]))
        return self.plan(dict(zip(keys, refs)))

    def plan_extractors(
        self, observations: ObservationMatrix
    ) -> GranularityPlan:
        """Plan extractor granularity from per-extractor extraction counts:
        an extractor's distinct (item, value) pairs, each as its first cell
        holds it, in cell order."""
        keys = list(observations.extractors())
        refs: list[list[TripleRef]] = [[] for _ in keys]
        columns = observations.columns()
        values = columns.cell_value
        span = int(values.max()) + 1 if len(values) else 1
        triple = (columns.cell_item * span + values)[columns.entry_cell]
        extractor = columns.entry_extractor
        span = int(triple.max()) + 1 if len(triple) else 1
        # Each (extractor, triple)'s first entry, by extractor, then cell.
        _pairs, first = np.unique(extractor * span + triple, return_index=True)
        first = first[np.lexsort((first, extractor[first]))]
        for key, cell in zip(
            extractor[first].tolist(), columns.entry_cell[first].tolist()
        ):
            refs[key].append((keys[key], *columns.coords[cell][1:]))
        return self.plan(dict(zip(keys, refs)))

    def apply(self, observations: ObservationMatrix) -> ObservationMatrix:
        """Plan and relabel in one step; returns the regrouped matrix."""
        return observations.relabel(
            source_map=self.plan_sources(observations),
            extractor_map=self.plan_extractors(observations),
        )
