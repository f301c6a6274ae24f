"""The matrix's side readers as they were when they walked its dict
views: the parity references of ``tests/test_reader_parity.py``.

Copied verbatim from ``repro.core.weighting`` (the two weightings),
``repro.kb.gold`` (the ``GoldStandard`` labels and "+" initialisation),
``repro.signals.base`` (``co_claim_graph``) and ``repro.core.granularity``
(the per-triple dict ``GranularityPlan``, ``plan``, ``_split``,
``plan_sources`` / ``plan_extractors``); the methods ride on subclasses
of the library classes. They read ``cells()``, ``triples()``,
``items()``, ``values_for_item``, ``source_claims`` and
``extractor_cells``, so they run on a ``tests/matrix_reference.py``
``ReferenceMatrix``. The library versions read ``columns()`` and must
return equal dicts, in equal key order, and plans that send every cell
and every entry to an equal final key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from matrix_reference import ReferenceMatrix as ObservationMatrix
from repro.core.granularity import K, SplitAndMerge
from repro.core.quality import ExtractorQuality
from repro.core.results import Coord
from repro.core.types import DataItem, ExtractorKey, SourceKey, Value
from repro.kb.gold import GoldStandard
from repro.kb.lcwa import Label
from repro.signals.base import _MAX_COCLAIM_SITES
from repro.util.rng import derive_rng
from repro.web.graph import WebGraph

#: A triple reference: (original finest key, item, value).
TripleRef = tuple[object, DataItem, Value]


def predicate_variety_weights(
    observations: ObservationMatrix,
) -> dict[str, float]:
    """Normalised object-entropy per predicate; low variety -> low weight.

    A predicate whose claims all share one object value has weight 0; a
    predicate with a uniform spread over many values approaches 1.
    """
    counts: dict[str, dict[object, int]] = {}
    for (_source, item, value), _cell in observations.cells():
        value_counts = counts.setdefault(item.predicate, {})
        value_counts[value] = value_counts.get(value, 0) + 1
    weights = {}
    for predicate, value_counts in counts.items():
        total = sum(value_counts.values())
        distinct = len(value_counts)
        if distinct <= 1 or total == 0:
            weights[predicate] = 0.0
            continue
        entropy = 0.0
        for count in value_counts.values():
            p = count / total
            entropy -= p * math.log(p)
        weights[predicate] = entropy / math.log(distinct)
    return weights


def idf_weights(observations: ObservationMatrix) -> dict[Coord, float]:
    """IDF of each triple's value within its predicate, scaled into (0, 1].

    df counts how many sources provide the (predicate, value) combination;
    idf = log(1 + N_p / df) with N_p the predicate's claim count. The scale
    factor is the idf of a value provided exactly once (log(1 + N_p)), so a
    value every source agrees on approaches log(2)/log(1 + N_p) -> 0 for
    large predicates while a unique value gets weight 1.
    """
    df: dict[tuple[str, object], int] = {}
    totals: dict[str, int] = {}
    for (_source, item, value), _cell in observations.cells():
        key = (item.predicate, value)
        df[key] = df.get(key, 0) + 1
        totals[item.predicate] = totals.get(item.predicate, 0) + 1

    weights: dict[Coord, float] = {}
    for coord, _cell in observations.cells():
        _source, item, value = coord
        total = totals[item.predicate]
        idf = math.log(1.0 + total / df[(item.predicate, value)])
        peak = math.log(1.0 + total)
        weights[coord] = idf / peak if peak > 0 else 1.0
    return weights


class ReferenceGoldStandard(GoldStandard):
    """``GoldStandard`` with its three matrix readers as they were."""

    def labeled_triples(
        self, observations: ObservationMatrix
    ) -> dict[tuple[DataItem, Value], bool]:
        """Gold labels (True = correct) for every decidable observed triple.

        UNKNOWN triples are omitted — they are removed from the evaluation
        set, exactly as in the paper.
        """
        labels: dict[tuple[DataItem, Value], bool] = {}
        for item, value in observations.triples():
            verdict = self.label(item, value)
            if verdict is Label.UNKNOWN:
                continue
            labels[(item, value)] = verdict is Label.TRUE
        return labels

    # ------------------------------------------------------------------
    # Smart initialisation (the "+" variants)
    # ------------------------------------------------------------------
    def initial_source_accuracy(
        self,
        observations: ObservationMatrix,
        default_accuracy: float = 0.8,
        prior_weight: float = 5.0,
    ) -> dict[SourceKey, float]:
        """Per-source initial A_w from the fraction of gold-true triples.

        Smoothing pulls sources with few labelled triples toward the
        default; sources with no labelled triples keep exactly the default.
        """
        accuracy: dict[SourceKey, float] = {}
        for source in observations.sources():
            true_count = 0
            labeled = 0
            for item, value in observations.source_claims(source):
                verdict = self.label(item, value)
                if verdict is Label.UNKNOWN:
                    continue
                labeled += 1
                if verdict is Label.TRUE:
                    true_count += 1
            accuracy[source] = (
                (true_count + prior_weight * default_accuracy)
                / (labeled + prior_weight)
            )
        return accuracy

    def initial_extractor_quality(
        self,
        observations: ObservationMatrix,
        gamma: float = 0.25,
        default_precision: float = 0.8,
        default_recall: float = 0.8,
        prior_weight: float = 5.0,
    ) -> dict[ExtractorKey, ExtractorQuality]:
        """Per-extractor initial (P, R, Q) from type-check evidence.

        Precision starts at the smoothed fraction of the extractor's output
        that passes type checking (type violations are certain extraction
        errors; in-domain mistakes are invisible to the gold standard, so
        this is an optimistic but informative floor). Recall cannot be
        observed without knowing what pages truly provide, so it stays at
        the default; Q is derived via Eq. 7.
        """
        quality: dict[ExtractorKey, ExtractorQuality] = {}
        for extractor in observations.extractors():
            ok = 0
            total = 0
            for (_source, item, value) in observations.extractor_cells(
                extractor
            ):
                total += 1
                if not self.is_extraction_error(item, value):
                    ok += 1
            precision = (
                (ok + prior_weight * default_precision)
                / (total + prior_weight)
            )
            quality[extractor] = ExtractorQuality.from_precision_recall(
                precision=precision, recall=default_recall, gamma=gamma
            )
        return quality


def co_claim_graph(observations: ObservationMatrix) -> WebGraph:
    """Derive the co-claim proxy graph over websites (see ``web_graph``)."""
    claim_counts: dict[str, int] = {}
    for source, size in observations.source_sizes().items():
        site = source.website
        claim_counts[site] = claim_counts.get(site, 0) + size
    graph = WebGraph(sorted(claim_counts))
    seen_pairs: set[tuple[str, str]] = set()
    for item in observations.items():
        sites: set[str] = set()
        for claiming in observations.values_for_item(item).values():
            sites.update(source.website for source in claiming)
        if len(sites) < 2:
            continue
        ordered = sorted(
            sites, key=lambda site: (-claim_counts.get(site, 0), site)
        )[:_MAX_COCLAIM_SITES]
        for i, site_a in enumerate(ordered):
            for site_b in ordered[i + 1 :]:
                pair = (site_a, site_b)
                if pair in seen_pairs:
                    continue
                seen_pairs.add(pair)
                graph.add_edge(site_a, site_b)
                graph.add_edge(site_b, site_a)
    return graph


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


class ReferenceSplitAndMerge(SplitAndMerge):
    """``SplitAndMerge`` with its planner and its two matrix planners as
    they were."""

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

    def plan_sources(self, observations: ObservationMatrix) -> GranularityPlan:
        """Plan source granularity from the matrix's per-source triples."""
        groups: dict[SourceKey, list[TripleRef]] = {}
        for source in observations.sources():
            groups[source] = [
                (source, item, value)
                for item, value in observations.source_claims(source)
            ]
        return self.plan(groups)

    def plan_extractors(
        self, observations: ObservationMatrix
    ) -> GranularityPlan:
        """Plan extractor granularity from per-extractor extraction counts."""
        groups: dict[ExtractorKey, list[TripleRef]] = {}
        for extractor in observations.extractors():
            refs: list[TripleRef] = []
            seen: set[tuple[DataItem, Value]] = set()
            for (_source, item, value) in observations.extractor_cells(
                extractor
            ):
                if (item, value) in seen:
                    continue
                seen.add((item, value))
                refs.append((extractor, item, value))
            groups[extractor] = refs
        return self.plan(groups)
