"""Triple weighting extensions from the paper's discussion (Section 5.4.2).

The paper identifies failure modes of raw KBT and sketches remedies. Two
of them are implemented here as opt-in re-weighting of the KBT average
(Eq. 28):

1. **Triviality**: predicates with a very low variety of objects (e.g. a
   Hindi-movie site where every triple says language=Hindi) carry little
   information. We weight each predicate by the normalised entropy of its
   object-value distribution, so constant predicates approach weight 0.
2. **IDF**: frequent (predicate, value) combinations are less informative;
   each triple is weighted by its inverse document frequency within its
   predicate, normalised to (0, 1].

The third, topic relevance (triples off the website's main topic should
not drive its score), is left out: no experiment here measures it.

``reweighted_source_accuracy`` recomputes the KBT average with the
product of the selected triple and predicate weights, leaving the fitted
posteriors untouched; ``weighted_support`` is the matching per-source
mass for website aggregation.
"""

from __future__ import annotations

import math

from repro.core.observation import ObservationMatrix
from repro.core.results import Coord, MultiLayerResult
from repro.core.types import SourceKey
from repro.util.logmath import clamp


def predicate_variety_weights(
    observations: ObservationMatrix,
) -> dict[str, float]:
    """Normalised object-entropy per predicate; low variety -> low weight.

    A predicate whose claims all share one object value has weight 0; a
    predicate with a uniform spread over many values approaches 1.
    """
    counts: dict[str, dict[object, int]] = {}
    for _source, item, value in observations.columns().coords:
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
    for _source, item, value in observations.columns().coords:
        key = (item.predicate, value)
        df[key] = df.get(key, 0) + 1
        totals[item.predicate] = totals.get(item.predicate, 0) + 1

    weights: dict[Coord, float] = {}
    for coord in observations.columns().coords:
        _source, item, value = coord
        total = totals[item.predicate]
        idf = math.log(1.0 + total / df[(item.predicate, value)])
        peak = math.log(1.0 + total)
        weights[coord] = idf / peak if peak > 0 else 1.0
    return weights


def weighted_support(
    result: MultiLayerResult,
    triple_weights: dict[Coord, float] | None = None,
    predicate_weights: dict[str, float] | None = None,
) -> dict[SourceKey, float]:
    """Expected *informative* triples per source under the given weights.

    This is the weighted analogue of
    :meth:`MultiLayerResult.expected_triples_by_source` and is what website
    aggregation should use: a source keyed to a trivial predicate keeps its
    per-source accuracy (the weights cancel within a homogeneous source)
    but loses its *mass*, so it no longer props up its website's KBT.
    """
    support: dict[SourceKey, float] = {}
    for coord, p_correct in result.extraction_posteriors.items():
        source, item, _value = coord
        weight = 1.0
        if triple_weights is not None:
            weight *= triple_weights.get(coord, 1.0)
        if predicate_weights is not None:
            weight *= predicate_weights.get(item.predicate, 1.0)
        support[source] = support.get(source, 0.0) + weight * p_correct
    return support


def reweighted_source_accuracy(
    result: MultiLayerResult,
    triple_weights: dict[Coord, float] | None = None,
    predicate_weights: dict[str, float] | None = None,
) -> dict[SourceKey, float]:
    """Recompute the KBT average (Eq. 28) under triple/predicate weights.

    Sources whose entire weighted evidence vanishes keep their fitted
    accuracy (there is nothing informative to replace it with).
    """
    numer: dict[SourceKey, float] = {}
    denom: dict[SourceKey, float] = {}
    for coord, p_correct in result.extraction_posteriors.items():
        source, item, value = coord
        weight = 1.0
        if triple_weights is not None:
            weight *= triple_weights.get(coord, 1.0)
        if predicate_weights is not None:
            weight *= predicate_weights.get(item.predicate, 1.0)
        if weight <= 0.0:
            continue
        p_true = result.triple_probability(item, value)
        if p_true is None:
            continue
        numer[source] = numer.get(source, 0.0) + weight * p_correct * p_true
        denom[source] = denom.get(source, 0.0) + weight * p_correct

    accuracy = dict(result.source_accuracy)
    for source, weight_total in denom.items():
        if weight_total > 0.0:
            accuracy[source] = clamp(
                numer[source] / weight_total, 1e-4, 1.0 - 1e-4
            )
    return accuracy
