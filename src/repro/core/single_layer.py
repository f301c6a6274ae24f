"""The single-layer baseline: knowledge fusion over provenances (Section 2.2).

This reimplements the state of the art the paper compares against [11]:
every (extractor, web source) combination is flattened into one *provenance*
(Figure 1(a)) and a standard data-fusion model — ACCU [8] or POPACCU [13] —
jointly estimates the true value of each data item and the accuracy of each
provenance with an EM-like loop (Eqs. 1-4).

The model cannot tell extraction noise from source noise — that limitation
(Section 2.3) is exactly what the multi-layer model fixes, and what the
Figure 3 / Table 5 experiments quantify.

The fit is array work over the matrix columns, summed in claim order
(first seen, in cell order), so it does not depend on the hash seed;
``tests/single_layer_reference.py`` keeps the dict version it is tested
against.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import compress

import numpy as np

from repro.core.config import FalseValueModel, SingleLayerConfig
from repro.core.engine_numpy import _log_odds, _safe_log, segment_softmax
from repro.core.observation import CellColumns, ObservationMatrix
from repro.core.results import IterationSnapshot, ProvenanceKey, SingleLayerResult
from repro.core.types import ExtractorKey, SourceKey
from repro.util.logmath import clamp, safe_log

#: Maps (extractor, source) to a provenance identity. The default keeps the
#: pair; Section 5.1.2 uses (extractor, website, predicate, pattern).
ProvenanceFn = Callable[[ExtractorKey, SourceKey], ProvenanceKey]

#: Clamp of an estimated (or initial) provenance accuracy.
_FLOOR, _CEILING = 1e-4, 1.0 - 1e-4


def default_provenance(
    extractor: ExtractorKey, source: SourceKey
) -> ProvenanceKey:
    """The (extractor, web source) pair itself, as in Figure 1(a)."""
    return (extractor, source)


class SingleLayerModel:
    """ACCU / POPACCU fusion over provenances, with EM parameter estimation."""

    def __init__(
        self,
        config: SingleLayerConfig | None = None,
        provenance_fn: ProvenanceFn = default_provenance,
    ) -> None:
        self._config = config or SingleLayerConfig()
        self._provenance_fn = provenance_fn

    @property
    def config(self) -> SingleLayerConfig:
        return self._config

    def fit(
        self,
        observations: ObservationMatrix,
        initial_accuracy: dict[ProvenanceKey, float] | None = None,
    ) -> SingleLayerResult:
        """Run fusion and return triple posteriors + provenance accuracies.

        Args:
            observations: the extraction matrix; extractor confidences are
                ignored (the single-layer baseline is binary, Section 5.1.2).
            initial_accuracy: optional smart initialisation (the "+" method
                variants) mapping provenance -> initial accuracy.
        """
        cfg = self._config
        columns = observations.columns()
        provs, entry_prov = self._provenances(observations)
        triple_cell, item_cell, triple_item, entry_triple = _triples(columns)
        num_provs, num_triples = len(provs), len(triple_cell)
        # Figure 1(a): each (provenance, triple) claim once, in the order
        # the entries first name it.
        _keys, first = np.unique(
            entry_prov * num_triples + entry_triple, return_index=True
        )
        first.sort()
        claim_prov, claim_triple = entry_prov[first], entry_triple[first]
        participating = (
            np.bincount(claim_prov, minlength=num_provs)
            >= cfg.min_source_support
        )
        accuracy = np.full(num_provs, cfg.default_accuracy)
        for prov, value in (initial_accuracy or {}).items():
            if prov in provs:
                accuracy[provs[prov]] = clamp(value, _FLOOR, _CEILING)

        # E step over the participating claims. A triple none of them
        # claims gets no posterior: a vote of -inf adds exactly 0 to its
        # item's partition function, and each item's other values add
        # floor mass.
        vote_prov = claim_prov[participating[claim_prov]]
        vote_triple = claim_triple[participating[claim_prov]]
        supported = np.bincount(vote_triple, minlength=num_triples) > 0
        starts = np.flatnonzero(np.diff(triple_item, prepend=-1))
        num_unobserved = np.maximum(
            cfg.n + 1 - np.bincount(triple_item, weights=supported), 0.0
        )
        if cfg.false_value_model is FalseValueModel.POPACCU:
            log_pop = _log_popularity(claim_triple, triple_item)[vote_triple]
        # M step over the claims whose triple has a posterior.
        scored = supported[claim_triple]
        scored_prov, scored_triple = claim_prov[scored], claim_triple[scored]
        count = np.bincount(scored_prov, minlength=num_provs)
        updated = participating & (count > 0)
        count = count[updated]

        history: list[IterationSnapshot] = []
        posterior = np.zeros(num_triples)
        for iteration in range(1, cfg.convergence.max_iterations + 1):
            # E step: p(V_d | X, A) via vote counting (Eq. 2 / Eq. 21).
            if cfg.false_value_model is FalseValueModel.POPACCU:
                weight = _log_odds(accuracy)[vote_prov] - log_pop
            else:
                weight = (safe_log(cfg.n) + _log_odds(accuracy))[vote_prov]
            votes = np.where(
                supported,
                np.bincount(vote_triple, weights=weight, minlength=num_triples),
                -np.inf,
            )
            posterior = segment_softmax(
                votes, starts, triple_item, num_unobserved
            )
            # M step: A_s = average posterior of claimed triples (Eq. 4).
            total = np.bincount(
                scored_prov,
                weights=posterior[scored_triple],
                minlength=num_provs,
            )
            new = np.clip(total[updated] / count, _FLOOR, _CEILING)
            max_delta = float(np.abs(new - accuracy[updated]).max(initial=0))
            accuracy[updated] = new
            history.append(IterationSnapshot(iteration, max_delta))
            if max_delta < cfg.convergence.tolerance:
                break

        coords, kept = columns.coords, np.flatnonzero(supported)
        value_posteriors: dict = {}
        for item_at, value_at, p in zip(
            item_cell[kept].tolist(),
            triple_cell[kept].tolist(),
            posterior[kept].tolist(),
        ):
            value_posteriors.setdefault(coords[item_at][1], {})[
                coords[value_at][2]
            ] = p
        return SingleLayerResult(
            value_posteriors=value_posteriors,
            provenance_accuracy=dict(zip(provs, accuracy.tolist())),
            participating=set(compress(provs, participating.tolist())),
            num_triples_total=observations.num_triples,
            history=history,
        )

    def _provenances(
        self, observations: ObservationMatrix
    ) -> tuple[dict[ProvenanceKey, int], np.ndarray]:
        """The provenance ids by key, in the order the entries first name
        them, and each entry's id: ``provenance_fn`` runs once per
        distinct (source, extractor) pair."""
        columns = observations.columns()
        sources, extractors = list(observations.sources()), list(
            observations.extractors()
        )
        width = max(len(extractors), 1)
        pairs, first, entry_pair = np.unique(
            columns.cell_source[columns.entry_cell] * width
            + columns.entry_extractor,
            return_index=True,
            return_inverse=True,
        )
        provs: dict[ProvenanceKey, int] = {}
        pair_prov = np.empty(len(pairs), dtype=np.int64)
        for k in np.argsort(first).tolist():
            source, extractor = divmod(int(pairs[k]), width)
            prov = self._provenance_fn(extractors[extractor], sources[source])
            pair_prov[k] = provs.setdefault(prov, len(provs))
        return provs, pair_prov[entry_pair.reshape(-1)]


def _triples(columns: CellColumns) -> tuple[np.ndarray, ...]:
    """The distinct (item, value) triples, an item's together: items in
    first-seen order, then values in first-seen order. Returns each
    triple's first cell, its item's first cell and its item number
    (nondecreasing), and each entry's triple."""
    cell_item, cell_value = columns.cell_item, columns.cell_value
    num_cells = max(len(cell_item), 1)
    width = int(cell_value.max(initial=0)) + 1
    _items, item_first, item_of = np.unique(
        cell_item, return_index=True, return_inverse=True
    )
    _pairs, pair_first, pair_of = np.unique(
        cell_item * width + cell_value, return_index=True, return_inverse=True
    )
    ranks, _first, cell_triple = np.unique(
        item_first[item_of.reshape(-1)] * num_cells
        + pair_first[pair_of.reshape(-1)],
        return_index=True,
        return_inverse=True,
    )
    item_cell, triple_cell = np.divmod(ranks, num_cells)
    triple_item = np.cumsum(np.diff(item_cell, prepend=-1) > 0) - 1
    return (
        triple_cell,
        item_cell,
        triple_item,
        cell_triple.reshape(-1)[columns.entry_cell],
    )


def _log_popularity(
    claim_triple: np.ndarray, triple_item: np.ndarray
) -> np.ndarray:
    """log of each triple's Laplace-smoothed share of its item's claims
    (POPACCU), over every provenance's claims."""
    claims = np.bincount(claim_triple, minlength=len(triple_item))
    denom = np.bincount(triple_item, weights=claims) + np.bincount(triple_item)
    return _safe_log((claims + 1.0) / denom[triple_item])
