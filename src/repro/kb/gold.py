"""The combined gold standard and the gold-based ("+") initialisation.

Following Section 5.3.1, the evaluation gold standard merges two labelers:

* type-checked violations are false triples *and* extraction mistakes;
* everything else is labelled by LCWA against the Freebase-like KB.

The same gold standard powers the smart initialisation of the "+" method
variants (Section 5.1.2): a source's initial accuracy is the (smoothed)
fraction of its labelled triples that are true, and an extractor's initial
precision is the (smoothed) fraction of its extractions that are not type
violations.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.observation import CellColumns, Coord, ObservationMatrix
from repro.core.quality import ExtractorQuality
from repro.core.types import DataItem, ExtractorKey, SourceKey, Value
from repro.extraction.schema import Schema
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.lcwa import Label, LCWALabeler
from repro.kb.typecheck import TypeChecker


class GoldStandard:
    """Type checking first, then LCWA (Section 5.3.1)."""

    def __init__(self, kb: KnowledgeBase, schema: Schema) -> None:
        self._lcwa = LCWALabeler(kb)
        self._checker = TypeChecker(schema)

    def label(self, item: DataItem, value: Value) -> Label:
        """TRUE / FALSE / UNKNOWN verdict for one triple."""
        if self._checker.is_violation(item, value):
            return Label.FALSE
        return self._lcwa.label(item, value)

    def is_extraction_error(self, item: DataItem, value: Value) -> bool:
        """Type violations are extraction mistakes by definition."""
        return self._checker.is_violation(item, value)

    def labeled_triples(
        self, observations: ObservationMatrix
    ) -> dict[tuple[DataItem, Value], bool]:
        """Gold labels (True = correct) for every decidable observed triple.

        UNKNOWN triples are omitted — they are removed from the evaluation
        set, exactly as in the paper. Triples are listed by item, items in
        first-seen order, each item's values in first-seen order.
        """
        columns = observations.columns()
        coords = columns.coords
        verdicts = _per_cell(coords, self.label)
        labels: dict[tuple[DataItem, Value], bool] = {}
        for k in _first_cells(columns):
            if verdicts[k] is not Label.UNKNOWN:
                labels[coords[k][1:]] = verdicts[k] is Label.TRUE
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
        columns = observations.columns()
        verdicts = _per_cell(columns.coords, self.label)
        known = np.array([v is not Label.UNKNOWN for v in verdicts], bool)
        true = np.array([v is Label.TRUE for v in verdicts], bool)
        width = observations.num_sources
        labeled = np.bincount(columns.cell_source[known], minlength=width)
        trues = np.bincount(columns.cell_source[true], minlength=width)
        return {
            source: (
                (true_count + prior_weight * default_accuracy)
                / (labeled_count + prior_weight)
            )
            for source, true_count, labeled_count in zip(
                observations.sources(), trues.tolist(), labeled.tolist()
            )
        }

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
        columns = observations.columns()
        errors = np.array(
            _per_cell(columns.coords, self.is_extraction_error), dtype=bool
        )
        extractor = columns.entry_extractor
        width = observations.num_extractors
        totals = np.bincount(extractor, minlength=width).tolist()
        oks = np.bincount(
            extractor[~errors[columns.entry_cell]], minlength=width
        ).tolist()
        return {
            key: ExtractorQuality.from_precision_recall(
                precision=(
                    (ok + prior_weight * default_precision)
                    / (total + prior_weight)
                ),
                recall=default_recall,
                gamma=gamma,
            )
            for key, ok, total in zip(observations.extractors(), oks, totals)
        }


def _per_cell(coords: list[Coord], judge: Callable) -> list:
    """``judge(item, value)`` of each cell, called once per distinct
    (item, value) and type of value: the matrix holds ``1``, ``True`` and
    ``1.0`` as one value, the type check tells them apart."""
    verdicts: dict = {}
    out = []
    for _source, item, value in coords:
        key = (item, value, type(value))
        if key not in verdicts:
            verdicts[key] = judge(item, value)
        out.append(verdicts[key])
    return out


def _first_cells(columns: CellColumns) -> list[int]:
    """The cell that first holds each distinct (item, value): by item,
    items in first-seen order, each item's values in first-seen order."""
    items, values = columns.cell_item, columns.cell_value
    width = int(values.max()) + 1 if len(values) else 1
    _triples, first = np.unique(items * width + values, return_index=True)
    _items, item_first, item_of = np.unique(
        items, return_index=True, return_inverse=True
    )
    return first[np.lexsort((first, item_first[item_of[first]]))].tolist()
