"""An in-memory Freebase substitute: the reference KB for gold labels.

Holds (subject, predicate) -> values mappings. In the paper, Freebase
supplies both the LCWA gold standard and the smart initialisation of source
accuracies. Here the KB is sampled from the simulation's ground-truth world
with a configurable coverage — the fraction of world facts present — so
LCWA labels exist for a realistic subset of extracted triples (26% of the
KV corpus could be labelled in the paper).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.types import DataItem, Triple, Value
from repro.extraction.world import TrueWorld
from repro.util.rng import derive_rng


class KnowledgeBase:
    """A (subject, predicate) -> set-of-values store."""

    def __init__(self, triples: Iterable[Triple] = ()) -> None:
        self._facts: dict[DataItem, set[Value]] = {}
        for triple in triples:
            self.add(triple)

    def add(self, triple: Triple) -> None:
        self._facts.setdefault(triple.item, set()).add(triple.value)

    @classmethod
    def from_world(
        cls, world: TrueWorld, coverage: float = 0.3, seed: int = 0
    ) -> "KnowledgeBase":
        """Sample a fraction of the world's facts into the KB.

        ``coverage`` is the probability that each true fact is known; this
        controls how many extracted triples receive an LCWA label.
        """
        if not 0.0 <= coverage <= 1.0:
            raise ValueError("coverage must be in [0, 1]")
        rng = derive_rng(seed, "kb-sample")
        kb = cls()
        for item in world.items():
            if rng.random() < coverage:
                kb.add(
                    Triple(item.subject, item.predicate, world.true_value(item))
                )
        return kb

    def has_item(self, item: DataItem) -> bool:
        """Does the KB know any value for (subject, predicate)?"""
        return item in self._facts

    def values(self, item: DataItem) -> set[Value]:
        """Known values for the item (empty set when unknown)."""
        return set(self._facts.get(item, ()))

    def contains(self, item: DataItem, value: Value) -> bool:
        """Is (subject, predicate, value) a KB fact?"""
        return value in self._facts.get(item, ())

    def items(self) -> list[DataItem]:
        return list(self._facts)

    @property
    def num_items(self) -> int:
        return len(self._facts)
