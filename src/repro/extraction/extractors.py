"""Simulated extraction systems: noisy pattern-based triple extraction.

An :class:`ExtractorSystem` owns a set of :class:`PatternProfile` patterns
and processes webpages. For every claim a page provides, the matching
patterns extract it with their recall and then push it through the
reconciliation channel, which can corrupt the subject (systematically — the
same wrong id every time, like a consistently mis-reconciled surface string)
or the object (either a plausible in-domain mistake or an outright *type
violation*: subject==object, a wrong-typed entity, or an out-of-range
number — the error classes the paper's type checker catches in
Section 5.3.1). Patterns can also hallucinate triples the page never
provided, and emit confidences that are calibrated or not.

Every emitted record is paired with its ground truth (was the triple really
provided? is it a type violation?), which downstream datasets keep for
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.types import (
    DataItem,
    ExtractionRecord,
    Value,
    page_source,
    pattern_extractor,
)
from repro.extraction.pages import WebPage
from repro.extraction.patterns import PatternProfile
from repro.extraction.schema import ObjectType, Schema
from repro.extraction.world import TrueWorld
from repro.util.logmath import clamp


@dataclass(frozen=True, slots=True)
class ExtractionOutcome:
    """One emitted record plus the simulator's ground truth about it."""

    record: ExtractionRecord
    provided: bool
    type_error: bool


@dataclass(frozen=True)
class ExtractorSystem:
    """One extraction system: a name, patterns, and page coverage."""

    name: str
    patterns: tuple[PatternProfile, ...]
    page_coverage: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 < self.page_coverage <= 1.0:
            raise ValueError("page_coverage must be in (0, 1]")
        seen = set()
        for pattern in self.patterns:
            if pattern.pattern_id in seen:
                raise ValueError(f"duplicate pattern {pattern.pattern_id!r}")
            seen.add(pattern.pattern_id)

    def run_on_page(
        self, page: WebPage, world: TrueWorld, schema: Schema, rng
    ) -> list[ExtractionOutcome]:
        """Process one page (coverage already decided by the caller)."""
        outcomes: list[ExtractionOutcome] = []
        claims_by_predicate: dict[str, list] = {}
        for claim in page.claims:
            claims_by_predicate.setdefault(claim.predicate, []).append(claim)

        for pattern in self.patterns:
            if not pattern.applies_to(page.website):
                continue
            claims = claims_by_predicate.get(pattern.predicate, [])
            for claim in claims:
                if rng.random() >= pattern.recall:
                    continue
                outcomes.append(
                    self._emit(
                        page, pattern, claim.item, claim.value,
                        world, schema, rng,
                    )
                )
            if claims and rng.random() < pattern.spurious_rate:
                outcomes.append(
                    self._emit_spurious(page, pattern, world, rng)
                )
        return outcomes

    # ------------------------------------------------------------------
    def _emit(
        self,
        page: WebPage,
        pattern: PatternProfile,
        item: DataItem,
        value: Value,
        world: TrueWorld,
        schema: Schema,
        rng,
    ) -> ExtractionOutcome:
        """Push one provided claim through the reconciliation channel."""
        out_item = item
        out_value = value
        type_error = False
        if rng.random() >= pattern.component_precision:
            # Systematic subject mis-reconciliation.
            out_item = DataItem(f"{item.subject}#{self.name}", item.predicate)
        if rng.random() >= pattern.component_precision:
            out_value, type_error = _corrupt_object(
                pattern, out_item, item, value, world, schema, rng
            )
        provided = (out_item, out_value) in page.provided
        record = self._record(page, pattern, out_item, out_value,
                              provided, rng)
        return ExtractionOutcome(record, provided, type_error)

    def _emit_spurious(
        self,
        page: WebPage,
        pattern: PatternProfile,
        world: TrueWorld,
        rng,
    ) -> ExtractionOutcome:
        """Hallucinate a triple the page does not provide."""
        items = world.items_for_predicate(pattern.predicate)
        item = rng.choice(items)
        value = rng.choice(world.domain(item))
        provided = (item, value) in page.provided
        record = self._record(page, pattern, item, value, provided, rng)
        return ExtractionOutcome(record, provided, type_error=False)

    def _record(
        self,
        page: WebPage,
        pattern: PatternProfile,
        item: DataItem,
        value: Value,
        correct: bool,
        rng,
    ) -> ExtractionRecord:
        confidence = _draw_confidence(pattern, correct, rng)
        return ExtractionRecord(
            extractor=pattern_extractor(
                self.name, pattern.pattern_id, pattern.predicate, page.website
            ),
            source=page_source(page.website, pattern.predicate, page.url),
            item=item,
            value=value,
            confidence=confidence,
        )


def _corrupt_object(
    pattern: PatternProfile,
    out_item: DataItem,
    original_item: DataItem,
    value: Value,
    world: TrueWorld,
    schema: Schema,
    rng,
) -> tuple[Value, bool]:
    """Corrupt the object: a type violation or a plausible in-domain slip."""
    spec = schema.get(pattern.predicate)
    if rng.random() < pattern.type_error_rate:
        kind = rng.choice(_type_error_kinds(spec))
        if kind == "self":
            return out_item.subject, True
        if kind == "range":
            low, high = spec.value_range
            return high * 10.0 + rng.random(), True
        return f"wrongtype:{rng.randint(0, 9999):04d}", True
    facts = world.facts(original_item)
    alternatives = [v for v in facts.domain if v != value]
    if not alternatives:
        return value, False
    if rng.random() < 0.5:
        myth = facts.myth_value
        if myth != value:
            return myth, False
    return rng.choice(alternatives), False


def _type_error_kinds(spec) -> list[str]:
    """Type-violation classes applicable to a predicate."""
    kinds = ["self"]
    if spec.object_type in (ObjectType.NUMBER, ObjectType.DATE):
        kinds.append("range")
    if spec.object_type is ObjectType.ENTITY:
        kinds.append("wrongtype")
    return kinds


def _draw_confidence(pattern: PatternProfile, correct: bool, rng) -> float:
    """Draw an extraction confidence, calibrated or not."""
    if not pattern.calibrated:
        value = rng.uniform(0.2, 1.0)
    elif correct:
        value = rng.betavariate(6.0, 1.5)
    else:
        value = rng.betavariate(2.0, 4.0)
    return clamp(value, 0.05, 1.0)
