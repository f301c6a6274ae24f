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
    ExtractorKey,
    SourceKey,
    Value,
    new_record,
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
        self,
        page: WebPage,
        world: TrueWorld,
        schema: Schema,
        rng,
        memo: ExtractionMemo | None = None,
    ) -> list[ExtractionOutcome]:
        """Process one page (coverage already decided by the caller).

        ``memo`` carries what the calls of one corpus share (see
        :class:`ExtractionMemo`); without one, the call builds its own.
        Either way the page's draws from ``rng`` are the same.
        """
        if memo is None:
            memo = ExtractionMemo()
        claims_by_predicate = memo.claims(page)
        extractors = memo.extractors(self, page.website)
        outcomes: list[ExtractionOutcome] = []
        for index, pattern in enumerate(self.patterns):
            group = claims_by_predicate.get(pattern.predicate)
            if group is None:
                continue
            extractor = extractors[index]
            if extractor is None:
                continue
            keys = (extractor, group[0])
            for item, value in group[1]:
                if rng.random() >= pattern.recall:
                    continue
                outcomes.append(
                    self._emit(
                        page, pattern, keys, item, value, world, schema, rng
                    )
                )
            if rng.random() < pattern.spurious_rate:
                outcomes.append(
                    _emit_spurious(page, pattern, keys, world, rng)
                )
        return outcomes

    # ------------------------------------------------------------------
    def _emit(
        self,
        page: WebPage,
        pattern: PatternProfile,
        keys: tuple[ExtractorKey, SourceKey],
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
        record = _record(pattern, keys, out_item, out_value, provided, rng)
        return ExtractionOutcome(record, provided, type_error)


class ExtractionMemo:
    """What the extraction runs over one corpus build once, not per page.

    A generator passes one memo to every
    :meth:`ExtractorSystem.run_on_page` of its call (a streamed one, one
    per website) and drops it when the call ends; nothing is shared
    between calls. It holds:

    * per page, its claims grouped by predicate, each claim's
      :class:`DataItem` built once, beside the page's
      :class:`SourceKey` for that predicate — every system that visits
      the page reads them;
    * per (system, website), each pattern's :class:`ExtractorKey` on the
      site, or ``None`` where the pattern does not match it — decided
      (:meth:`PatternProfile.applies_to`, a SHA-256 per narrow pattern)
      the first time a page of the site holds a claim of the pattern's
      predicate, and never again.

    So the records of one call share one key object per distinct key,
    as records read through :class:`repro.io.jsonl.RecordParser` do.
    Entries are keyed by the identity of their page or system and keep
    it alive, so no id is reused while the memo lives.
    """

    __slots__ = ("_claims", "_extractors")

    def __init__(self) -> None:
        self._claims: dict[int, tuple[WebPage, dict]] = {}
        self._extractors: dict[tuple[int, str], _SiteExtractors] = {}

    def claims(
        self, page: WebPage
    ) -> dict[str, tuple[SourceKey, list[tuple[DataItem, Value]]]]:
        """Predicate -> (the page's source key, its (item, value) claims)."""
        entry = self._claims.get(id(page))
        if entry is None:
            grouped: dict = {}
            for claim in page.claims:
                group = grouped.get(claim.predicate)
                if group is None:
                    group = grouped[claim.predicate] = (
                        page_source(page.website, claim.predicate, page.url),
                        [],
                    )
                group[1].append(
                    (DataItem(claim.subject, claim.predicate), claim.value)
                )
            entry = self._claims[id(page)] = (page, grouped)
        return entry[1]

    def extractors(
        self, system: ExtractorSystem, website: str
    ) -> _SiteExtractors:
        """Pattern index -> its extractor key on ``website``, or None."""
        entry = self._extractors.get((id(system), website))
        if entry is None:
            entry = self._extractors[id(system), website] = _SiteExtractors(
                system, website
            )
        return entry


class _SiteExtractors(dict):
    """One system's patterns on one website, decided on first lookup."""

    __slots__ = ("system", "website")

    def __init__(self, system: ExtractorSystem, website: str) -> None:
        super().__init__()
        self.system = system
        self.website = website

    def __missing__(self, index: int) -> ExtractorKey | None:
        pattern = self.system.patterns[index]
        key = self[index] = (
            pattern_extractor(
                self.system.name,
                pattern.pattern_id,
                pattern.predicate,
                self.website,
            )
            if pattern.applies_to(self.website)
            else None
        )
        return key


def _emit_spurious(
    page: WebPage,
    pattern: PatternProfile,
    keys: tuple[ExtractorKey, SourceKey],
    world: TrueWorld,
    rng,
) -> ExtractionOutcome:
    """Hallucinate a triple the page does not provide."""
    items = world.items_for_predicate(pattern.predicate)
    item = rng.choice(items)
    value = rng.choice(world.domain(item))
    provided = (item, value) in page.provided
    record = _record(pattern, keys, item, value, provided, rng)
    return ExtractionOutcome(record, provided, type_error=False)


def _record(
    pattern: PatternProfile,
    keys: tuple[ExtractorKey, SourceKey],
    item: DataItem,
    value: Value,
    correct: bool,
    rng,
) -> ExtractionRecord:
    confidence = _draw_confidence(pattern, correct, rng)
    return new_record(ExtractionRecord, (*keys, item, value, confidence))


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
