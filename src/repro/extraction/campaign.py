"""Run an extractor fleet over a corpus and collect records + ground truth.

The campaign is the glue between the simulated web and the inference input:
it decides per (system, page) coverage, invokes every system on the pages it
covers, and aggregates

* the extraction records (the observation matrix input),
* the ground-truth ``provided`` coordinates (truth for the C layer),
* the set of type-violating triples produced by reconciliation errors,
* empirical per-website accuracies (truth for A / KBT),
* per-record correctness (truth for extractor precision/recall).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.observation import ObservationMatrix
from repro.core.types import DataItem, ExtractionRecord, SourceKey, Value
from repro.extraction.extractors import (
    ExtractionMemo,
    ExtractionOutcome,
    ExtractorSystem,
)
from repro.extraction.pages import WebSite
from repro.extraction.schema import Schema
from repro.extraction.world import TrueWorld
from repro.util.rng import derive_rng

#: A (source, item, value) coordinate.
Coord = tuple[SourceKey, DataItem, Value]


@dataclass
class CampaignResult:
    """Everything a campaign produced."""

    records: list[ExtractionRecord]
    outcomes: list[ExtractionOutcome]
    #: ground truth of the C layer: every coordinate truly provided,
    #: including claims no extractor picked up.
    provided: set[Coord]
    #: (item, value) pairs that are type violations by construction.
    type_error_triples: set[tuple[DataItem, Value]]
    #: empirical accuracy per website (fraction of true claims).
    true_site_accuracy: dict[str, float]
    _observation: ObservationMatrix | None = field(default=None, repr=False)

    def observation(self) -> ObservationMatrix:
        """The records as an observation matrix (built once, cached)."""
        if self._observation is None:
            self._observation = ObservationMatrix.from_records(self.records)
        return self._observation

    @property
    def num_records(self) -> int:
        return len(self.records)


def run_campaign(
    sites: list[WebSite],
    systems: list[ExtractorSystem],
    world: TrueWorld,
    schema: Schema,
    seed: int = 0,
) -> CampaignResult:
    """Run every system over every site's pages (subject to coverage).

    One :class:`ExtractionMemo` serves the whole call, so each page's
    claims are grouped, and each source and extractor key built, once:
    the records share their key objects, and the ``provided``
    coordinates use the same source keys and items.
    """
    memo = ExtractionMemo()
    provided: set[Coord] = set()
    correct_claims: dict[str, int] = {}
    total_claims: dict[str, int] = {}
    for site in sites:
        correct = total = 0
        for page in site.pages:
            for source, claims in memo.claims(page).values():
                for item, value in claims:
                    provided.add((source, item, value))
                    total += 1
                    if world.is_true(item, value):
                        correct += 1
        correct_claims[site.name] = correct
        total_claims[site.name] = total

    outcomes: list[ExtractionOutcome] = []
    for system in systems:
        for site in sites:
            for page in site.pages:
                rng = derive_rng(seed, "campaign", system.name, page.url)
                if rng.random() >= system.page_coverage:
                    continue
                outcomes.extend(
                    system.run_on_page(page, world, schema, rng, memo)
                )

    type_errors = {
        (outcome.record.item, outcome.record.value)
        for outcome in outcomes
        if outcome.type_error
    }
    true_site_accuracy = {
        name: (correct_claims[name] / total) if total else 0.0
        for name, total in total_claims.items()
    }
    return CampaignResult(
        records=[outcome.record for outcome in outcomes],
        outcomes=outcomes,
        provided=provided,
        type_error_triples=type_errors,
        true_site_accuracy=true_site_accuracy,
    )
