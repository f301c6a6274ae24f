"""Websites and webpages: the claim-providing layer of the simulation.

A website has an intrinsic accuracy ``A_w`` (the quantity KBT estimates), a
topic, and a popularity weight used by the web-graph generator (popularity
is drawn independently of accuracy — the premise behind Figure 10). Each of
its pages provides claims: for every chosen data item, the true value with
probability ``A_w``, otherwise a false value — the item's "popular myth"
with probability ``myth_share``, a uniform false value otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.types import DataItem, Triple, Value
from repro.extraction.world import TrueWorld
from repro.util.rng import derive_rng


@dataclass(frozen=True, slots=True)
class WebPage:
    """One webpage and the claims it truly provides."""

    website: str
    url: str
    claims: tuple[Triple, ...]
    #: The ``(item, value)`` pairs of ``claims``: what every extraction
    #: system that visits the page checks its output against. Built once
    #: here instead of once per system per page.
    provided: frozenset[tuple[DataItem, Value]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "provided",
            frozenset((claim.item, claim.value) for claim in self.claims),
        )

    def items(self) -> list[DataItem]:
        return [claim.item for claim in self.claims]


@dataclass(frozen=True)
class WebSite:
    """A website: accuracy, topic, popularity and its pages."""

    name: str
    accuracy: float
    topic: str
    popularity: float
    pages: tuple[WebPage, ...] = field(default=())
    cohort: str = "mainstream"

    @property
    def num_claims(self) -> int:
        return sum(len(page.claims) for page in self.pages)

    def empirical_accuracy(self, world: TrueWorld) -> float:
        """Fraction of provided claims that match the world's truth."""
        total = 0
        correct = 0
        for page in self.pages:
            for claim in page.claims:
                total += 1
                if world.is_true(claim.item, claim.value):
                    correct += 1
        return correct / total if total else 0.0


def build_site(
    world: TrueWorld,
    name: str,
    accuracy: float,
    page_sizes: list[int],
    predicates: list[str] | None = None,
    topic: str = "general",
    popularity: float = 1.0,
    cohort: str = "mainstream",
    myth_share: float = 0.5,
    seed: int = 0,
) -> WebSite:
    """Materialise a website with one page per entry of ``page_sizes``.

    Args:
        world: ground truth to draw items and values from.
        name: the website domain (e.g. ``site042.example``).
        accuracy: probability that a provided value is correct.
        page_sizes: number of claims on each page (drives the Figure 5
            heavy-tail when drawn from a power law).
        predicates: restrict claims to these predicates (site focus);
            defaults to the whole schema.
        topic: site topic label.
        popularity: link-popularity weight for the web-graph generator.
        cohort: diagnostic label ("mainstream", "gossip", "tail-quality").
        myth_share: probability that a wrong claim lands on the item's
            popular myth instead of a uniform false value.
        seed: RNG stream seed.
    """
    if not 0.0 <= accuracy <= 1.0:
        raise ValueError("accuracy must be in [0, 1]")
    if not 0.0 <= myth_share <= 1.0:
        raise ValueError("myth_share must be in [0, 1]")
    available = predicates or world.schema.predicate_names()
    item_pool: list[DataItem] = []
    for predicate in available:
        item_pool.extend(world.items_for_predicate(predicate))
    if not item_pool:
        raise ValueError("no items available for the requested predicates")

    rng = derive_rng(seed, "site", name)
    pages = []
    for page_index, size in enumerate(page_sizes):
        url = f"{name}/page{page_index:05d}.html"
        chosen: dict[DataItem, Value] = {}
        attempts = 0
        while len(chosen) < size and attempts < size * 5:
            attempts += 1
            item = rng.choice(item_pool)
            if item in chosen:
                continue
            chosen[item] = _draw_claim_value(world, item, accuracy,
                                             myth_share, rng)
        claims = tuple(
            Triple(item.subject, item.predicate, value)
            for item, value in chosen.items()
        )
        pages.append(WebPage(website=name, url=url, claims=claims))
    return WebSite(
        name=name,
        accuracy=accuracy,
        topic=topic,
        popularity=popularity,
        pages=tuple(pages),
        cohort=cohort,
    )


def _draw_claim_value(
    world: TrueWorld, item: DataItem, accuracy: float, myth_share: float, rng
) -> Value:
    """The value a page provides for ``item`` given the site accuracy."""
    facts = world.facts(item)
    if rng.random() < accuracy:
        return facts.true_value
    false_values = facts.false_values()
    if not false_values:
        return facts.true_value
    if rng.random() < myth_share:
        return facts.myth_value
    return rng.choice(false_values)
