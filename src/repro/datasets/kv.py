"""A Knowledge-Vault-scale synthetic corpus (the Section 5.3 stand-in).

The real KV snapshot (2.8B triples, 2B+ pages, 16 systems, 40M patterns) is
proprietary; this generator reproduces its *structural* properties at a
laptop scale so that every Table 5-7 / Figure 5-10 experiment exercises the
same code paths:

* heavy-tailed pages-per-site and claims-per-page (Figure 5's long tail:
  most URLs contribute fewer than 5 triples, a few contribute thousands);
* 16 extraction systems whose patterns have individually drawn quality,
  including poorly calibrated and spurious ones;
* a site-accuracy mixture with three cohorts: mainstream sites, popular but
  inaccurate "gossip" sites, and accurate but unpopular "tail-quality"
  sites (the two off-diagonal quadrants of Figure 10);
* a Freebase-like KB covering a fraction of the facts (LCWA labels exist
  for a subset of triples, as in the paper) plus type-violating extraction
  errors for Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.observation import ObservationMatrix
from repro.extraction.campaign import CampaignResult, run_campaign
from repro.extraction.entities import EntityCatalog
from repro.extraction.extractors import ExtractorSystem
from repro.extraction.pages import WebSite, build_site
from repro.extraction.patterns import PatternProfile
from repro.extraction.schema import Schema, default_schema
from repro.extraction.world import TrueWorld
from repro.kb.gold import GoldStandard
from repro.kb.knowledge_base import KnowledgeBase
from repro.util.rng import derive_rng, pareto_int, zipf_sizes


@dataclass(frozen=True, slots=True)
class KVConfig:
    """Scale and mixture knobs of the synthetic KV corpus."""

    num_websites: int = 250
    items_per_predicate: int = 60
    num_systems: int = 16
    #: pages per site are Zipf-distributed in [1, max_pages_per_site].
    pages_zipf_exponent: float = 1.3
    max_pages_per_site: int = 40
    #: claims per page are Zipf-distributed in [1, max_claims_per_page].
    claims_zipf_exponent: float = 1.1
    max_claims_per_page: int = 400
    #: cohort mixture.
    gossip_fraction: float = 0.06
    tail_quality_fraction: float = 0.10
    #: KB coverage of world facts (controls the LCWA-labelable share).
    kb_coverage: float = 0.35
    #: patterns per system are Zipf-distributed in [min, max].
    min_patterns_per_system: int = 10
    max_patterns_per_system: int = 60
    #: share of systems with low-quality, uncalibrated patterns.
    bad_system_fraction: float = 0.25
    #: pattern applicability mixture: a ``broad_pattern_fraction`` of
    #: patterns match every site; the rest are template-specific and match
    #: roughly ``narrow_affinity_base`` of sites (Pareto-scaled), which is
    #: what produces Figure 5's long tail of tiny patterns.
    broad_pattern_fraction: float = 0.3
    narrow_affinity_base: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_websites < 1:
            raise ValueError("num_websites must be >= 1")
        if self.num_systems < 1:
            raise ValueError("num_systems must be >= 1")
        if not 0.0 <= self.gossip_fraction + self.tail_quality_fraction <= 1.0:
            raise ValueError("cohort fractions must sum to <= 1")
        if not 0.0 <= self.kb_coverage <= 1.0:
            raise ValueError("kb_coverage must be in [0, 1]")
        if not 1 <= self.min_patterns_per_system <= self.max_patterns_per_system:
            raise ValueError("bad pattern count bounds")
        if not 0.0 <= self.broad_pattern_fraction <= 1.0:
            raise ValueError("broad_pattern_fraction must be in [0, 1]")
        if not 0.0 < self.narrow_affinity_base <= 1.0:
            raise ValueError("narrow_affinity_base must be in (0, 1]")


@dataclass
class KVDataset:
    """The generated corpus with every ground-truth hook the benches need."""

    config: KVConfig
    schema: Schema
    world: TrueWorld
    sites: list[WebSite]
    systems: list[ExtractorSystem]
    campaign: CampaignResult
    kb: KnowledgeBase
    gold: GoldStandard
    _observation: ObservationMatrix | None = field(default=None, repr=False)

    def observation(self) -> ObservationMatrix:
        return self.campaign.observation()

    @property
    def true_site_accuracy(self) -> dict[str, float]:
        """Empirical accuracy per website (ground truth for KBT)."""
        return self.campaign.true_site_accuracy

    def site_popularity(self) -> dict[str, float]:
        """Link-popularity weight per website (for the web graph)."""
        return {site.name: site.popularity for site in self.sites}

    def cohorts(self) -> dict[str, str]:
        return {site.name: site.cohort for site in self.sites}

    def triples_per_url(self) -> dict[str, int]:
        """Distinct extracted triples per URL (Figure 5, left series)."""
        counts: dict[str, int] = {}
        for source, size in self.observation().source_sizes().items():
            url = source.features[2] if source.level >= 3 else source.website
            counts[url] = counts.get(url, 0) + size
        return counts

    def triples_per_pattern(self) -> dict[tuple[str, str], int]:
        """Distinct extracted triples per (system, pattern) (Figure 5)."""
        counts: dict[tuple[str, str], int] = {}
        for extractor, size in self.observation().extractor_sizes().items():
            key = (extractor.features[0], extractor.features[1])
            counts[key] = counts.get(key, 0) + size
        return counts


def generate_kv(config: KVConfig | None = None) -> KVDataset:
    """Generate the full corpus: world, sites, systems, campaign, KB."""
    cfg = config or KVConfig()
    schema = default_schema()
    catalog = EntityCatalog(seed=cfg.seed)
    world = TrueWorld.build(
        schema, catalog, items_per_predicate=cfg.items_per_predicate,
        seed=cfg.seed,
    )
    sites = _build_sites(cfg, world)
    systems = _build_systems(cfg, schema)
    campaign = run_campaign(sites, systems, world, schema, seed=cfg.seed)
    kb = KnowledgeBase.from_world(world, coverage=cfg.kb_coverage,
                                  seed=cfg.seed)
    gold = GoldStandard(kb, schema)
    return KVDataset(
        config=cfg,
        schema=schema,
        world=world,
        sites=sites,
        systems=systems,
        campaign=campaign,
        kb=kb,
        gold=gold,
    )


def iter_kv_record_chunks(config: KVConfig | None = None):
    """Stream the KV corpus as one record chunk per website.

    The chunked shape an out-of-core fit folds into the matrix
    (``ObservationMatrix.from_records(chain.from_iterable(chunks))`` /
    ``MultiLayerConfig.spill_dir``): each yielded chunk holds every
    extraction record of one website across all systems, and only one
    website's pages exist in memory at a time — the generator never
    materializes the full corpus the way :func:`generate_kv` does.

    Per-page extraction RNG is derived from ``(seed, system, url)``
    exactly like :func:`repro.extraction.campaign.run_campaign`, so the
    stream's record *set* equals the campaign's; only the order differs
    (site-major here, system-major there). Fit equivalence is therefore
    up to first-seen key order: compare like with like (both paths fed
    from this stream, or both from the campaign).
    """
    cfg = config or KVConfig()
    schema = default_schema()
    catalog = EntityCatalog(seed=cfg.seed)
    world = TrueWorld.build(
        schema, catalog, items_per_predicate=cfg.items_per_predicate,
        seed=cfg.seed,
    )
    systems = _build_systems(cfg, schema)
    for site in _iter_sites(cfg, world):
        records = []
        for system in systems:
            for page in site.pages:
                rng = derive_rng(cfg.seed, "campaign", system.name, page.url)
                if rng.random() >= system.page_coverage:
                    continue
                records.extend(
                    outcome.record
                    for outcome in system.run_on_page(
                        page, world, schema, rng
                    )
                )
        yield records


def _build_sites(cfg: KVConfig, world: TrueWorld) -> list[WebSite]:
    """Draw the website mixture with its three cohorts."""
    return list(_iter_sites(cfg, world))


def _iter_sites(cfg: KVConfig, world: TrueWorld):
    """Yield the website mixture one site at a time (same draws as the
    resident builder: the shared cohort RNG is consumed sequentially, so
    site ``i`` is identical whether or not earlier sites were kept)."""
    rng = derive_rng(cfg.seed, "sites")
    num_gossip = round(cfg.num_websites * cfg.gossip_fraction)
    num_tail = round(cfg.num_websites * cfg.tail_quality_fraction)
    topics = sorted({spec.topic for spec in world.schema.predicates()})
    predicates_by_topic = {
        topic: [
            spec.name
            for spec in world.schema.predicates()
            if spec.topic == topic
        ]
        for topic in topics
    }

    for index in range(cfg.num_websites):
        name = f"site{index:04d}.example"
        if index < num_gossip:
            cohort = "gossip"
            accuracy = rng.uniform(0.15, 0.45)
            popularity = rng.uniform(5.0, 20.0)  # popular but wrong
        elif index < num_gossip + num_tail:
            cohort = "tail-quality"
            accuracy = rng.uniform(0.90, 0.99)
            popularity = rng.uniform(0.05, 0.3)  # accurate but obscure
        else:
            cohort = "mainstream"
            accuracy = min(max(rng.betavariate(8.0, 2.5), 0.05), 0.99)
            popularity = rng.lognormvariate(0.0, 1.0)
        topic = rng.choice(topics)
        num_pages = zipf_sizes(
            derive_rng(cfg.seed, "pages", name), 1,
            exponent=cfg.pages_zipf_exponent, minimum=1,
            maximum=cfg.max_pages_per_site,
        )[0]
        page_sizes = zipf_sizes(
            derive_rng(cfg.seed, "page-sizes", name), num_pages,
            exponent=cfg.claims_zipf_exponent, minimum=1,
            maximum=cfg.max_claims_per_page,
        )
        if cohort in ("gossip", "tail-quality"):
            # Popular gossip sites publish plenty of content, and the
            # Figure 10 quadrant sites must clear the >= 5 extracted
            # triples reporting rule; give both cohorts a content floor.
            while len(page_sizes) < 3:
                page_sizes.append(1)
            page_sizes = [max(size, 5) for size in page_sizes]
        yield build_site(
            world,
            name=name,
            accuracy=accuracy,
            page_sizes=page_sizes,
            predicates=predicates_by_topic[topic],
            topic=topic,
            popularity=popularity,
            cohort=cohort,
            seed=cfg.seed,
        )


def _build_systems(cfg: KVConfig, schema: Schema) -> list[ExtractorSystem]:
    """Draw the 16-system extractor fleet with per-pattern quality."""
    predicates = schema.predicate_names()
    num_bad = round(cfg.num_systems * cfg.bad_system_fraction)
    systems = []
    for index in range(cfg.num_systems):
        name = f"sys{index:02d}"
        rng = derive_rng(cfg.seed, "system", name)
        bad = index < num_bad
        num_patterns = zipf_sizes(
            rng, 1, exponent=1.0,
            minimum=cfg.min_patterns_per_system,
            maximum=cfg.max_patterns_per_system,
        )[0]
        patterns = []
        for p_index in range(num_patterns):
            predicate = rng.choice(predicates)
            if rng.random() < cfg.broad_pattern_fraction:
                affinity = 1.0
            else:
                scale = pareto_int(rng, alpha=1.0, minimum=1,
                                   maximum=int(1.0 / cfg.narrow_affinity_base))
                affinity = min(1.0, cfg.narrow_affinity_base * scale)
            if bad:
                profile = PatternProfile(
                    pattern_id=f"{name}-pat{p_index:03d}",
                    predicate=predicate,
                    recall=rng.uniform(0.15, 0.5),
                    component_precision=rng.uniform(0.5, 0.8),
                    spurious_rate=rng.uniform(0.05, 0.15),
                    type_error_rate=rng.uniform(0.3, 0.6),
                    calibrated=False,
                    site_affinity=affinity,
                )
            else:
                profile = PatternProfile(
                    pattern_id=f"{name}-pat{p_index:03d}",
                    predicate=predicate,
                    recall=rng.uniform(0.5, 0.95),
                    component_precision=rng.uniform(0.85, 0.99),
                    spurious_rate=rng.uniform(0.0, 0.03),
                    type_error_rate=rng.uniform(0.1, 0.4),
                    calibrated=True,
                    site_affinity=affinity,
                )
            patterns.append(profile)
        systems.append(
            ExtractorSystem(
                name=name,
                patterns=tuple(patterns),
                page_coverage=rng.uniform(0.4, 0.9),
            )
        )
    return systems
