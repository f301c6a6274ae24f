"""Unit tests for webpage generation and the simulated extractors."""

import pytest

from repro.extraction.entities import EntityCatalog
from repro.extraction.extractors import ExtractorSystem
from repro.extraction.pages import build_site
from repro.extraction.patterns import PatternProfile
from repro.extraction.schema import default_schema
from repro.extraction.world import TrueWorld
from repro.util.rng import derive_rng


@pytest.fixture(scope="module")
def world():
    return TrueWorld.build(
        default_schema(), EntityCatalog(seed=0), items_per_predicate=20,
        seed=0,
    )


@pytest.fixture(scope="module")
def big_world():
    """A larger item pool so pages can carry hundreds of claims."""
    return TrueWorld.build(
        default_schema(), EntityCatalog(seed=0), items_per_predicate=400,
        seed=0,
    )


def realised_accuracy(site, world):
    """Fraction of the site's claims that match the world's truth."""
    claims = [claim for page in site.pages for claim in page.claims]
    correct = sum(world.is_true(claim.item, claim.value) for claim in claims)
    return correct / len(claims)


class TestBuildSite:
    def test_page_structure(self, world):
        site = build_site(world, "x.com", accuracy=0.8, page_sizes=[3, 5])
        assert len(site.pages) == 2
        assert [len(p.claims) for p in site.pages] == [3, 5]
        assert all(p.website == "x.com" for p in site.pages)
        assert len({p.url for p in site.pages}) == 2

    def test_accurate_site_mostly_true(self, world):
        site = build_site(world, "good.com", accuracy=1.0,
                          page_sizes=[50] * 4)
        assert realised_accuracy(site, world) == pytest.approx(1.0)

    def test_inaccurate_site_mostly_false(self, world):
        site = build_site(world, "bad.com", accuracy=0.0, page_sizes=[50] * 4)
        assert realised_accuracy(site, world) == pytest.approx(0.0)

    def test_intermediate_accuracy_tracks_parameter(self, world):
        site = build_site(world, "mid.com", accuracy=0.7,
                          page_sizes=[80] * 5)
        assert realised_accuracy(site, world) == pytest.approx(0.7, abs=0.08)

    def test_predicate_focus_respected(self, world):
        site = build_site(
            world, "geo.com", accuracy=0.8, page_sizes=[20],
            predicates=["capital", "population"],
        )
        predicates = {c.predicate for p in site.pages for c in p.claims}
        assert predicates <= {"capital", "population"}

    def test_claims_unique_per_page(self, world):
        site = build_site(world, "u.com", accuracy=0.8, page_sizes=[40])
        items = [c.item for c in site.pages[0].claims]
        assert len(set(items)) == len(items)

    def test_myth_share_zero_spreads_errors(self, world):
        site = build_site(
            world, "nomyth.com", accuracy=0.0, page_sizes=[100] * 3,
            myth_share=0.0, seed=4,
        )
        myth_hits = 0
        total = 0
        for page in site.pages:
            for claim in page.claims:
                total += 1
                if world.facts(claim.item).myth_value == claim.value:
                    myth_hits += 1
        # Without myth preference, myth hits are ~1/(domain-1) of errors.
        assert myth_hits / total < 0.35

    def test_accuracy_bounds_validated(self, world):
        with pytest.raises(ValueError):
            build_site(world, "x.com", accuracy=1.5, page_sizes=[1])


def make_system(predicate="nationality", **kwargs):
    defaults = dict(
        recall=1.0, component_precision=1.0, spurious_rate=0.0,
        type_error_rate=0.0, calibrated=True,
    )
    defaults.update(kwargs)
    pattern = PatternProfile(pattern_id="p0", predicate=predicate, **defaults)
    return ExtractorSystem(name="sys", patterns=(pattern,), page_coverage=1.0)


class TestExtractorSystem:
    def test_perfect_extractor_reproduces_claims(self, big_world):
        site = build_site(big_world, "x.com", accuracy=0.8, page_sizes=[30],
                          predicates=["nationality"])
        system = make_system()
        rng = derive_rng(0, "t")
        outcomes = system.run_on_page(site.pages[0], big_world,
                                      default_schema(), rng)
        assert len(outcomes) == len(site.pages[0].claims) == 30
        assert all(o.provided for o in outcomes)
        assert all(not o.type_error for o in outcomes)

    def test_recall_drops_extractions(self, big_world):
        site = build_site(big_world, "x.com", accuracy=0.8, page_sizes=[200],
                          predicates=["nationality"])
        system = make_system(recall=0.3)
        rng = derive_rng(0, "t")
        outcomes = system.run_on_page(site.pages[0], big_world,
                                      default_schema(), rng)
        claims = len(site.pages[0].claims)
        assert 0.1 * claims < len(outcomes) < 0.55 * claims

    def test_corruption_produces_unprovided_triples(self, world):
        site = build_site(world, "x.com", accuracy=0.8, page_sizes=[200],
                          predicates=["nationality"])
        system = make_system(component_precision=0.5, type_error_rate=0.0)
        rng = derive_rng(0, "t")
        outcomes = system.run_on_page(site.pages[0], world,
                                      default_schema(), rng)
        wrong = [o for o in outcomes if not o.provided]
        assert wrong  # reconciliation errors must exist at cp=0.5

    def test_subject_corruption_is_systematic(self, world):
        site = build_site(world, "x.com", accuracy=0.8, page_sizes=[300],
                          predicates=["nationality"])
        system = make_system(component_precision=0.3, type_error_rate=0.0)
        rng = derive_rng(0, "t")
        outcomes = system.run_on_page(site.pages[0], world,
                                      default_schema(), rng)
        corrupted = {
            o.record.item.subject
            for o in outcomes
            if "#" in o.record.item.subject
        }
        assert corrupted
        assert all(s.endswith("#sys") for s in corrupted)

    def test_type_errors_flagged(self, world):
        site = build_site(world, "x.com", accuracy=0.8, page_sizes=[300],
                          predicates=["height_cm"])
        system = make_system(
            predicate="height_cm", component_precision=0.2,
            type_error_rate=1.0,
        )
        rng = derive_rng(0, "t")
        outcomes = system.run_on_page(site.pages[0], world,
                                      default_schema(), rng)
        type_errors = [o for o in outcomes if o.type_error]
        assert type_errors
        # Every flagged record must be either self-referential or outside
        # the predicate's numeric range.
        low, high = default_schema().get("height_cm").value_range
        for o in type_errors:
            value = o.record.value
            if isinstance(value, str):
                assert value == o.record.item.subject
            else:
                assert not low <= value <= high

    def test_spurious_extractions_not_provided(self, big_world):
        site = build_site(big_world, "x.com", accuracy=0.8, page_sizes=[50],
                          predicates=["nationality"])
        system = make_system(recall=1.0, spurious_rate=1.0)
        rng = derive_rng(0, "t")
        outcomes = system.run_on_page(site.pages[0], big_world,
                                      default_schema(), rng)
        # All provided claims plus exactly one hallucinated triple.
        assert len(outcomes) == len(site.pages[0].claims) + 1

    def test_confidences_in_range(self, world):
        site = build_site(world, "x.com", accuracy=0.8, page_sizes=[100],
                          predicates=["nationality"])
        system = make_system(component_precision=0.7, calibrated=False)
        rng = derive_rng(0, "t")
        outcomes = system.run_on_page(site.pages[0], world,
                                      default_schema(), rng)
        for o in outcomes:
            assert 0.0 < o.record.confidence <= 1.0

    def test_calibrated_confidence_tracks_correctness(self, world):
        site = build_site(world, "x.com", accuracy=0.8,
                          page_sizes=[300] * 3, predicates=["nationality"])
        system = make_system(component_precision=0.6, type_error_rate=0.0)
        rng = derive_rng(0, "t")
        correct_confs = []
        wrong_confs = []
        for page in site.pages:
            for o in system.run_on_page(page, world, default_schema(), rng):
                (correct_confs if o.provided else wrong_confs).append(
                    o.record.confidence
                )
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
        assert mean(correct_confs) > mean(wrong_confs) + 0.15

    def test_duplicate_pattern_ids_rejected(self):
        pattern = PatternProfile(pattern_id="p0", predicate="nationality")
        with pytest.raises(ValueError):
            ExtractorSystem(name="sys", patterns=(pattern, pattern))

    def test_record_keys_carry_granularity_features(self, world):
        site = build_site(world, "x.com", accuracy=0.8, page_sizes=[10],
                          predicates=["nationality"])
        system = make_system()
        rng = derive_rng(0, "t")
        outcome = system.run_on_page(site.pages[0], world,
                                     default_schema(), rng)[0]
        assert outcome.record.extractor.features == (
            "sys", "p0", "nationality", "x.com"
        )
        assert outcome.record.source.features == (
            "x.com", "nationality", site.pages[0].url
        )


class TestPatternProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            PatternProfile("p", "x", recall=0.0)
        with pytest.raises(ValueError):
            PatternProfile("p", "x", spurious_rate=1.5)
