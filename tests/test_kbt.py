"""Unit tests for the KBT estimator facade and its report."""

import random
from pathlib import Path

import pytest

from repro.core.config import (
    AbsenceScope,
    ConvergenceConfig,
    GranularityConfig,
    MultiLayerConfig,
)
from repro.core.kbt import FittedKBT, KBTEstimator, KBTReport
from repro.core.observation import ObservationMatrix
from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    SourceKey,
    page_source,
)
from repro.datasets.kv import KVConfig, iter_kv_record_chunks
from repro.datasets.motivating import motivating_example, source_key
from result_reference import result_from_views


def page_records(website, url, extractor, items, value_fn):
    return [
        ExtractionRecord(
            extractor=ExtractorKey((extractor,)),
            source=page_source(website, "p", url),
            item=DataItem(s, "p"),
            value=value_fn(s),
        )
        for s in items
    ]


def two_site_corpus():
    """good.com agrees with the crowd; bad.com contradicts it."""
    records = []
    subjects = [f"s{i}" for i in range(12)]
    for i, site in enumerate(("a.com", "b.com", "c.com", "good.com")):
        records.extend(
            page_records(site, f"{site}/p", f"e{i % 2}", subjects,
                         lambda s: f"true-{s}")
        )
    records.extend(
        page_records("bad.com", "bad.com/p", "e0", subjects,
                     lambda s: f"false-{s}")
    )
    return records


class TestEstimator:
    def test_website_scores_rank_good_above_bad(self):
        report = KBTEstimator().fit(two_site_corpus()).report
        scores = report.website_scores()
        assert scores["good.com"].score > scores["bad.com"].score

    def test_accepts_matrix_or_records(self):
        records = two_site_corpus()
        from_records = KBTEstimator().fit(records).report
        from_matrix = KBTEstimator().fit(
            ObservationMatrix.from_records(records)
        ).report
        assert from_records.website_scores().keys() == (
            from_matrix.website_scores().keys()
        )

    def test_min_triples_filters_thin_sources(self):
        records = two_site_corpus()
        # One extra site with a single extracted triple.
        records.extend(
            page_records("thin.com", "thin.com/p", "e0", ["s0"],
                         lambda s: f"true-{s}")
        )
        report = KBTEstimator(min_triples=5.0).fit(records).report
        assert "thin.com" not in report.website_scores()
        lax = KBTEstimator(min_triples=0.5).fit(records).report
        assert "thin.com" in lax.website_scores()

    def test_webpage_scores_keyed_by_site_and_url(self):
        report = KBTEstimator().fit(two_site_corpus()).report
        pages = report.webpage_scores()
        assert ("good.com", "good.com/p") in pages

    def test_source_scores_at_model_granularity(self):
        report = KBTEstimator().fit(two_site_corpus()).report
        sources = report.source_scores()
        assert all(score.support >= 5.0 for score in sources.values())

    def test_score_support_reflects_extraction_mass(self):
        report = KBTEstimator().fit(two_site_corpus()).report
        scores = report.website_scores()
        assert scores["good.com"].support == pytest.approx(12.0, abs=1.0)


def build_result(entries):
    """A MultiLayerResult with hand-chosen accuracies and C posteriors.

    ``entries`` is a list of (source, accuracy, [p_correct, ...]); each
    p_correct becomes one extraction posterior, so a source's support is
    exactly ``sum(p_corrects)``.
    """
    source_accuracy = {}
    extraction_posteriors = {}
    for index, (source, accuracy, p_corrects) in enumerate(entries):
        source_accuracy[source] = accuracy
        for claim, p in enumerate(p_corrects):
            item = DataItem(f"s{index}_{claim}", "p")
            extraction_posteriors[(source, item, f"v{index}_{claim}")] = p
    return result_from_views(
        value_posteriors={},
        extraction_posteriors=extraction_posteriors,
        source_accuracy=source_accuracy,
        extractor_quality={},
        estimable_sources=set(source_accuracy),
        estimable_extractors=set(),
        num_triples_total=len(extraction_posteriors),
        history=[],
    )


class TestValidation:
    def test_negative_min_triples_rejected_by_estimator(self):
        with pytest.raises(ValueError, match="min_triples"):
            KBTEstimator(min_triples=-1.0)

    def test_negative_min_triples_rejected_by_report(self):
        result = build_result([(SourceKey(("a.com",)), 0.9, [1.0])])
        with pytest.raises(ValueError, match="min_triples"):
            KBTReport(result, min_triples=-0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "5"])
    def test_non_finite_min_triples_rejected(self, bad):
        # NaN used to pass the ``< 0`` check and report every source.
        result = build_result([(SourceKey(("a.com",)), 0.9, [1.0])])
        for make in (
            lambda: KBTEstimator(min_triples=bad),
            lambda: KBTReport(result, min_triples=bad),
            lambda: FittedKBT(result, None, MultiLayerConfig(), bad),
        ):
            with pytest.raises(ValueError, match="finite number >= 0"):
                make()

    def test_zero_min_triples_accepted(self):
        result = build_result([(SourceKey(("a.com",)), 0.9, [1.0])])
        assert KBTReport(result, min_triples=0.0).website_scores()

    @pytest.mark.parametrize("part", ["source", "extractor"])
    def test_negative_bucket_refused_before_the_fit(self, part, monkeypatch):
        """No artifact can hold a negative split bucket, so a fit or an
        update over a record keyed with one stops while the matrix is
        built, naming the key, and never reaches the EM loop."""
        from repro.exec import driver
        from repro.io.jsonl import read_records

        golden = Path(__file__).parent / "goldens" / "corpus.jsonl"
        records = list(read_records(golden))
        fitted = KBTEstimator().fit(records[:60])
        r = records[16]
        fields = dict(
            extractor=r.extractor,
            source=r.source,
            item=r.item,
            value=r.value,
            confidence=r.confidence,
        )
        key = fields[part]
        fields[part] = type(key)(key.features, -1)
        bad = records[16] = ExtractionRecord(**fields)

        def no_loop(*args, **kwargs):
            raise AssertionError("the EM loop ran")

        monkeypatch.setattr(driver, "fit_sharded", no_loop)
        message = "split bucket must be an int >= 0, got -1 in "
        message += type(key).__name__
        with pytest.raises(ValueError, match=message):
            KBTEstimator().fit(records)
        with pytest.raises(ValueError, match=message):
            fitted.update([bad])


class TestAggregationEdgeCases:
    def test_source_below_support_excluded_everywhere(self):
        thin = page_source("thin.com", "p", "thin.com/p")
        result = build_result([(thin, 0.9, [1.0, 1.0])])  # support 2 < 5
        report = KBTReport(result, min_triples=5.0)
        assert thin not in report.source_scores()
        assert "thin.com" not in report.website_scores()
        assert ("thin.com", "thin.com/p") not in report.webpage_scores()

    def test_zero_support_source_contributes_nothing(self):
        """An accuracy entry with no extraction mass must not divide by 0
        or drag the site average."""
        strong = page_source("a.com", "p", "a.com/1")
        ghost = page_source("a.com", "p", "a.com/2")
        result = build_result([
            (strong, 0.9, [1.0] * 6),
            (ghost, 0.1, []),  # accuracy exists, support is zero
        ])
        report = KBTReport(result, min_triples=5.0)
        assert report.website_scores()["a.com"].score == pytest.approx(0.9)

    def test_level_below_3_source_has_no_webpage(self):
        """Website- and predicate-level sources carry no URL: they count
        toward the website score but never appear in webpage_scores."""
        site_level = SourceKey(("a.com",))
        predicate_level = SourceKey(("a.com", "p"))
        page_level = page_source("a.com", "p", "a.com/page")
        result = build_result([
            (site_level, 0.8, [1.0] * 6),
            (predicate_level, 0.6, [1.0] * 6),
            (page_level, 0.9, [1.0] * 6),
        ])
        report = KBTReport(result, min_triples=5.0)
        pages = report.webpage_scores()
        assert list(pages) == [("a.com", "a.com/page")]
        assert pages[("a.com", "a.com/page")].score == pytest.approx(0.9)
        site = report.website_scores()["a.com"]
        assert site.support == pytest.approx(18.0)

    def test_support_weighted_average(self):
        """The site score is the support-weighted mean of its sources."""
        page1 = page_source("a.com", "p", "a.com/1")
        page2 = page_source("a.com", "p", "a.com/2")
        result = build_result([
            (page1, 0.9, [1.0, 1.0, 1.0]),      # support 3 at 0.9
            (page2, 0.5, [1.0, 0.5, 0.5]),      # support 2 at 0.5
        ])
        report = KBTReport(result, min_triples=5.0)
        score = report.website_scores()["a.com"]
        assert score.score == pytest.approx((3 * 0.9 + 2 * 0.5) / 5)
        assert score.support == pytest.approx(5.0)

    def test_group_below_threshold_excluded(self):
        """Sources each above zero support but jointly under min_triples."""
        page1 = page_source("b.com", "p", "b.com/1")
        page2 = page_source("b.com", "p", "b.com/2")
        result = build_result([
            (page1, 0.9, [1.0, 1.0]),
            (page2, 0.5, [1.0, 1.0]),
        ])
        assert "b.com" not in KBTReport(result, 5.0).website_scores()
        assert "b.com" in KBTReport(result, 4.0).website_scores()


class TestGranularityIntegration:
    def test_split_and_merge_pipeline_runs(self):
        report = KBTEstimator(
            granularity=GranularityConfig(min_size=3, max_size=8)
        ).fit(two_site_corpus()).report
        assert report.website_scores()

    def test_initialisation_transfers_across_merge(self):
        """Initial accuracies keyed by fine sources must reach merged keys."""
        records = two_site_corpus()
        init = {
            page_source("bad.com", "p", "bad.com/p"): 0.99,
        }
        report = KBTEstimator(
            config=MultiLayerConfig(),
            granularity=GranularityConfig(min_size=3, max_size=100),
        ).fit(records, initial_source_accuracy=init).report
        # The pipeline must simply accept and apply the transfer.
        assert report.website_scores()


class TestMotivatingExampleThroughFacade:
    def test_trustworthy_pages_outrank_false_ones(self):
        ex = motivating_example()
        report = KBTEstimator(min_triples=0.0).fit(ex.records).report
        result = report.result
        assert result.source_accuracy[source_key("W1")] > (
            result.source_accuracy[source_key("W5")]
        )


@pytest.mark.parametrize(
    "iterations",
    [
        5,
        200,
        pytest.param(
            2000,
            marks=pytest.mark.xfail(
                strict=True, reason="ROADMAP item 1: the Ĉ=1 set flips"
            ),
        ),
    ],
)
def test_shuffled_record_stream_scores_alike(iterations):
    """A fit reads a set of records, not a stream: at the iteration count
    the serving path runs (5, tolerance 0), and still at 200, the KV
    corpus in generator order and in a seeded shuffle gives the same
    website scores, source accuracies and value posteriors up to float
    summation order (gaps of about 2e-14 at 5 iterations, 1e-10 at 200).

    The contract is a fixed iteration count (``ConvergenceConfig``): by
    2 000 iterations the set ``{p(C|X) >= 0.5}`` that Eq. 28 sums over
    has flipped on some claims, and the two orders differ by about 0.1.
    """
    corpus = KVConfig(
        num_websites=60,
        items_per_predicate=60,
        num_systems=16,
        pages_zipf_exponent=0.9,
        claims_zipf_exponent=0.9,
        max_pages_per_site=30,
        max_claims_per_page=250,
        max_patterns_per_system=80,
        broad_pattern_fraction=0.2,
        narrow_affinity_base=0.004,
        seed=23,
    )
    records = [
        record for chunk in iter_kv_record_chunks(corpus) for record in chunk
    ]
    assert len(records) == 9487
    shuffled = list(records)
    random.Random(5).shuffle(shuffled)
    config = MultiLayerConfig(
        absence_scope=AbsenceScope.ACTIVE,
        min_extractor_support=3,
        min_source_support=2,
        convergence=ConvergenceConfig(
            tolerance=0.0, max_iterations=iterations
        ),
    )
    ordered = KBTEstimator(config=config).fit(records)
    mixed = KBTEstimator(config=config).fit(shuffled)

    def gap(a: dict, b: dict) -> float:
        assert a.keys() == b.keys()
        return max(abs(a[key] - b[key]) for key in a)

    assert gap(
        {site: s.score for site, s in ordered.website_scores().items()},
        {site: s.score for site, s in mixed.website_scores().items()},
    ) <= 1e-9
    assert gap(
        ordered.result.source_accuracy, mixed.result.source_accuracy
    ) <= 1e-9
    posteriors = ordered.result.value_posteriors
    assert posteriors.keys() == mixed.result.value_posteriors.keys()
    assert max(
        gap(values, mixed.result.value_posteriors[item])
        for item, values in posteriors.items()
        if values
    ) <= 1e-9
