"""Unit tests for the Section 5.4.2 weighting extensions."""

import pytest

from repro.core.config import MultiLayerConfig
from repro.core.multi_layer import MultiLayerModel
from repro.core.observation import ObservationMatrix
from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    page_source,
)
from repro.core.weighting import (
    idf_weights,
    predicate_variety_weights,
    reweighted_source_accuracy,
)


def record(website, subject, predicate, value, url="u"):
    return ExtractionRecord(
        extractor=ExtractorKey(("e",)),
        source=page_source(website, predicate, f"{website}/{url}"),
        item=DataItem(subject, predicate),
        value=value,
    )


def trivial_corpus():
    """'language' is constant (trivial); 'director' is varied."""
    records = []
    for i in range(10):
        records.append(record("movies.com", f"film{i}", "language", "hindi"))
        records.append(
            record("movies.com", f"film{i}", "director", f"person{i}")
        )
    return ObservationMatrix.from_records(records)


class TestPredicateVariety:
    def test_constant_predicate_weight_zero(self):
        weights = predicate_variety_weights(trivial_corpus())
        assert weights["language"] == 0.0

    def test_varied_predicate_weight_high(self):
        weights = predicate_variety_weights(trivial_corpus())
        assert weights["director"] == pytest.approx(1.0)

    def test_weights_in_unit_interval(self):
        for weight in predicate_variety_weights(trivial_corpus()).values():
            assert 0.0 <= weight <= 1.0


class TestIdfWeights:
    def test_frequent_value_weighted_below_rare(self):
        obs = trivial_corpus()
        weights = idf_weights(obs)
        common = weights[
            (
                page_source("movies.com", "language", "movies.com/u"),
                DataItem("film0", "language"),
                "hindi",
            )
        ]
        rare = weights[
            (
                page_source("movies.com", "director", "movies.com/u"),
                DataItem("film0", "director"),
                "person0",
            )
        ]
        assert common < rare

    def test_weights_positive_and_bounded(self):
        for weight in idf_weights(trivial_corpus()).values():
            assert 0.0 < weight <= 1.0


class TestReweightedAccuracy:
    def test_trivial_predicate_downweighting_changes_kbt(self):
        """A site that is right only on the trivial predicate must drop.

        Sources are keyed at the website level so one source spans both
        predicates (a predicate-level source is homogeneous by construction
        and predicate weights cancel out of its average).
        """
        from repro.core.types import SourceKey

        def site_record(site, subject, predicate, value):
            return ExtractionRecord(
                extractor=ExtractorKey(("e",)),
                source=SourceKey((site,)),
                item=DataItem(subject, predicate),
                value=value,
            )

        records = []
        # padder.com: correct on 'language' (shared by everyone), wrong on
        # 'director' (contradicted by three other sites).
        for site in ("a.com", "b.com", "c.com", "padder.com"):
            for i in range(6):
                records.append(
                    site_record(site, f"film{i}", "language", "hindi")
                )
        for site in ("a.com", "b.com", "c.com"):
            for i in range(6):
                records.append(
                    site_record(site, f"film{i}", "director", f"person{i}")
                )
        for i in range(6):
            records.append(
                site_record("padder.com", f"film{i}", "director", "wrong")
            )
        obs = ObservationMatrix.from_records(records)
        result = MultiLayerModel(MultiLayerConfig()).fit(obs)
        weights = predicate_variety_weights(obs)
        reweighted = reweighted_source_accuracy(
            result, predicate_weights=weights
        )
        padder = SourceKey(("padder.com",))
        assert reweighted[padder] < result.source_accuracy[padder]

    def test_zero_weight_sources_keep_fitted_accuracy(self):
        obs = trivial_corpus()
        result = MultiLayerModel(MultiLayerConfig()).fit(obs)
        zero = {coord: 0.0 for coord in result.extraction_posteriors}
        reweighted = reweighted_source_accuracy(result, triple_weights=zero)
        assert reweighted == result.source_accuracy
