"""Unit tests for the result containers and their accessors."""

import pytest

from repro.core.quality import ExtractorQuality
from repro.core.results import (
    IterationSnapshot,
    MultiLayerResult,
    SingleLayerResult,
)
from repro.core.types import DataItem, ExtractorKey, SourceKey
from result_reference import result_from_views


def item(name):
    return DataItem(name, "p")


def multi_result(**overrides):
    w1, w2 = SourceKey(("w1",)), SourceKey(("w2",))
    defaults = dict(
        value_posteriors={
            item("a"): {"x": 0.9, "y": 0.05},
            item("b"): {"z": 0.6},
        },
        extraction_posteriors={
            (w1, item("a"), "x"): 0.95,
            (w1, item("b"), "z"): 0.40,
            (w2, item("a"), "y"): 0.20,
        },
        source_accuracy={w1: 0.8, w2: 0.3},
        extractor_quality={
            ExtractorKey(("e",)): ExtractorQuality(0.9, 0.8, 0.05)
        },
        estimable_sources={w1, w2},
        estimable_extractors={ExtractorKey(("e",))},
        num_triples_total=4,
        history=[IterationSnapshot(1, 0.1, 0.2)],
    )
    defaults.update(overrides)
    return result_from_views(**defaults)


class TestIterationSnapshot:
    def test_max_delta(self):
        snap = IterationSnapshot(1, 0.1, 0.3)
        assert snap.max_delta == 0.3


class TestTripleView:
    def test_triple_probability(self):
        result = multi_result()
        assert result.triple_probability(item("a"), "x") == 0.9
        assert result.triple_probability(item("a"), "missing") is None
        assert result.triple_probability(item("zz"), "x") is None

    def test_most_probable_value(self):
        result = multi_result()
        assert result.most_probable_value(item("a")) == "x"
        assert result.most_probable_value(item("zz")) is None

    def test_covered_triples(self):
        result = multi_result()
        assert (item("a"), "x") in result.covered_triples()
        assert len(result.covered_triples()) == 3

    def test_coverage_fraction(self):
        result = multi_result()
        assert result.coverage == pytest.approx(3 / 4)

    def test_coverage_empty_universe(self):
        result = multi_result(num_triples_total=0)
        assert result.coverage == 0.0


class TestMultiLayerResult:
    def test_extraction_probability(self):
        result = multi_result()
        w1 = SourceKey(("w1",))
        assert result.extraction_probability(w1, item("a"), "x") == 0.95
        assert result.extraction_probability(w1, item("a"), "q") is None

    def test_expected_triples_by_source(self):
        result = multi_result()
        support = result.expected_triples_by_source()
        assert support[SourceKey(("w1",))] == pytest.approx(1.35)
        assert support[SourceKey(("w2",))] == pytest.approx(0.20)

    def test_priors_default_empty(self):
        assert multi_result().priors == {}

    def test_iterations_run(self):
        assert multi_result().iterations_run == 1


class TestSingleLayerResult:
    def test_accessors(self):
        result = SingleLayerResult(
            value_posteriors={item("a"): {"x": 0.7}},
            provenance_accuracy={"prov": 0.6},
            participating={"prov"},
            num_triples_total=2,
            history=[IterationSnapshot(1, 0.01)],
        )
        assert result.triple_probability(item("a"), "x") == 0.7
        assert result.coverage == 0.5
        assert result.iterations_run == 1
        assert result.provenance_accuracy["prov"] == 0.6
