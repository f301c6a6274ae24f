"""Property-based tests of model invariants on randomly drawn corpora."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MultiLayerConfig, SingleLayerConfig
from repro.core.multi_layer import MultiLayerModel
from repro.core.observation import ObservationMatrix
from repro.core.single_layer import SingleLayerModel
from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    SourceKey,
)


@st.composite
def random_matrices(draw):
    """Small random observation cubes (2-5 sources/extractors/items)."""
    num_sources = draw(st.integers(2, 5))
    num_extractors = draw(st.integers(2, 4))
    num_items = draw(st.integers(2, 5))
    records = []
    record_count = draw(st.integers(5, 40))
    for index in range(record_count):
        source = SourceKey((f"w{draw(st.integers(0, num_sources - 1))}",))
        extractor = ExtractorKey(
            (f"e{draw(st.integers(0, num_extractors - 1))}",)
        )
        item = DataItem(f"s{draw(st.integers(0, num_items - 1))}", "p")
        value = f"v{draw(st.integers(0, 3))}"
        confidence = draw(st.floats(min_value=0.05, max_value=1.0))
        records.append(
            ExtractionRecord(
                extractor=extractor,
                source=source,
                item=item,
                value=value,
                confidence=confidence,
            )
        )
    return ObservationMatrix.from_records(records)


class TestMultiLayerInvariants:
    @given(random_matrices())
    @settings(max_examples=40, deadline=None)
    def test_all_outputs_are_probabilities(self, matrix):
        result = MultiLayerModel(MultiLayerConfig()).fit(matrix)
        for p in result.extraction_posteriors.values():
            assert 0.0 <= p <= 1.0
        for values in result.value_posteriors.values():
            total = sum(values.values())
            assert total <= 1.0 + 1e-9
            for p in values.values():
                assert 0.0 <= p <= 1.0
        for a in result.source_accuracy.values():
            assert 0.0 < a < 1.0
        for q in result.extractor_quality.values():
            assert 0.0 < q.precision < 1.0
            assert 0.0 < q.recall < 1.0
            assert 0.0 < q.q < 1.0

    @given(random_matrices())
    @settings(max_examples=20, deadline=None)
    def test_every_scored_coordinate_has_posterior(self, matrix):
        result = MultiLayerModel(MultiLayerConfig()).fit(matrix)
        assert set(result.extraction_posteriors) == set(
            matrix.columns().coords
        )

    @given(random_matrices())
    @settings(max_examples=20, deadline=None)
    def test_coverage_in_unit_interval(self, matrix):
        result = MultiLayerModel(MultiLayerConfig()).fit(matrix)
        assert 0.0 <= result.coverage <= 1.0


class TestSingleLayerInvariants:
    @given(random_matrices())
    @settings(max_examples=40, deadline=None)
    def test_all_outputs_are_probabilities(self, matrix):
        result = SingleLayerModel(SingleLayerConfig(n=10)).fit(matrix)
        for values in result.value_posteriors.values():
            for p in values.values():
                assert 0.0 <= p <= 1.0
        for a in result.provenance_accuracy.values():
            assert 0.0 < a < 1.0

    @given(random_matrices())
    @settings(max_examples=20, deadline=None)
    def test_most_probable_value_is_argmax(self, matrix):
        result = SingleLayerModel(SingleLayerConfig(n=10)).fit(matrix)
        for item, values in result.value_posteriors.items():
            best = result.most_probable_value(item)
            assert values[best] == pytest.approx(max(values.values()))
