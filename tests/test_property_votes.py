"""Property-based tests for the vote algebra and quality derivations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quality import ExtractorQuality, derive_q
from repro.core.types import ExtractorKey
from repro.core.votes import accuracy_vote, value_posteriors

from multi_layer_reference import VoteTable, extraction_posterior

quality_floats = st.floats(min_value=0.01, max_value=0.99)
confidences = st.floats(min_value=0.01, max_value=1.0)


@st.composite
def qualities(draw, max_extractors=6):
    count = draw(st.integers(min_value=1, max_value=max_extractors))
    table = {}
    for i in range(count):
        table[ExtractorKey((f"e{i}",))] = ExtractorQuality(
            precision=draw(quality_floats),
            recall=draw(quality_floats),
            q=draw(quality_floats),
        )
    return table


class TestDeriveQProperties:
    @given(quality_floats, quality_floats, quality_floats)
    def test_q_in_open_unit_interval(self, p, r, gamma):
        q = derive_q(p, r, gamma)
        assert 0.0 < q < 1.0

    @given(quality_floats, quality_floats)
    def test_monotone_decreasing_in_precision(self, r, gamma):
        assert derive_q(0.9, r, gamma) <= derive_q(0.2, r, gamma)


class TestVoteTableProperties:
    @given(qualities())
    @settings(max_examples=100)
    def test_empty_extraction_gives_total_absence(self, table_map):
        table = VoteTable(table_map)
        assert table.vote_count({}) == pytest.approx(table.total_absence)

    @given(qualities(), confidences)
    @settings(max_examples=100)
    def test_confidence_scales_between_absent_and_present(
        self, table_map, conf
    ):
        table = VoteTable(table_map)
        extractor = next(iter(table_map))
        low = table.vote_count({})
        high = table.vote_count({extractor: 1.0})
        mid = table.vote_count({extractor: conf})
        assert min(low, high) - 1e-9 <= mid <= max(low, high) + 1e-9

    @given(qualities())
    @settings(max_examples=100)
    def test_subset_absence_never_exceeds_bounds(self, table_map):
        table = VoteTable(table_map)
        keys = set(table_map)
        full = table.absence_total_for(keys)
        assert full == pytest.approx(table.total_absence)


class TestPosteriorProperties:
    @given(
        st.floats(min_value=-80, max_value=80),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_extraction_posterior_valid(self, vcc, prior):
        assert 0.0 <= extraction_posterior(vcc, prior) <= 1.0

    @given(st.floats(min_value=0.01, max_value=0.99),
           st.integers(min_value=1, max_value=1000))
    def test_accuracy_vote_monotone_in_accuracy(self, a, n):
        assert accuracy_vote(min(a + 0.005, 0.995), n) >= accuracy_vote(a, n)

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=3),
            st.floats(min_value=-30, max_value=30),
            min_size=1,
            max_size=6,
        ),
        st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=200)
    def test_value_posteriors_sum_bounded(self, votes, domain):
        post = value_posteriors(votes, domain)
        total = sum(post.values())
        assert 0.0 < total <= 1.0 + 1e-9
        if len(votes) >= domain:
            assert total == pytest.approx(1.0)
