"""Unit tests for the vote-count algebra against the paper's worked numbers.

The golden values come from Tables 3-4 and Examples 3.1-3.3: this is the
strongest correctness anchor in the whole reproduction, since the paper
prints the intermediate vote counts explicitly.
"""

import pytest

from repro.core.observation import ObservationMatrix
from repro.core.quality import ExtractorQuality
from repro.core.types import ExtractorKey
from repro.core.votes import accuracy_vote, value_posteriors
from repro.datasets.motivating import (
    KENYA,
    N_AMERICA,
    USA,
    motivating_example,
    source_key,
)

from matrix_reference import reference_of
from multi_layer_reference import VoteTable, extraction_posterior


@pytest.fixture(scope="module")
def table(example=None):
    return VoteTable(motivating_example().quality_by_key())


@pytest.fixture(scope="module")
def matrix():
    return ObservationMatrix.from_records(motivating_example().records)


def vcc_for(matrix, table, page, value):
    ex = motivating_example()
    cell = reference_of(matrix).cell((source_key(page), ex.item, value))
    return table.vote_count(cell)


class TestVoteTable:
    def test_total_absence_is_sum(self, table):
        ex = motivating_example()
        total = sum(
            q.absence_vote for q in ex.quality_by_key().values()
        )
        assert table.total_absence == pytest.approx(total)

    def test_absence_total_for_subset(self, table):
        keys = [ExtractorKey(("E1",)), ExtractorKey(("E3",))]
        expected = sum(table.absence(k) for k in keys)
        assert table.absence_total_for(set(keys)) == pytest.approx(expected)

    def test_unknown_extractors_ignored_in_subset(self, table):
        assert table.absence_total_for({ExtractorKey(("nope",))}) == 0.0

    def test_unknown_extraction_contributes_nothing(self, table):
        base = table.vote_count({})
        with_unknown = table.vote_count({ExtractorKey(("nope",)): 1.0})
        assert with_unknown == pytest.approx(base)


class TestWorkedExampleVoteCounts:
    """Example 3.1 and Table 4."""

    def test_w1_usa_vote_count(self, matrix, table):
        # Paper: (4.6 + 3.9 + 2.8 + 0.4) + 0 = 11.7.
        assert vcc_for(matrix, table, "W1", USA) == pytest.approx(11.7, abs=0.1)

    def test_w6_usa_vote_count(self, matrix, table):
        # Paper: 0.4 + (-4.6 - 0.7 - 4.5 - 0) = -9.4.
        assert vcc_for(matrix, table, "W6", USA) == pytest.approx(-9.4, abs=0.1)

    def test_w7_kenya_vote_count(self, matrix, table):
        # Example 3.3: two extractors, vote count -2.65.
        assert vcc_for(matrix, table, "W7", KENYA) == pytest.approx(
            -2.65, abs=0.05
        )

    @pytest.mark.parametrize(
        "page,value,expected",
        [
            ("W1", USA, 1.0),
            ("W1", KENYA, 0.0),
            ("W2", USA, 1.0),
            ("W2", N_AMERICA, 0.0),
            ("W3", USA, 1.0),
            ("W3", N_AMERICA, 0.0),
            ("W4", USA, 1.0),
            ("W4", KENYA, 0.0),
            ("W5", KENYA, 1.0),
            ("W6", USA, 0.0),
            ("W6", KENYA, 1.0),
            ("W7", KENYA, 0.07),
            ("W8", KENYA, 0.0),
        ],
    )
    def test_table_4_extraction_correctness(
        self, matrix, table, page, value, expected
    ):
        vcc = vcc_for(matrix, table, page, value)
        posterior = extraction_posterior(vcc, 0.5)
        assert posterior == pytest.approx(expected, abs=0.01)


class TestConfidenceWeightedVotes:
    def test_soft_votes_interpolate(self):
        quality = ExtractorQuality(precision=0.9, recall=0.8, q=0.05)
        table = VoteTable({ExtractorKey(("e",)): quality})
        full = table.vote_count({ExtractorKey(("e",)): 1.0})
        none = table.vote_count({})
        half = table.vote_count({ExtractorKey(("e",)): 0.5})
        assert none < half < full
        assert half == pytest.approx((full + none) / 2.0)

    def test_example_3_4_soft_evidence_keeps_w3_w4(self):
        """E1 at 0.85 + E3 at 0.5 should still support 'provided'."""
        ex = motivating_example()
        table = VoteTable(ex.quality_by_key())
        soft = table.vote_count(
            {ExtractorKey(("E1",)): 0.85, ExtractorKey(("E3",)): 0.5}
        )
        # Thresholding at 0.7 drops E3 entirely.
        hard = table.vote_count({ExtractorKey(("E1",)): 1.0})
        assert extraction_posterior(soft, 0.5) > 0.5
        assert soft != pytest.approx(hard)


class TestAccuracyVote:
    def test_example_3_2_vote(self):
        # ln(10 * 0.6 / 0.4) = 2.7.
        assert accuracy_vote(0.6, 10) == pytest.approx(2.708, abs=1e-3)

    def test_monotone_in_accuracy(self):
        assert accuracy_vote(0.9, 10) > accuracy_vote(0.5, 10)

    def test_monotone_in_n(self):
        assert accuracy_vote(0.6, 100) > accuracy_vote(0.6, 10)

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            accuracy_vote(0.5, 0)


class TestValuePosteriors:
    def test_example_3_2_posteriors(self):
        vote = accuracy_vote(0.6, 10)
        post = value_posteriors({USA: 4 * vote, KENYA: 2 * vote}, 11)
        assert post[USA] == pytest.approx(0.995, abs=1e-3)
        assert post[KENYA] == pytest.approx(0.004, abs=1e-3)
        # The missing mass goes to the 9 unobserved values.
        assert sum(post.values()) < 1.0

    def test_full_domain_observed_sums_to_one(self):
        post = value_posteriors({"a": 1.0, "b": 0.5}, 2)
        assert sum(post.values()) == pytest.approx(1.0)

    def test_more_values_than_domain_adds_no_extra_mass(self):
        post = value_posteriors({"a": 1.0, "b": 0.5, "c": 0.1}, 2)
        assert sum(post.values()) == pytest.approx(1.0)

    def test_invalid_domain_rejected(self):
        with pytest.raises(ValueError):
            value_posteriors({"a": 1.0}, 0)


class TestExtractionPosterior:
    def test_neutral_prior_is_sigmoid(self):
        assert extraction_posterior(0.0, 0.5) == pytest.approx(0.5)

    def test_example_3_3_prior_update(self):
        # With the re-estimated prior 0.4, sigma(-2.65 + log(0.4/0.6)) ~ 0.04.
        updated = extraction_posterior(-2.65, 0.4008)
        assert updated == pytest.approx(0.045, abs=0.005)
        initial = extraction_posterior(-2.65, 0.5)
        assert updated < initial

    def test_prior_shifts_posterior_monotonically(self):
        assert extraction_posterior(1.0, 0.9) > extraction_posterior(1.0, 0.1)
