"""Property-based tests for the numeric primitives (hypothesis)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.logmath import (
    clamp,
    clamp_probability,
    log_odds,
    sigmoid,
    softmax_with_floor_mass,
)

probabilities = st.floats(min_value=0.0, max_value=1.0)
finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
scores = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


class TestSigmoidProperties:
    @given(finite)
    def test_output_in_unit_interval(self, x):
        assert 0.0 <= sigmoid(x) <= 1.0

    @given(finite)
    def test_complement_symmetry(self, x):
        assert sigmoid(x) + sigmoid(-x) == pytest_approx(1.0)

    @given(finite, finite)
    def test_monotone(self, a, b):
        if a <= b:
            assert sigmoid(a) <= sigmoid(b)
        else:
            assert sigmoid(a) >= sigmoid(b)


class TestLogOddsProperties:
    @given(probabilities)
    def test_finite_everywhere(self, p):
        assert math.isfinite(log_odds(p))

    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_sigmoid_inverts(self, p):
        assert abs(sigmoid(log_odds(p)) - p) < 1e-9


class TestClampProperties:
    @given(finite, finite, finite)
    def test_result_always_inside(self, x, a, b):
        low, high = min(a, b), max(a, b)
        assert low <= clamp(x, low, high) <= high

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_probability_clamp_valid(self, p):
        assert 0.0 < clamp_probability(p) < 1.0


class TestSoftmaxProperties:
    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=4), scores, min_size=1, max_size=8
        ),
        st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=200)
    def test_valid_distribution(self, score_map, extras):
        out = softmax_with_floor_mass(score_map, extras)
        assert set(out) == set(score_map)
        total = sum(out.values())
        assert 0.0 < total <= 1.0 + 1e-9
        for p in out.values():
            assert 0.0 <= p <= 1.0

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=4), scores, min_size=2, max_size=8
        )
    )
    @settings(max_examples=200)
    def test_order_preserved(self, score_map):
        out = softmax_with_floor_mass(score_map, 0)
        items = list(score_map.items())
        for (ka, sa) in items:
            for (kb, sb) in items:
                if sa > sb:
                    assert out[ka] >= out[kb]

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=4), scores, min_size=1, max_size=8
        ),
        st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=200)
    def test_more_extras_less_mass(self, score_map, extras):
        less = softmax_with_floor_mass(score_map, extras)
        more = softmax_with_floor_mass(score_map, extras + 5)
        assert sum(more.values()) <= sum(less.values()) + 1e-12


def pytest_approx(x):
    import pytest

    return pytest.approx(x, abs=1e-9)
