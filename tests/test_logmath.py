"""Unit tests for the log-domain primitives."""

import math

import pytest

from repro.util.logmath import (
    clamp,
    clamp_probability,
    log_odds,
    safe_log,
    sigmoid,
    softmax_with_floor_mass,
)


class TestClamp:
    def test_inside_interval_unchanged(self):
        assert clamp(0.5, 0.0, 1.0) == 0.5

    def test_below_clamps_to_low(self):
        assert clamp(-3.0, 0.0, 1.0) == 0.0

    def test_above_clamps_to_high(self):
        assert clamp(7.0, 0.0, 1.0) == 1.0

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            clamp(0.5, 1.0, 0.0)

    def test_probability_clamp_keeps_off_endpoints(self):
        assert 0.0 < clamp_probability(0.0) < 1e-6
        assert 1.0 - 1e-6 < clamp_probability(1.0) < 1.0


class TestSafeLog:
    def test_matches_log_for_normal_values(self):
        assert safe_log(0.5) == pytest.approx(math.log(0.5))

    def test_zero_maps_to_floor_log(self):
        assert safe_log(0.0) == pytest.approx(math.log(1e-9))

    def test_negative_maps_to_floor_log(self):
        assert safe_log(-5.0) == pytest.approx(math.log(1e-9))


class TestLogOdds:
    def test_half_is_zero(self):
        assert log_odds(0.5) == pytest.approx(0.0)

    def test_antisymmetry(self):
        assert log_odds(0.8) == pytest.approx(-log_odds(0.2))

    def test_endpoints_finite(self):
        assert math.isfinite(log_odds(0.0))
        assert math.isfinite(log_odds(1.0))

    def test_monotonic(self):
        assert log_odds(0.4) < log_odds(0.6) < log_odds(0.9)


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(0.0) == pytest.approx(0.5)

    def test_symmetry(self):
        assert sigmoid(2.5) == pytest.approx(1.0 - sigmoid(-2.5))

    def test_saturates_without_overflow(self):
        assert sigmoid(1e6) == 1.0
        assert sigmoid(-1e6) == 0.0

    def test_inverts_log_odds(self):
        for p in (0.1, 0.25, 0.5, 0.9):
            assert sigmoid(log_odds(p)) == pytest.approx(p, abs=1e-9)


class TestSoftmaxWithFloorMass:
    def test_no_extras_is_plain_softmax(self):
        out = softmax_with_floor_mass({"a": 1.0, "b": 0.0}, 0)
        assert sum(out.values()) == pytest.approx(1.0)
        assert out["a"] > out["b"]

    def test_extra_zeros_absorb_mass(self):
        with_extras = softmax_with_floor_mass({"a": 1.0}, 9)
        without = softmax_with_floor_mass({"a": 1.0}, 0)
        assert with_extras["a"] < without["a"]
        assert without["a"] == pytest.approx(1.0)

    def test_example_3_2_partition(self):
        # Vote counts 10.8 (USA) and 5.4 (Kenya), 9 unobserved values.
        out = softmax_with_floor_mass({"USA": 10.83, "Kenya": 5.42}, 9)
        assert out["USA"] == pytest.approx(0.995, abs=1e-3)
        assert out["Kenya"] == pytest.approx(0.004, abs=1e-3)

    def test_all_negative_scores_stable(self):
        out = softmax_with_floor_mass({"a": -800.0, "b": -900.0}, 5)
        assert out["a"] >= out["b"]
        assert sum(out.values()) < 1.0

    def test_empty_scores(self):
        assert softmax_with_floor_mass({}, 10) == {}

    def test_negative_extras_rejected(self):
        with pytest.raises(ValueError):
            softmax_with_floor_mass({"a": 0.0}, -1)
