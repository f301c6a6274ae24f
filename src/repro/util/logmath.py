"""Numerically safe log-domain primitives used by the vote-count algebra.

The KBT model works almost entirely in log-odds space: presence/absence votes
are log-likelihood ratios (Eqs. 12-13 of the paper), posteriors are sigmoids
of vote counts (Eq. 15), and value distributions are softmaxes of value vote
counts (Eq. 21). Everything here guards against the degenerate parameter
values (0 or 1 probabilities) that would otherwise produce infinities.
"""

from __future__ import annotations

import math

#: Probabilities are clamped into [PROB_FLOOR, 1 - PROB_FLOOR] before logs.
PROB_FLOOR = 1e-9

#: Sigmoid saturates beyond this magnitude; avoids exp overflow.
_SIGMOID_CUTOFF = 500.0


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into the closed interval [low, high]."""
    if low > high:
        raise ValueError(f"empty clamp interval [{low}, {high}]")
    if value < low:
        return low
    if value > high:
        return high
    return value


def clamp_probability(p: float, floor: float = PROB_FLOOR) -> float:
    """Clamp a probability away from the degenerate endpoints 0 and 1."""
    return clamp(p, floor, 1.0 - floor)


def safe_log(x: float, floor: float = PROB_FLOOR) -> float:
    """Logarithm with a floor, so log(0) maps to log(floor) instead of -inf."""
    if x < floor:
        x = floor
    return math.log(x)


def log_odds(p: float, floor: float = PROB_FLOOR) -> float:
    """Return log(p / (1 - p)) with both endpoints clamped."""
    p = clamp_probability(p, floor)
    return math.log(p) - math.log(1.0 - p)


def sigmoid(x: float) -> float:
    """Logistic function sigma(x) = 1 / (1 + exp(-x)), overflow-safe."""
    if x >= _SIGMOID_CUTOFF:
        return 1.0
    if x <= -_SIGMOID_CUTOFF:
        return 0.0
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    ex = math.exp(x)
    return ex / (1.0 + ex)


def softmax_with_floor_mass(
    scores: dict, num_extra_zeros: int = 0
) -> dict:
    """Softmax over observed scores plus ``num_extra_zeros`` implicit zeros.

    This implements the domain-aware normalisation of Eq. 21 / Example 3.2:
    a data item has ``n + 1`` values in its domain but only a few are ever
    observed; each unobserved value contributes ``exp(0) = 1`` to the
    partition function. Returns the posterior over the *observed* scores
    only; the remaining mass belongs (uniformly) to the unobserved values.

    Args:
        scores: mapping value -> vote count (log-space score).
        num_extra_zeros: number of in-domain values with no observations.

    Returns:
        Mapping value -> posterior probability. Sums to <= 1; the deficit is
        the unobserved-value mass.
    """
    if num_extra_zeros < 0:
        raise ValueError("num_extra_zeros must be >= 0")
    if not scores:
        return {}
    m = max(scores.values())
    if m < 0.0:
        # exp(0) terms from unobserved values dominate; keep them exact.
        m = 0.0
    exp_scores = {v: math.exp(s - m) for v, s in scores.items()}
    z = sum(exp_scores.values()) + num_extra_zeros * math.exp(-m)
    return {v: e / z for v, e in exp_scores.items()}
