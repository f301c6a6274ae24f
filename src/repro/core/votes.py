"""Value-vote algebra: the V layer's vote counts and their normalisation.

Each source claiming a value contributes ``log(n A_w / (1 - A_w))``
(Eq. 19), optionally weighted by its extraction-correctness posterior
(Eq. 23, Section 3.3.3); a softmax over the item's domain — including
the unobserved values at ``exp(0)`` each — gives ``p(V_d = v)``
(Eq. 21 / 25). The scalar forms live here for the worked examples; the
fits run them as array passes
(:func:`repro.core.engine_numpy.segment_softmax`).
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.types import Value
from repro.util.logmath import log_odds, safe_log, softmax_with_floor_mass


def accuracy_vote(accuracy: float, n: int) -> float:
    """VCV(w) = log(n A_w / (1 - A_w)) (Eq. 19), clamped away from 0/1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return safe_log(float(n)) + log_odds(accuracy)


def value_posteriors(
    value_votes: Mapping[Value, float], domain_size: int
) -> dict[Value, float]:
    """Normalise value vote counts over the item's domain (Eq. 21 / 25).

    ``domain_size`` is ``n + 1``. Unobserved in-domain values contribute
    ``exp(0)`` each to the partition function (Example 3.2); if more values
    were observed than the nominal domain holds, no extra mass is added.

    Returns probabilities for the observed values only; their sum is <= 1
    and the deficit is the (uniform) unobserved-value mass.
    """
    if domain_size < 1:
        raise ValueError("domain_size must be >= 1")
    num_unobserved = max(domain_size - len(value_votes), 0)
    return softmax_with_floor_mass(dict(value_votes), num_unobserved)
