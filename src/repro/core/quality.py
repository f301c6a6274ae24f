"""Quality parameters of extractors and sources, and the Q_e derivation.

An extractor is characterised by its precision ``P_e``, recall ``R_e`` and
``Q_e`` (one minus specificity: the probability of extracting a triple the
source does *not* provide). The paper estimates P and R from data and derives
Q via Eq. 7:

    Q_e = gamma / (1 - gamma) * (1 - P_e) / P_e * R_e

where ``gamma = p(C_wdv = 1)`` is the prior density of provided triples.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.logmath import clamp, safe_log


def derive_q(
    precision: float,
    recall: float,
    gamma: float,
    floor: float = 1e-4,
    ceiling: float = 1.0 - 1e-4,
) -> float:
    """Compute Q_e from precision and recall via Eq. 7, clamped to (0, 1).

    The clamp keeps the log-likelihood-ratio votes finite even for perfect
    or useless extractors.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0, 1)")
    precision = clamp(precision, floor, ceiling)
    recall = clamp(recall, floor, ceiling)
    q = gamma / (1.0 - gamma) * (1.0 - precision) / precision * recall
    return clamp(q, floor, ceiling)


def default_precision(recall: float, q: float, gamma: float) -> float:
    """Invert Eq. 7: the precision implied by default (R_e, Q_e, gamma)."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0, 1)")
    ratio = q * (1.0 - gamma) / (gamma * recall)
    return 1.0 / (1.0 + ratio)


@dataclass(frozen=True, slots=True)
class ExtractorQuality:
    """Precision / recall / Q of one extractor, with its vote weights.

    ``presence_vote`` and ``absence_vote`` are the log-likelihood ratios of
    Eqs. 12-13: the evidence contributed by this extractor extracting, or
    not extracting, a triple.
    """

    precision: float
    recall: float
    q: float

    def __post_init__(self) -> None:
        for name in ("precision", "recall", "q"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {value}")

    @property
    def presence_vote(self) -> float:
        """Pre_e = log R_e - log Q_e (Eq. 12)."""
        return safe_log(self.recall) - safe_log(self.q)

    @property
    def absence_vote(self) -> float:
        """Abs_e = log(1 - R_e) - log(1 - Q_e) (Eq. 13)."""
        return safe_log(1.0 - self.recall) - safe_log(1.0 - self.q)

    @classmethod
    def from_precision_recall(
        cls,
        precision: float,
        recall: float,
        gamma: float,
        floor: float = 1e-4,
        ceiling: float = 1.0 - 1e-4,
    ) -> "ExtractorQuality":
        """Build quality from (P, R), deriving Q via Eq. 7."""
        precision = clamp(precision, floor, ceiling)
        recall = clamp(recall, floor, ceiling)
        q = derive_q(precision, recall, gamma, floor=floor, ceiling=ceiling)
        return cls(precision=precision, recall=recall, q=q)
