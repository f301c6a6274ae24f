"""Staleness and drift policy for the continuous pipeline.

Incremental ``update()`` is cheap because it freezes the extractor
layer and solves a delta sub-problem — but each update inherits the
previous generation's approximations. Left alone, a long chain of
warm updates can drift away from what a cold fit over the same
evidence would say. The :class:`StalenessPolicy` watches that drift
*online* and decides when the pipeline must pay for a cold refit:

* **drift trigger** — after every batch the per-website score delta
  against the *last cold-fit baseline* is computed; when the maximum
  delta exceeds ``drift_refit_threshold`` the model is declared stale;
* **count trigger** — ``refit_after_batches`` warm updates since the
  last cold fit force a refit regardless, bounding staleness even when
  every individual step looks small;
* **drift alerts** — independently of refit, any website whose score
  moves more than ``alert_band`` between *consecutive* generations is
  reported as a structured :class:`DriftAlert`, because a large
  single-batch move is operationally interesting (a source turning
  bad, a poisoned spool file) even when the model is still fresh.

The policy is pure bookkeeping over score dictionaries — it never
touches the estimator — so it is trivially deterministic and testable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class DriftStats:
    """Per-batch drift summary against the last cold-fit baseline."""

    batch_index: int
    max_delta: float
    mean_delta: float
    worst_site: str | None
    new_sites: int

    def to_dict(self) -> dict:
        return {
            "batch_index": self.batch_index,
            "max_delta": self.max_delta,
            "mean_delta": self.mean_delta,
            "worst_site": self.worst_site,
            "new_sites": self.new_sites,
        }


@dataclass(frozen=True)
class DriftAlert:
    """One website moving beyond the alert band between generations."""

    batch_index: int
    site: str
    previous_score: float | None
    score: float
    delta: float

    def to_dict(self) -> dict:
        return {
            "batch_index": self.batch_index,
            "site": self.site,
            "previous_score": self.previous_score,
            "score": self.score,
            "delta": self.delta,
        }


class StalenessPolicy:
    """Decide, batch by batch, when warm updates must give way to a refit."""

    def __init__(
        self,
        refit_after_batches: int | None = None,
        drift_refit_threshold: float | None = None,
        alert_band: float = 0.05,
        alert_ring_size: int = 64,
    ) -> None:
        if refit_after_batches is not None and refit_after_batches < 1:
            raise ValueError(
                "refit_after_batches must be >= 1, got "
                f"{refit_after_batches}"
            )
        if drift_refit_threshold is not None and drift_refit_threshold <= 0:
            raise ValueError(
                "drift_refit_threshold must be > 0, got "
                f"{drift_refit_threshold}"
            )
        if alert_band <= 0:
            raise ValueError(f"alert_band must be > 0, got {alert_band}")
        self.refit_after_batches = refit_after_batches
        self.drift_refit_threshold = drift_refit_threshold
        self.alert_band = alert_band
        self._baseline: dict[str, float] = {}
        self._previous: dict[str, float] = {}
        self._batches_since_refit = 0
        self._batch_index = 0
        self._last_stats: DriftStats | None = None
        self._alerts: deque[DriftAlert] = deque(maxlen=alert_ring_size)

    # ------------------------------------------------------------------
    @staticmethod
    def _scores(score_map: dict) -> dict[str, float]:
        """Flatten a ``website_scores()`` mapping to ``site -> score``."""
        return {
            str(site): float(getattr(score, "score", score))
            for site, score in score_map.items()
        }

    def rebaseline(self, score_map: dict) -> None:
        """Record a fresh cold fit as the new drift baseline."""
        scores = self._scores(score_map)
        self._baseline = scores
        self._previous = dict(scores)
        self._batches_since_refit = 0

    def observe(self, score_map: dict) -> tuple[DriftStats, list[DriftAlert]]:
        """Fold one post-update score snapshot into the policy.

        Returns the batch's drift stats (vs the cold-fit baseline) and
        any fresh alerts (vs the previous generation). Call
        :meth:`refit_due` afterwards to learn whether a cold refit is
        now required.
        """
        scores = self._scores(score_map)
        self._batch_index += 1
        self._batches_since_refit += 1

        deltas = {
            site: abs(score - self._baseline[site])
            for site, score in scores.items()
            if site in self._baseline
        }
        new_sites = sum(
            1 for site in scores if site not in self._baseline
        )
        if deltas:
            worst_site = max(deltas, key=lambda site: (deltas[site], site))
            max_delta = deltas[worst_site]
            mean_delta = sum(deltas.values()) / len(deltas)
        else:
            worst_site, max_delta, mean_delta = None, 0.0, 0.0
        stats = DriftStats(
            batch_index=self._batch_index,
            max_delta=max_delta,
            mean_delta=mean_delta,
            worst_site=worst_site,
            new_sites=new_sites,
        )
        self._last_stats = stats

        alerts = []
        for site in sorted(scores):
            previous = self._previous.get(site)
            if previous is None:
                continue
            delta = scores[site] - previous
            if abs(delta) > self.alert_band:
                alert = DriftAlert(
                    batch_index=self._batch_index,
                    site=site,
                    previous_score=previous,
                    score=scores[site],
                    delta=delta,
                )
                alerts.append(alert)
                self._alerts.append(alert)
        self._previous = scores
        return stats, alerts

    def refit_due(self) -> str | None:
        """Why a cold refit is required now, or ``None`` if it is not."""
        stats = self._last_stats
        if (
            self.drift_refit_threshold is not None
            and stats is not None
            and stats.max_delta > self.drift_refit_threshold
        ):
            return (
                f"drift {stats.max_delta:.4f} > threshold "
                f"{self.drift_refit_threshold:.4f}"
            )
        if (
            self.refit_after_batches is not None
            and self._batches_since_refit >= self.refit_after_batches
        ):
            return (
                f"{self._batches_since_refit} warm updates since last "
                f"cold fit (limit {self.refit_after_batches})"
            )
        return None

    # ------------------------------------------------------------------
    @property
    def batch_index(self) -> int:
        return self._batch_index

    @property
    def refit_countdown(self) -> int | None:
        """Batches left before the count trigger fires (None = disabled)."""
        if self.refit_after_batches is None:
            return None
        return max(
            0, self.refit_after_batches - self._batches_since_refit
        )

    @property
    def alerts(self) -> list[DriftAlert]:
        return list(self._alerts)


__all__ = ["DriftAlert", "DriftStats", "StalenessPolicy"]
