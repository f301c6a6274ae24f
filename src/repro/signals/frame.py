"""The aligned multi-signal view: one row per website, one column per signal.

A :class:`SignalFrame` holds the outputs of several providers aligned on
website keys and derives the comparable views fusion and analysis need:
dense ranks (1 = best) and percentile ranks per signal, plus the
Figure-10-style two-signal comparison (correlation + the two
disagreement quadrants, e.g. "high KBT, low PageRank" tail sites).

Everything is computed lazily and cached; frames are read-only after
construction.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable

from repro.signals.base import SignalError, SignalScores
from repro.web.analysis import pearson_correlation


class SignalFrame:
    """Aligned per-website scores across a set of named signals.

    The tabular view behind Figure 10: one row per website, one column
    per signal, with dense ranks, percentiles and the two-signal
    disagreement quadrants derived on demand. Invariants: signal names
    are unique, the website universe is the union of every signal's keys
    (a signal may be sparse), and frames are read-only after
    construction (all caches are derived, never inputs).
    """

    def __init__(self, signals: Iterable[SignalScores]) -> None:
        self._signals: dict[str, SignalScores] = {}
        for scores in signals:
            if scores.name in self._signals:
                raise SignalError(f"duplicate signal name: {scores.name!r}")
            self._signals[scores.name] = scores
        websites: set[str] = set()
        for scores in self._signals.values():
            websites.update(scores.scores)
        self._websites = sorted(websites)
        self._rank_cache: dict[str, dict[str, int]] = {}
        self._sorted_cache: dict[str, list[float]] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def names(self) -> list[str]:
        """Signal names in registry order."""
        return list(self._signals)

    def websites(self) -> list[str]:
        """The union of scored websites, sorted."""
        return list(self._websites)

    def __len__(self) -> int:
        return len(self._websites)

    def __contains__(self, website: str) -> bool:
        return any(website in s for s in self._signals.values())

    def signal(self, name: str) -> SignalScores:
        try:
            return self._signals[name]
        except KeyError:
            raise SignalError(
                f"unknown signal: {name!r} (have {self.names})"
            ) from None

    def value(self, name: str, website: str) -> float | None:
        """One cell: the site's score under one signal (None if unscored)."""
        return self.signal(name).get(website)

    def row(self, website: str) -> dict[str, float | None]:
        """All signal scores of one website (None where unscored)."""
        return {
            name: scores.get(website)
            for name, scores in self._signals.items()
        }

    # ------------------------------------------------------------------
    # Comparable views
    # ------------------------------------------------------------------
    def ranks(self, name: str) -> dict[str, int]:
        """Dense rank per website under one signal (1 = highest score).

        Ties share a rank; tie order within the returned dict is the
        website name, so the view is deterministic.
        """
        cached = self._rank_cache.get(name)
        if cached is None:
            scores = self.signal(name).scores
            ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
            cached = {}
            rank = 0
            previous: float | None = None
            for site, score in ordered:
                if previous is None or score != previous:
                    rank += 1
                    previous = score
                cached[site] = rank
            self._rank_cache[name] = cached
        return dict(cached)

    def _sorted_scores(self, name: str) -> list[float]:
        cached = self._sorted_cache.get(name)
        if cached is None:
            cached = sorted(self.signal(name).scores.values())
            self._sorted_cache[name] = cached
        return cached

    def percentile(self, name: str, website: str) -> float | None:
        """Share of scored websites at or below this site's score (0-100).

        The same convention as ``TrustStore.percentile``, so the
        ``/percentile`` and ``/signals?site=`` views of the same scores
        agree: the top site reports 100.0, ties share a percentile.
        """
        score = self.signal(name).get(website)
        if score is None:
            return None
        ordered = self._sorted_scores(name)
        return 100.0 * bisect_right(ordered, score) / len(ordered)

    # ------------------------------------------------------------------
    # Two-signal comparison (the Figure 10 quadrants, generalised)
    # ------------------------------------------------------------------
    def compare(self, a: str, b: str, k: int = 10) -> dict:
        """Correlation and disagreement quadrants between two signals.

        Over the websites both signals score: Pearson correlation of the
        raw scores, and the two off-diagonal quadrants ranked by
        percentile gap — ``high_a_low_b`` (e.g. trustworthy tail sites
        for a=kbt, b=pagerank) and ``high_b_low_a`` (e.g. popular gossip
        sites). Each entry carries both raw scores and both percentiles.
        """
        if k < 0:
            raise SignalError(f"k must be >= 0, got {k}")
        scores_a = self.signal(a).scores
        scores_b = self.signal(b).scores
        common = sorted(scores_a.keys() & scores_b.keys())
        correlation = pearson_correlation(
            [(scores_a[site], scores_b[site]) for site in common]
        )

        def entry(site: str) -> dict:
            return {
                "website": site,
                a: scores_a[site],
                b: scores_b[site],
                f"{a}_percentile": self.percentile(a, site),
                f"{b}_percentile": self.percentile(b, site),
            }

        gaps = [
            (self.percentile(a, site) - self.percentile(b, site), site)
            for site in common
        ]
        high_a_low_b = [
            entry(site)
            for gap, site in sorted(gaps, key=lambda g: (-g[0], g[1]))[:k]
            if gap > 0
        ]
        high_b_low_a = [
            entry(site)
            for gap, site in sorted(gaps, key=lambda g: (g[0], g[1]))[:k]
            if gap < 0
        ]
        return {
            "a": a,
            "b": b,
            "websites_compared": len(common),
            "correlation": correlation,
            "high_a_low_b": high_a_low_b,
            "high_b_low_a": high_b_low_a,
        }
