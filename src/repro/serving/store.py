"""The store query surface, and ``TrustStore``: its in-memory form.

:class:`StoreViews` is the part of that surface every store kind shares:
the JSON views the route table (:mod:`repro.serving.routes`) and
``kbt query`` render, written once over a store's own lookups. Two
stores inherit it — :class:`TrustStore` here and the mmap-backed
:class:`~repro.serving.mmap_store.MmapTrustStore` the gateway serves
from.

A :class:`TrustStore` is built once from a
:class:`~repro.io.artifact.TrustArtifact` (or straight from a file via
:meth:`TrustStore.open`, which decodes only the sections serving reads)
and holds the serving columns in memory: per-website and per-webpage
scores, the top-k ranking, score percentiles, and a provenance
``breakdown`` that explains which model sources contribute to a
website's score with what accuracy and extraction support. The
aggregation itself is :func:`repro.io.mmap_layout.serving_columns` —
the function the serving-layout exporters write from — so this store
is the backend of ``kbt query`` / ``signals`` / ``compare`` and the
reference the parity tests hold the mmap store to.

Artifacts fitted with trust signals (format version 2,
:mod:`repro.signals`) additionally serve the multi-signal surface: the
signal listing with fusion weights, per-website fused scores, a
per-signal breakdown (score / support / rank / percentile per signal),
and the two-signal ``compare`` view (the Figure 10 quadrants). A
version-1 artifact reports an empty signal set and keeps every KBT-only
query working.

All aggregation happens at construction; every query after that is a
dict lookup and a column read.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.core.kbt import KBTScore
from repro.io.artifact import TrustArtifact, load_serving_inputs
from repro.io.mmap_layout import ServingColumns, serving_columns
from repro.signals.base import SignalScores
from repro.signals.frame import SignalFrame
from repro.signals.fusion import fuse


def _score_json(score: KBTScore) -> dict:
    """The JSON-endpoint form of one score."""
    key = score.key
    if isinstance(key, tuple):
        key = list(key)
    return {"key": key, "score": score.score, "support": score.support}


class SignalSurface:
    """The multi-signal serving views, shared by every store kind.

    Built from the artifact's named signal payloads and fusion weights,
    it owns the :class:`SignalFrame`, the fused scores, and the JSON
    views behind ``/signals`` and ``/compare``. Both the in-memory
    :class:`TrustStore` (which builds it eagerly) and the zero-copy
    ``MmapTrustStore`` (which reconstructs the payload dicts from the
    mmap layout lazily, on the first signal query) delegate here, so the
    two produce byte-identical signal-route JSON by construction.
    """

    def __init__(
        self,
        signals: dict[str, SignalScores],
        fusion_weights: dict[str, float],
    ) -> None:
        self.frame = SignalFrame(signals.values())
        if self.frame.names:
            self.fusion = fuse(self.frame, weights=fusion_weights or None)
        else:
            self.fusion = fuse(self.frame)
        #: per-signal rank view, materialised once (frame copies per call).
        self._ranks = {
            name: self.frame.ranks(name) for name in self.frame.names
        }

    @property
    def names(self) -> list[str]:
        return self.frame.names

    @property
    def weights(self) -> dict[str, float]:
        return dict(self.fusion.weights)

    def fused_score(self, website: str) -> float | None:
        return self.fusion.scores.get(website)

    def signal_breakdown(self, website: str) -> dict | None:
        if not self.frame.names or website not in self.frame:
            return None
        signals = {}
        for name in self.frame.names:
            scores = self.frame.signal(name)
            score = scores.get(website)
            if score is None:
                signals[name] = None
                continue
            signals[name] = {
                "score": score,
                "support": scores.support.get(website),
                "rank": self._ranks[name].get(website),
                "percentile": self.frame.percentile(name, website),
                "weight": self.fusion.weights.get(name),
            }
        return {
            "key": website,
            "fused": self.fused_score(website),
            "signals": signals,
        }

    def compare(self, a: str, b: str, k: int = 10) -> dict:
        return self.frame.compare(a, b, k=k)

    def signals_json(self) -> dict:
        return {
            "signals": [
                {
                    "name": name,
                    "websites": len(self.frame.signal(name)),
                    "weight": self.fusion.weights.get(name),
                    "metadata": self.frame.signal(name).metadata,
                }
                for name in self.frame.names
            ],
            "fused_websites": len(self.fusion.scores),
        }


class StoreViews:
    """The views every store kind serves, over the store's own lookups.

    A store supplies ``score``, ``score_page``, ``top``, ``percentile``,
    ``breakdown``, ``contributor_rows``, ``__len__``, ``num_pages``,
    ``min_triples``, ``signal_names`` and ``_signal_surface``; what the
    routes and ``kbt query`` render from those is defined here and
    nowhere else, so two stores over the same artifact cannot answer a
    route with different bytes.
    """

    #: Does every KBT lookup (``score``, ``score_page``, ``top``,
    #: ``percentile``, ``breakdown``, ``contributor_rows``) read only
    #: this process's memory — a resident index, then in-memory or
    #: mmapped columns? A store that says so may be queried on the
    #: gateway's event loop (:func:`repro.serving.routes.route_cost`);
    #: one whose lookups can block (a remote or disk-seeking backend)
    #: must leave it false and is only ever called on the worker pool.
    resident_lookups = False

    def batch(self, keys: Iterable[str]) -> dict[str, KBTScore | None]:
        """Look up many websites at once (None for unscored keys)."""
        return {key: self.score(key) for key in keys}

    # ------------------------------------------------------------------
    # Trust signals (format-2 artifacts; empty set for v1)
    # ------------------------------------------------------------------
    @property
    def has_signals(self) -> bool:
        return bool(self.signal_names())

    @property
    def fusion_weights(self) -> dict[str, float]:
        """Per-signal fusion weights (empty without signals)."""
        return self._signal_surface().weights

    def fused_score(self, website: str) -> float | None:
        """The weighted-fusion trust score, or None when unscored."""
        return self._signal_surface().fused_score(website)

    def signal_breakdown(self, website: str) -> dict | None:
        """Every signal's take on one website, or None when no signal
        scores it. Reports score, support, dense rank, and percentile per
        signal (null where a signal does not cover the site), plus the
        fused score and the fusion weights."""
        return self._signal_surface().signal_breakdown(website)

    def compare(self, a: str, b: str, k: int = 10) -> dict:
        """Two-signal disagreement view (see ``SignalFrame.compare``)."""
        return self._signal_surface().compare(a, b, k=k)

    def signals_json(self) -> dict:
        """The signal listing: names, coverage, weights, metadata."""
        return self._signal_surface().signals_json()

    # ------------------------------------------------------------------
    # JSON views (the routes and ``kbt query``)
    # ------------------------------------------------------------------
    def score_json(self, website: str) -> dict | None:
        score = self.score(website)
        return None if score is None else _score_json(score)

    def page_json(self, website: str, page: str) -> dict | None:
        score = self.score_page(website, page)
        return None if score is None else _score_json(score)

    def batch_json(self, keys: Iterable[str]) -> dict:
        return {
            key: (None if score is None else _score_json(score))
            for key, score in self.batch(keys).items()
        }

    def top_json(self, k: int = 10) -> list[dict]:
        return [_score_json(score) for score in self.top(k)]

    def stats_json(self) -> dict:
        return {
            "status": "ok",
            "websites": len(self),
            "pages": self.num_pages,
            "min_triples": self.min_triples,
            "signals": self.signal_names(),
        }


class TrustStore(StoreViews):
    """One fitted KBT artifact, aggregated in memory."""

    resident_lookups = True

    def __init__(self, artifact: TrustArtifact | ServingColumns) -> None:
        if isinstance(artifact, ServingColumns):
            columns = artifact
        else:
            columns = serving_columns(
                artifact.result.source_accuracy,
                artifact.result.expected_triples_by_source(),
                artifact.min_triples,
                artifact.signals,
                artifact.fusion_weights,
            )
        self._columns = columns
        self._site_scores = {
            site: KBTScore(site, score, support)
            for site, score, support in zip(
                columns.site_key, columns.site_score, columns.site_support
            )
        }
        self._site_row = {
            site: row for row, site in enumerate(columns.site_key)
        }
        self._page_scores = {
            (site, url): KBTScore((site, url), score, support)
            for site, url, score, support in zip(
                columns.page_site,
                columns.page_url,
                columns.page_score,
                columns.page_support,
            )
        }
        #: descending score, ties broken by key for a stable ranking.
        ranked = list(self._site_scores.values())
        self._ranked = [ranked[row] for row in columns.ranked_idx]
        #: multi-signal view (empty frame for v1 / signal-less artifacts).
        self._signals = SignalSurface(
            columns.signals, columns.fusion_weights
        )

    @classmethod
    def open(cls, path: str | Path) -> "TrustStore":
        """Build the store from an artifact on disk, decoding only the
        sections serving reads (never the observation matrix)."""
        return cls(serving_columns(*load_serving_inputs(path)))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def min_triples(self) -> float:
        return self._columns.min_triples

    def __len__(self) -> int:
        return len(self._site_scores)

    def __contains__(self, website: str) -> bool:
        return website in self._site_scores

    def websites(self) -> Iterator[str]:
        """Websites that cleared the reporting threshold."""
        return iter(self._site_scores)

    @property
    def num_pages(self) -> int:
        return len(self._page_scores)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def score(self, website: str) -> KBTScore | None:
        """The website's KBT score, or None when unscored."""
        return self._site_scores.get(website)

    def score_page(self, website: str, page: str) -> KBTScore | None:
        """The (website, webpage) KBT score, or None when unscored."""
        return self._page_scores.get((website, page))

    def top(self, k: int = 10) -> list[KBTScore]:
        """The ``k`` most trustworthy websites, best first."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        return self._ranked[:k]

    def percentile(self, website: str) -> float | None:
        """Share of scored websites at or below this site's score (0-100)."""
        row = self._site_row.get(website)
        if row is None:
            return None
        return self._columns.site_percentile[row]

    def breakdown(self, website: str) -> dict | None:
        """Why a website scores what it scores, or None when unscored.

        Returns the aggregate score/support/percentile plus every model
        source contributing to the support-weighted average: its key,
        granularity level, accuracy, and extraction support.
        """
        row = self._site_row.get(website)
        if row is None:
            return None
        columns = self._columns
        lo, hi = columns.contrib_ptr[row], columns.contrib_ptr[row + 1]
        contributors = [
            {
                "source": str(source),
                "features": list(source.features),
                "level": source.level,
                "accuracy": accuracy,
                "support": source_support,
            }
            for source, accuracy, source_support in zip(
                columns.contrib_source[lo:hi],
                columns.contrib_accuracy[lo:hi],
                columns.contrib_support[lo:hi],
            )
        ]
        return {
            "key": website,
            "score": columns.site_score[row],
            "support": columns.site_support[row],
            "percentile": columns.site_percentile[row],
            "num_sources": len(contributors),
            "sources": contributors,
        }

    def contributor_rows(self, website: str) -> int:
        """How many contributor rows ``breakdown(website)`` reads; O(1)."""
        row = self._site_row.get(website)
        if row is None:
            return 0
        ptr = self._columns.contrib_ptr
        return ptr[row + 1] - ptr[row]

    def signal_names(self) -> list[str]:
        """Names of the signals embedded in the artifact (may be empty)."""
        return self._signals.names

    def _signal_surface(self) -> SignalSurface:
        return self._signals

    def close(self) -> None:
        """Release the store (a no-op for the in-memory view).

        Exists so a :class:`~repro.serving.manager.StoreManager` can hold
        either store kind behind one lifecycle; the mmap-backed store
        actually unmaps here.
        """
