"""The parity reference: the list-backed store the serving tier replaced.

A verbatim copy of the in-memory ``TrustStore`` query code, with the
list-form ``ServingColumns`` aggregation it was built from, as they
stood before both stores answered through one set of lookups over
encoded columns. Only the names changed (``Reference*``). It shares no
lookup, encoding or index code with :mod:`repro.serving.store` or
:mod:`repro.io.mmap_layout`, so a route rendered from it and from a
``TrustStore`` / ``MmapTrustStore`` over the same artifact agreeing to
the byte is evidence, not a tautology. Its aggregation is the dict
loop the library replaced with one over columns
(:func:`repro.core.kbt.aggregate_scores`). The signal views run through
the library's :class:`~repro.serving.store.SignalSurface`, built here
eagerly from the artifact's payloads, as the deleted store did; the
stores under test rebuild it from their encoded signal columns.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path

from repro.core.kbt import KBTScore, score_sort_key
from repro.core.results import keyed, source_support
from repro.core.types import SourceKey
from repro.io.artifact import TrustArtifact, load_serving_inputs
from repro.serving.store import SignalSurface
from repro.signals.base import SignalScores


@dataclass(frozen=True)
class ReferenceColumns:
    """Everything a store serves, as aligned per-row lists.

    Site rows are in aggregation (first-seen) order; ``ranked_idx`` is
    the best-first permutation of them; ``contrib_ptr`` is the CSR row
    pointer of the ``/breakdown`` contributors over the site rows.
    """

    min_triples: float
    site_key: list[str]
    site_score: list[float]
    site_support: list[float]
    site_percentile: list[float]
    ranked_idx: list[int]
    page_site: list[str]
    page_url: list[str]
    page_score: list[float]
    page_support: list[float]
    contrib_ptr: list[int]
    contrib_source: list[SourceKey]
    contrib_accuracy: list[float]
    contrib_support: list[float]
    signals: dict[str, SignalScores]
    fusion_weights: dict[str, float]


def website_of(source: SourceKey) -> str:
    """The website a model source aggregates into."""
    return source.website


def webpage_of(source: SourceKey) -> tuple[str, str] | None:
    """The (website, webpage) of a source that carries one, else None."""
    if source.level >= 3:
        return (source.features[0], source.features[2])
    return None


def aggregate_scores(
    source_accuracy: dict[SourceKey, float],
    source_support: dict[SourceKey, float],
    min_triples: float,
    group_of,
) -> dict[object, KBTScore]:
    """Support-weighted average of source accuracies per group.

    Sources ``group_of`` maps to None, or with no support, contribute
    nothing, and a group is reported only when its support reaches
    ``min_triples`` (Section 5.4). Groups keep first-seen order.
    """
    numer: dict[object, float] = {}
    denom: dict[object, float] = {}
    for source, accuracy in source_accuracy.items():
        group = group_of(source)
        if group is None:
            continue
        support = source_support.get(source, 0.0)
        if support <= 0.0:
            continue
        numer[group] = numer.get(group, 0.0) + support * accuracy
        denom[group] = denom.get(group, 0.0) + support
    scores = {}
    for group, weight in denom.items():
        if weight < min_triples:
            continue
        scores[group] = KBTScore(group, numer[group] / weight, weight)
    return scores


def reference_columns(
    source_accuracy: dict[SourceKey, float],
    source_support: dict[SourceKey, float],
    min_triples: float,
    signals: dict[str, SignalScores],
    fusion_weights: dict[str, float],
) -> ReferenceColumns:
    """Aggregate fitted source accuracies into the serving columns.

    Per-website and per-webpage scores (the support-weighted averages of
    :func:`aggregate_scores`, which ``KBTReport``'s must equal to the
    bit), the ranking (descending score, ties on
    the key), score percentiles, and for every website the model sources
    behind its score, largest support first. Signals pass through.
    """
    sites = aggregate_scores(
        source_accuracy, source_support, min_triples, website_of
    )
    pages = aggregate_scores(
        source_accuracy, source_support, min_triples, webpage_of
    )
    site_key = list(sites)
    site_row = {site: row for row, site in enumerate(site_key)}
    site_score = [score.score for score in sites.values()]
    ascending = sorted(site_score)
    ranked = sorted(sites.values(), key=score_sort_key)

    contributors: dict[str, list[tuple]] = {}
    for source, accuracy in source_accuracy.items():
        support = source_support.get(source, 0.0)
        if support > 0.0:
            contributors.setdefault(source.website, []).append(
                (source, accuracy, support)
            )
    contrib_ptr = [0]
    contrib: list[tuple] = []
    for site in site_key:
        contrib.extend(
            sorted(contributors.get(site, ()), key=lambda entry: -entry[2])
        )
        contrib_ptr.append(len(contrib))

    return ReferenceColumns(
        min_triples=min_triples,
        site_key=site_key,
        site_score=site_score,
        site_support=[score.support for score in sites.values()],
        site_percentile=[
            100.0 * bisect_right(ascending, score) / len(ascending)
            for score in site_score
        ],
        ranked_idx=[site_row[score.key] for score in ranked],
        page_site=[site for site, _ in pages],
        page_url=[url for _, url in pages],
        page_score=[score.score for score in pages.values()],
        page_support=[score.support for score in pages.values()],
        contrib_ptr=contrib_ptr,
        contrib_source=[source for source, _, _ in contrib],
        contrib_accuracy=[accuracy for _, accuracy, _ in contrib],
        contrib_support=[support for _, _, support in contrib],
        signals=signals,
        fusion_weights=fusion_weights,
    )


def _score_json(score: KBTScore) -> dict:
    """The JSON-endpoint form of one score."""
    key = score.key
    if isinstance(key, tuple):
        key = list(key)
    return {"key": key, "score": score.score, "support": score.support}


class ReferenceViews:
    """The views every store kind serves, over the store's own lookups.

    A store supplies ``score``, ``score_page``, ``top``, ``percentile``,
    ``breakdown``, ``contributor_rows``, ``__len__``, ``num_pages``,
    ``min_triples``, ``signal_names`` and ``_signal_surface``; what the
    routes and ``kbt query`` render from those is defined here and
    nowhere else, so two stores over the same artifact cannot answer a
    route with different bytes.

    It also owns the store's body memo: scored site -> the exact bytes of
    ``json.dumps(score_json(site), ensure_ascii=False)``, filled on first
    use. The columns behind a store never change (one store is one
    ETag), so an entry never goes stale. Only scored sites enter, so the
    memo never holds more than ``len(store)`` entries, and ``close()``
    drops it with the store.
    """

    #: Does every KBT lookup (``score``, ``score_page``, ``top``,
    #: ``percentile``, ``breakdown``, ``contributor_rows``) read only
    #: this process's memory — a resident index, then in-memory or
    #: mmapped columns? A store that says so may be queried on the
    #: gateway's event loop (:func:`repro.serving.routes.plan_route`);
    #: one whose lookups can block (a remote or disk-seeking backend)
    #: must leave it false and is only ever called on the worker pool.
    resident_lookups = False

    def __init__(self) -> None:
        self._bodies: dict[str, bytes] = {}

    def close(self) -> None:
        """Release the store: drop the body memo (the mmap-backed store
        also unmaps its columns). A
        :class:`~repro.serving.manager.StoreManager` calls this once the
        last lease on a retired store is released."""
        self._bodies = {}

    def batch(self, keys: Iterable[str]) -> dict[str, KBTScore | None]:
        """Look up many websites at once (None for unscored keys)."""
        return {key: self.score(key) for key in keys}

    # ------------------------------------------------------------------
    # Trust signals (format-2 artifacts; empty set for v1)
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # Encoded bodies (the gateway's ``/score`` and ``/batch`` 200s)
    # ------------------------------------------------------------------
    def score_body(self, website: str) -> bytes | None:
        """``score_json(website)`` as UTF-8 JSON bytes, or None when
        unscored; rendered once per store, then read from the memo."""
        body = self._bodies.get(website)
        if body is None:
            payload = self.score_json(website)
            if payload is None:
                return None
            body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
            # Racing threads may both render; they store equal bytes.
            self._bodies[website] = body
        return body

    def batch_body(self, keys: Iterable[str]) -> bytes:
        """``batch_json(keys)`` as the bytes ``json.dumps`` would give,
        joined from the memoised per-site bodies."""
        keys = dict.fromkeys(keys)
        try:
            items = [
                encode_basestring(key).encode("utf-8")
                + b": "
                + (self.score_body(key) or b"null")
                for key in keys
            ]
        except UnicodeEncodeError:
            # A lone surrogate (a "\ud800" escape in a posted body) is
            # not UTF-8: fail with the error encoding the whole
            # document raises, position included.
            json.dumps(self.batch_json(keys), ensure_ascii=False).encode(
                "utf-8"
            )
            raise
        return b"{" + b", ".join(items) + b"}"

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


class ReferenceStore(ReferenceViews):
    """One fitted KBT artifact, aggregated in memory."""

    resident_lookups = True

    def __init__(self, artifact: TrustArtifact | ReferenceColumns) -> None:
        super().__init__()
        if isinstance(artifact, ReferenceColumns):
            columns = artifact
        else:
            columns = reference_columns(
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
    def open(cls, path: str | Path) -> "ReferenceStore":
        """Build the store from an artifact on disk, decoding only the
        sections serving reads (never the observation matrix)."""
        scored, min_triples, signals, weights = load_serving_inputs(path)
        sources = scored.sources
        return cls(
            reference_columns(
                keyed(sources, scored.acc_source, scored.acc_value.tolist()),
                source_support(sources, scored.coord_source, scored.coord_p),
                min_triples,
                signals,
                weights,
            )
        )

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
