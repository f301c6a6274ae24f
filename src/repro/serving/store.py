"""``TrustStore``: the one serving store, over columns in memory or mapped.

Every lookup the route table (:mod:`repro.serving.routes`) and ``kbt
query`` answer is written once, here, over the serving columns as
:func:`repro.io.mmap_layout.serving_columns` encodes them: float64 /
int64 columns and UTF-8 string columns. Those columns have two
residencies, and the store reads both through the same
``array`` / ``strings`` calls, using only what numpy arrays and typed
memoryviews both have: int index, slice, ``len``, ``tolist()`` and
``tobytes()``:

* **in memory** (:class:`~repro.io.mmap_layout.ServingColumns`) —
  ``TrustStore.open(path)`` (which decodes only the sections serving
  reads, never the observation matrix) and
  ``TrustStore(serving_columns(...))`` build them in this process and
  write no file, so ``kbt query`` / ``signals`` / ``compare`` work on
  an artifact in a read-only directory;
* **mapped** (:class:`~repro.io.mmap_layout.ServingLayout`) — the
  columns of an exported layout directory as read-only typed
  memoryviews over their mmaps, which
  :class:`~repro.serving.mmap_store.MmapTrustStore` (the store ``kbt
  serve`` runs) opens; given an artifact, it maps the layout a save
  wrote beside it, and refuses one that has none.

Float64 values survive the ``.npy`` round trip bit for bit and
``json.dumps`` renders floats by ``repr``, so both residencies answer
every route with the same bytes.

The store serves per-website and per-webpage scores, the top-k ranking,
score percentiles, and a provenance ``breakdown`` that explains which
model sources contribute to a website's score with what accuracy and
extraction support. Artifacts fitted with trust signals (format version
2, :mod:`repro.signals`) additionally serve the multi-signal surface:
the signal listing with fusion weights, per-website fused scores, a
per-signal breakdown (score / support / rank / percentile per signal),
and the two-signal ``compare`` view (the Figure 10 quadrants). A
version-1 artifact reports an empty signal set and keeps every KBT-only
query working.

What stays resident is one ``key -> row`` index per key kind, built in
a single pass at construction, and the per-site body memo
(:meth:`TrustStore.score_body`): a scored site's ``/score`` JSON,
rendered on first use and kept until ``close()``. The signal surface is
rebuilt from the signal columns on the first signal query, so KBT-only
traffic never pays for it.

Nothing of the fit layer, and not numpy, is imported with this module:
the signal frame and fusion (and numpy) load with the first signal
surface, and the artifact decoder and the column aggregation with the
cold paths that build columns from an artifact
(``TrustStore.open(path)``). A gateway that maps a layout and answers
no signal route never loads them.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Iterable, Iterator
from json.encoder import encode_basestring
from pathlib import Path

from repro import obs
from repro.core.types import KBTScore
from repro.io.mmap_layout import (
    LayoutError,
    ServingColumns,
    serving_columns,
    signal_scores,
)
from repro.signals.base import SignalScores
from repro.util.heap import paused_gc


def _score_json(score: KBTScore) -> dict:
    """The JSON-endpoint form of one score."""
    key = score.key
    if isinstance(key, tuple):
        key = list(key)
    return {"key": key, "score": score.score, "support": score.support}


class SignalSurface:
    """The multi-signal serving views.

    Built from the artifact's named signal payloads and fusion weights,
    it owns the :class:`SignalFrame`, the fused scores, and the JSON
    views behind ``/signals`` and ``/compare``. A :class:`TrustStore`
    rebuilds the payload dicts from its signal columns on the first
    signal query and answers every signal route from here.
    """

    def __init__(
        self,
        signals: dict[str, SignalScores],
        fusion_weights: dict[str, float],
    ) -> None:
        from repro.signals.frame import SignalFrame
        from repro.signals.fusion import fuse

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


class TrustStore:
    """One fitted KBT artifact's serving columns, and every lookup on them.

    Built from :class:`~repro.io.mmap_layout.ServingColumns`: held in
    memory, or a mapped :class:`~repro.io.mmap_layout.ServingLayout`.
    """

    #: Every lookup reads a resident ``key -> row`` index, then in-memory
    #: or mapped columns (at worst a page fault on a ~9 bytes/record
    #: layout), so the gateway may answer it on its event loop
    #: (:func:`repro.serving.routes.plan_route`). A store whose lookups
    #: can block would say False and only ever be called on the pool.
    resident_lookups = True

    @paused_gc()
    def __init__(self, columns: ServingColumns) -> None:
        with obs.span("serving.store.open"):
            self._open(columns)

    def _open(self, columns: ServingColumns) -> None:
        self._layout = columns
        manifest = columns.manifest
        self._etag: str | None = columns.etag
        self._min_triples: float = manifest["min_triples"]
        self._signal_entries: list[dict] = manifest["signals"]
        self._fusion_weights: dict[str, float] = manifest["fusion_weights"]

        # The numeric columns (mapped: read-only memoryviews of the
        # files).
        self._score = columns.array("site_score")
        self._support = columns.array("site_support")
        self._percentile = columns.array("site_percentile")
        self._ranked = columns.array("ranked_idx")
        self._page_score = columns.array("page_score")
        self._page_support = columns.array("page_support")
        self._contrib_ptr = columns.array("contrib_ptr")
        self._contrib_accuracy = columns.array("contrib_accuracy")
        self._contrib_support = columns.array("contrib_support")
        self._contrib_meta = columns.strings("contrib_meta")

        # The one resident structure: key -> row indexes (one pass).
        self._site_keys = columns.strings("site_key").decode_all()
        self._site_index = {
            site: index for index, site in enumerate(self._site_keys)
        }
        page_sites = columns.strings("page_site").decode_all()
        page_urls = columns.strings("page_url").decode_all()
        self._page_index = {
            (site, url): index
            for index, (site, url) in enumerate(zip(page_sites, page_urls))
        }
        if len(self._site_keys) != len(self._score) or len(
            self._page_index
        ) != len(self._page_score):
            raise LayoutError(
                f"serving layout {columns.directory} is inconsistent "
                "(key and score columns disagree); re-export it from "
                "the artifact"
            )

        # The signal surface is rebuilt on the first signal query, from
        # columns mapped now: a swept layout directory then leaves this
        # store whole, as it does the columns above.
        self._signal_site = columns.strings("signal_site")
        self._signal_columns = {
            f"sig{index}_{part}": columns.array(f"sig{index}_{part}")
            for index in range(len(self._signal_entries))
            for part in ("site", "score", "sup_site", "sup_val")
        }
        self._surface: SignalSurface | None = None
        self._surface_lock = threading.Lock()
        # Scored site -> the exact bytes of json.dumps(score_json(site),
        # ensure_ascii=False). The columns never change (one store is
        # one artifact), so an entry never goes stale; only scored sites
        # enter, so it never holds more than len(store) entries.
        self._bodies: dict[str, bytes] = {}

    @classmethod
    def open(cls, path: str | Path) -> "TrustStore":
        """Build the store in memory from an artifact on disk, decoding
        only the sections serving reads (never the observation matrix)
        and writing nothing."""
        from repro.io.artifact import load_serving_inputs

        return cls(serving_columns(*load_serving_inputs(path)))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def etag(self) -> str | None:
        """The source artifact's sha256, the serving cache validator;
        ``None`` for columns built in memory."""
        return self._etag

    @property
    def min_triples(self) -> float:
        return self._min_triples

    def __len__(self) -> int:
        return len(self._site_keys)

    def __contains__(self, website: str) -> bool:
        return website in self._site_index

    def websites(self) -> Iterator[str]:
        """Websites that cleared the reporting threshold."""
        return iter(self._site_keys)

    @property
    def num_pages(self) -> int:
        return len(self._page_index)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def score(self, website: str) -> KBTScore | None:
        """The website's KBT score, or None when unscored."""
        index = self._site_index.get(website)
        if index is None:
            return None
        return KBTScore(
            website, float(self._score[index]), float(self._support[index])
        )

    def score_page(self, website: str, page: str) -> KBTScore | None:
        """The (website, webpage) KBT score, or None when unscored."""
        index = self._page_index.get((website, page))
        if index is None:
            return None
        return KBTScore(
            (website, page),
            float(self._page_score[index]),
            float(self._page_support[index]),
        )

    def batch(self, keys: Iterable[str]) -> dict[str, KBTScore | None]:
        """Look up many websites at once (None for unscored keys)."""
        return {key: self.score(key) for key in keys}

    def top(self, k: int = 10) -> list[KBTScore]:
        """The ``k`` most trustworthy websites, best first (descending
        score, ties broken by key)."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        return [
            KBTScore(
                self._site_keys[index],
                float(self._score[index]),
                float(self._support[index]),
            )
            for index in self._ranked[:k].tolist()
        ]

    def percentile(self, website: str) -> float | None:
        """Share of scored websites at or below this site's score (0-100)."""
        index = self._site_index.get(website)
        if index is None:
            return None
        return float(self._percentile[index])

    def breakdown(self, website: str) -> dict | None:
        """Why a website scores what it scores, or None when unscored.

        Returns the aggregate score/support/percentile plus every model
        source contributing to the support-weighted average: its key,
        granularity level, accuracy, and extraction support.
        """
        index = self._site_index.get(website)
        if index is None:
            return None
        lo = int(self._contrib_ptr[index])
        hi = int(self._contrib_ptr[index + 1])
        contributors = []
        for row in range(lo, hi):
            source, features, level = json.loads(self._contrib_meta[row])
            contributors.append(
                {
                    "source": source,
                    "features": features,
                    "level": level,
                    "accuracy": float(self._contrib_accuracy[row]),
                    "support": float(self._contrib_support[row]),
                }
            )
        return {
            "key": website,
            "score": float(self._score[index]),
            "support": float(self._support[index]),
            "percentile": float(self._percentile[index]),
            "num_sources": len(contributors),
            "sources": contributors,
        }

    def contributor_rows(self, website: str) -> int:
        """How many contributor rows ``breakdown(website)`` reads; O(1)."""
        index = self._site_index.get(website)
        if index is None:
            return 0
        ptr = self._contrib_ptr
        return int(ptr[index + 1]) - int(ptr[index])

    # ------------------------------------------------------------------
    # Trust signals (format-2 artifacts; empty set for v1)
    # ------------------------------------------------------------------
    def signal_names(self) -> list[str]:
        """Names of the signals embedded in the artifact (may be empty)."""
        return [entry["name"] for entry in self._signal_entries]

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

    def _signal_surface(self) -> SignalSurface:
        surface = self._surface
        if surface is None:
            with self._surface_lock:
                surface = self._surface
                if surface is None:
                    columns = self._signal_columns
                    signals = signal_scores(
                        self._signal_entries,
                        self._signal_site.decode_all(),
                        lambda _label, **names: {n: columns[n] for n in names},
                    )
                    surface = SignalSurface(signals, self._fusion_weights)
                    self._surface = surface
        return surface

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

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the body memo, the signal surface and the columns (a
        mapped column unmaps with its last view).

        Only call once no request holds the store — a
        :class:`~repro.serving.manager.StoreManager` enforces this by
        refcounting leases and closing on the last release.
        """
        self._bodies = {}
        self._surface = None
        self._score = self._support = self._percentile = None
        self._ranked = self._page_score = self._page_support = None
        self._contrib_ptr = self._contrib_accuracy = None
        self._contrib_support = self._contrib_meta = None
        self._signal_site, self._signal_columns = None, {}


__all__ = ["SignalSurface", "TrustStore"]
