"""``MmapTrustStore``: the zero-copy serving view over a layout directory.

Lookups only ever touch the aggregated score columns, so this store,
the one ``kbt serve`` runs, keeps nothing else: it opens a *serving
layout* (:mod:`repro.io.mmap_layout`) — the score / support / percentile
/ rank columns are read-only ``np.memmap`` views the kernel pages in on
access, string keys decode lazily from mmapped blob columns, and the
posterior mass never enters the process at all. What stays resident is
one ``key -> row`` index dict (built in a single pass at open) — the
price of O(1) lookups over string keys — and the shared body memo of
:class:`~repro.serving.store.StoreViews`, at most one ``/score`` body
per scored site.

Every JSON view is **byte-identical** to ``TrustStore``'s over the same
artifact: both are built from one aggregation
(:func:`repro.io.mmap_layout.serving_columns`), float64 values survive
the ``.npy`` round trip bit-for-bit (and ``json.dumps`` renders floats
by ``repr``), both stores inherit the views from
:class:`~repro.serving.store.StoreViews`, and the signal routes run
through the same :class:`~repro.serving.store.SignalSurface` code —
reconstructed lazily from the layout's signal columns on the first
signal query, so KBT-only traffic never pays for it.

Opening an *artifact path* transparently maintains a layout cache next
to it, **keyed by the artifact's sha256** (the serving ETag):
``<artifact>.layout-<etag prefix>/``. A refit — even in place, same
path, new bytes — therefore exports into a *fresh* directory and never
touches the columns a live store has mmapped (rewriting them would
tear or SIGBUS concurrent readers; see :mod:`repro.io.mmap_layout`).
Repeated opens of unchanged bytes reuse the cached columns — and so
does the first open of a generation the ingest pipeline published,
which exports to that name from its in-memory model right after saving
(:attr:`MmapTrustStore.layout_state` says which happened). Stale cache
generations are garbage-collected best-effort after a successful
export — safe on POSIX, where unlinked files survive until the last
mapping drops.

``close()`` drops the mmap references (the OS unmaps once the last
array view dies). A :class:`~repro.serving.manager.StoreManager` only
closes a store after the last in-flight request releases it, so
requests never observe a half-closed store.
"""

from __future__ import annotations

import json
import shutil
import threading
from collections.abc import Iterator
from pathlib import Path

from repro.core.kbt import KBTScore
from repro.io.mmap_layout import (
    LayoutError,
    ServingLayout,
    artifact_etag,
    cached_layout_dirs,
    export_layout,
    layout_cache_dir,
)
from repro.serving.store import SignalSurface, StoreViews


class MmapTrustStore(StoreViews):
    """Zero-copy serving view over one exported artifact layout."""

    #: ``"reused"`` when the columns were already on disk at open,
    #: ``"exported"`` when this open had to build them from the artifact.
    layout_state = "reused"

    #: The key -> row index is resident and the columns are mapped, so a
    #: lookup's worst case is a page fault on a ~9 bytes/record layout.
    resident_lookups = True

    def __init__(self, layout: ServingLayout) -> None:
        super().__init__()
        self._layout = layout
        manifest = layout.manifest
        self._etag: str = manifest["etag"]
        self._min_triples: float = manifest["min_triples"]
        self._signal_entries: list[dict] = manifest["signals"]
        self._fusion_weights: dict[str, float] = manifest["fusion_weights"]

        # Mmapped numeric columns (the zero-copy heart of the store).
        self._score = layout.array("site_score")
        self._support = layout.array("site_support")
        self._percentile = layout.array("site_percentile")
        self._ranked = layout.array("ranked_idx")
        self._page_score = layout.array("page_score")
        self._page_support = layout.array("page_support")
        self._contrib_ptr = layout.array("contrib_ptr")
        self._contrib_accuracy = layout.array("contrib_accuracy")
        self._contrib_support = layout.array("contrib_support")
        self._contrib_meta = layout.strings("contrib_meta")

        # The one resident structure: key -> row indexes (one pass).
        self._site_keys = layout.strings("site_key").decode_all()
        self._site_index = {
            site: index for index, site in enumerate(self._site_keys)
        }
        page_sites = layout.strings("page_site").decode_all()
        page_urls = layout.strings("page_url").decode_all()
        self._page_index = {
            (site, url): index
            for index, (site, url) in enumerate(zip(page_sites, page_urls))
        }
        if len(self._site_keys) != len(self._score) or len(
            self._page_index
        ) != len(self._page_score):
            raise LayoutError(
                f"serving layout {layout.directory} is inconsistent "
                "(key and score columns disagree); re-export it from "
                "the artifact"
            )

        # The signal surface reconstructs lazily on first signal query.
        self._surface: SignalSurface | None = None
        self._surface_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Opening
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls, path: str | Path, layout_dir: str | Path | None = None
    ) -> "MmapTrustStore":
        """Open a layout directory, or an artifact via its layout cache.

        For an artifact path, the layout lives at
        ``<artifact>.layout-<etag prefix>/`` (or ``layout_dir``) and is
        exported exactly when no cached directory matches the
        artifact's current bytes. Because the cache key is the ETag, an
        in-place refit lands in a *new* directory — the columns a live
        store of the previous generation has mmapped are never
        rewritten. A pre-existing un-keyed ``<artifact>.layout/`` cache
        is still reused while its ETag matches.
        """
        path = Path(path)
        if path.is_dir():
            return cls(ServingLayout(path))
        etag = artifact_etag(path)
        managed = layout_dir is None
        if managed:
            store = cls._from_cache(Path(str(path) + ".layout"), etag)
            if store is not None:
                return store
            layout_dir = layout_cache_dir(path, etag)
        else:
            layout_dir = Path(layout_dir)
        store = cls._from_cache(layout_dir, etag)
        if store is not None:
            return store
        if managed and layout_dir.exists():
            # The ETag-keyed name is ours and its contents are torn
            # (a matching cache would have been returned above): no
            # live store can have opened it — the constructor maps the
            # core columns up front — so clearing it for a clean
            # export is safe. An *explicit* layout_dir is never
            # deleted; export_layout refuses it with the remedy.
            shutil.rmtree(layout_dir, ignore_errors=True)
        export_layout(path, layout_dir, etag=etag)
        try:
            store = cls(ServingLayout(layout_dir))
            store.layout_state = "exported"
        except BaseException:
            if managed:
                # The directory was exported moments ago exclusively
                # for this open (no matching cache existed above), so
                # no live store can be mapping it. Opening what we just
                # wrote failed, so the export is unusable — leaving it
                # behind would strand a layout every later open keeps
                # matching by ETag and failing on.
                shutil.rmtree(layout_dir, ignore_errors=True)
            raise
        if managed:
            # Any other cache generation is now provably stale: it was
            # checked above (legacy name) or keyed to older bytes.
            cls._gc_stale_layouts(path, keep=layout_dir)
        return store

    @classmethod
    def _from_cache(
        cls, directory: Path, etag: str
    ) -> "MmapTrustStore | None":
        """The store over ``directory`` if it caches exactly ``etag``."""
        try:
            layout = ServingLayout(directory)
            if layout.etag == etag:
                return cls(layout)
        except LayoutError:
            pass
        return None

    @staticmethod
    def _gc_stale_layouts(path: Path, keep: Path) -> None:
        """Drop cache generations for artifact bytes that no longer
        exist, and what exports of them left unfinished. Best-effort:
        on POSIX, unlinking files a live store still has mmapped is
        safe (the inodes outlive the directory entries); where unlink
        fails (e.g. Windows), the stale dir just stays."""
        for stale in cached_layout_dirs(path, keep=keep):
            shutil.rmtree(stale, ignore_errors=True)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def etag(self) -> str:
        """The source artifact's sha256: the serving cache validator."""
        return self._etag

    @property
    def directory(self) -> Path:
        return self._layout.directory

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
    # Queries (the TrustStore surface, answered from mmapped columns)
    # ------------------------------------------------------------------
    def score(self, website: str) -> KBTScore | None:
        index = self._site_index.get(website)
        if index is None:
            return None
        return KBTScore(
            website, float(self._score[index]), float(self._support[index])
        )

    def score_page(self, website: str, page: str) -> KBTScore | None:
        index = self._page_index.get((website, page))
        if index is None:
            return None
        return KBTScore(
            (website, page),
            float(self._page_score[index]),
            float(self._page_support[index]),
        )

    def top(self, k: int = 10) -> list[KBTScore]:
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
        index = self._site_index.get(website)
        if index is None:
            return None
        return float(self._percentile[index])

    def breakdown(self, website: str) -> dict | None:
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
        index = self._site_index.get(website)
        if index is None:
            return 0
        ptr = self._contrib_ptr
        return int(ptr[index + 1]) - int(ptr[index])

    # ------------------------------------------------------------------
    # Trust signals (lazily reconstructed, then the shared surface)
    # ------------------------------------------------------------------
    def signal_names(self) -> list[str]:
        return [entry["name"] for entry in self._signal_entries]

    def _signal_surface(self) -> SignalSurface:
        surface = self._surface
        if surface is None:
            with self._surface_lock:
                surface = self._surface
                if surface is None:
                    surface = self._build_signal_surface()
                    self._surface = surface
        return surface

    def _build_signal_surface(self) -> SignalSurface:
        from repro.signals.base import SignalScores

        table = self._layout.strings("signal_site").decode_all()
        signals: dict[str, SignalScores] = {}
        for index, entry in enumerate(self._signal_entries):
            name = entry["name"]
            site_idx = self._layout.array(f"sig{index}_site").tolist()
            score_val = self._layout.array(f"sig{index}_score").tolist()
            sup_idx = self._layout.array(f"sig{index}_sup_site").tolist()
            sup_val = self._layout.array(f"sig{index}_sup_val").tolist()
            signals[name] = SignalScores(
                name=name,
                scores={
                    table[i]: value for i, value in zip(site_idx, score_val)
                },
                support={
                    table[i]: value for i, value in zip(sup_idx, sup_val)
                },
                metadata=entry.get("metadata", {}),
            )
        return SignalSurface(signals, self._fusion_weights)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the mmap references; the OS unmaps with the last view.

        Only call once no request holds the store — a
        :class:`~repro.serving.manager.StoreManager` enforces this by
        refcounting leases and closing on the last release. The body
        memo goes with them.
        """
        super().close()
        self._score = self._support = self._percentile = None
        self._ranked = self._page_score = self._page_support = None
        self._contrib_ptr = self._contrib_accuracy = None
        self._contrib_support = self._contrib_meta = None
        self._surface = None


__all__ = ["MmapTrustStore"]
