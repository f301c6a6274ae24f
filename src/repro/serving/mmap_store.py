"""``MmapTrustStore``: the :class:`~repro.serving.store.TrustStore` over
a layout directory mapped from disk — the store ``kbt serve`` runs.

Every lookup is :class:`~repro.serving.store.TrustStore`'s; this class
only decides which columns it reads. It opens a *serving layout*
(:mod:`repro.io.mmap_layout`): the score / support / percentile / rank
columns are read-only ``np.memmap`` views the kernel pages in on
access, string keys decode lazily from mmapped blob columns, and the
posterior mass never enters the process at all. What stays resident is
what any ``TrustStore`` keeps: the ``key -> row`` indexes and the body
memo.

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

import shutil
from pathlib import Path

from repro.io.mmap_layout import (
    LayoutError,
    ServingLayout,
    artifact_etag,
    cached_layout_dirs,
    export_layout,
    layout_cache_dir,
)
from repro.serving.store import TrustStore


class MmapTrustStore(TrustStore):
    """The store over one exported artifact layout, mapped read-only."""

    #: ``"reused"`` when the columns were already on disk at open,
    #: ``"exported"`` when this open had to build them from the artifact.
    layout_state = "reused"

    # ------------------------------------------------------------------
    # Opening
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path: str | Path) -> "MmapTrustStore":
        """Open a layout directory, or an artifact via its layout cache.

        For an artifact path, the layout lives at
        ``<artifact>.layout-<etag prefix>/`` and is exported exactly
        when that directory does not cache the artifact's current
        bytes. Because the cache key is the ETag, an in-place refit
        lands in a *new* directory — the columns a live store of the
        previous generation has mmapped are never rewritten.
        """
        path = Path(path)
        if path.is_dir():
            return cls(ServingLayout(path))
        etag = artifact_etag(path)
        layout_dir = layout_cache_dir(path, etag)
        try:
            layout = ServingLayout(layout_dir)
            if layout.etag == etag:
                return cls(layout)
        except LayoutError:
            pass
        if layout_dir.exists():
            # The ETag-keyed name is ours and its contents are torn
            # (a matching cache would have been returned above): no
            # live store can have opened it — the constructor maps the
            # core columns up front — so clearing it for a clean
            # export is safe.
            shutil.rmtree(layout_dir, ignore_errors=True)
        export_layout(path, layout_dir, etag=etag)
        try:
            store = cls(ServingLayout(layout_dir))
            store.layout_state = "exported"
        except BaseException:
            # The directory was exported moments ago exclusively for
            # this open (no matching cache existed above), so no live
            # store can be mapping it. Opening what we just wrote
            # failed, so the export is unusable — leaving it behind
            # would strand a layout every later open keeps matching by
            # ETag and failing on.
            shutil.rmtree(layout_dir, ignore_errors=True)
            raise
        # Any other cache generation — the un-keyed legacy name
        # included — and what exports of them left unfinished is now
        # provably stale. Best-effort: on POSIX, unlinking files a live
        # store still has mmapped is safe (the inodes outlive the
        # directory entries); where unlink fails, the stale dir stays.
        for stale in cached_layout_dirs(path, keep=layout_dir):
            shutil.rmtree(stale, ignore_errors=True)
        return store

    @property
    def directory(self) -> Path:
        return self._layout.directory


__all__ = ["MmapTrustStore"]
