"""``MmapTrustStore``: the :class:`~repro.serving.store.TrustStore` over
a layout directory mapped from disk — the store ``kbt serve`` runs.

Every lookup is :class:`~repro.serving.store.TrustStore`'s; this class
only decides which columns it reads. It opens a *serving layout*
(:mod:`repro.io.mmap_layout`): the score / support / percentile / rank
columns are read-only typed memoryviews over mmaps the kernel
pages in on access, string keys decode lazily from mmapped blob
columns, and neither numpy nor the posterior mass ever enters the
process. What stays resident is
what any ``TrustStore`` keeps: the ``key -> row`` indexes and the body
memo.

Opening an *artifact path* serves the layout cache next to it,
**keyed by the artifact's sha256** (the serving ETag):
``<artifact>.layout-<etag prefix>/``. ``FittedKBT.save`` writes it
there from the model it holds, so opening a saved fit only hashes the
file, matches the manifest and maps the columns
(:attr:`MmapTrustStore.layout_state` is ``"reused"``). An artifact that
arrives without its layout — copied, older, or with the cache deleted —
is exported from the file on first open (``"exported"``), by the same
:func:`~repro.io.mmap_layout.cache_layout` that ``save`` calls. A refit
— even in place, same path, new bytes — lands in a *fresh* directory
and never touches the columns a live store has mmapped (rewriting them
would tear or SIGBUS concurrent readers; see
:mod:`repro.io.mmap_layout`), and stale cache generations are swept
best-effort after an export — safe on POSIX, where unlinked files
survive until the last mapping drops.

``close()`` drops the mmap references (the OS unmaps once the last
view of a map dies). A :class:`~repro.serving.manager.StoreManager` only
closes a store after the last in-flight request releases it, so
requests never observe a half-closed store.
"""

from __future__ import annotations

from pathlib import Path

from repro.io.mmap_layout import ServingLayout, cache_layout
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
        bytes (:func:`~repro.io.mmap_layout.cache_layout`). Because the
        cache key is the ETag, an in-place refit lands in a *new*
        directory — the columns a live store of the previous
        generation has mmapped are never rewritten.
        """
        path = Path(path)
        if path.is_dir():
            return cls(ServingLayout(path))
        directory, exported = cache_layout(path)
        store = cls(ServingLayout(directory))
        if exported:
            store.layout_state = "exported"
        return store

    @property
    def directory(self) -> Path:
        return self._layout.directory


__all__ = ["MmapTrustStore"]
