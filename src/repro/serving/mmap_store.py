"""``MmapTrustStore``: the :class:`~repro.serving.store.TrustStore` over
a layout directory mapped from disk — the store ``kbt serve`` runs.

Every lookup is :class:`~repro.serving.store.TrustStore`'s; this class
only decides which columns it reads. It opens a *serving layout*
(:mod:`repro.io.mmap_layout`): the score / support / percentile / rank
columns are read-only typed memoryviews over mmaps the kernel
pages in on access, the key columns (``site_key``, ``page_site``,
``page_url``) are decoded once at open into the ``key -> row``
indexes, the other string columns row by row on demand, and neither
numpy nor the posterior mass ever enters the process. What stays
resident is what any ``TrustStore`` keeps: those indexes and the body
memo.

Opening an *artifact path* serves the layout cache next to it,
**keyed by the artifact's sha256** (the serving ETag):
``<artifact>.layout-<etag prefix>/``. ``FittedKBT.save`` writes it
there from the model it holds, with the file's stamp (device, inode,
size, mtime, ctime) in its manifest, so opening a saved fit stats the
file, finds the manifest that records that stamp and maps the columns:
no byte of the artifact is read, and the ETag is the manifest's. A
stamp no manifest records (a copied, touched or rewritten file, or a
layout written before stamps) is hashed, and the ETag's directory
mapped if it holds a layout of those bytes. Opening only reads: an
artifact that arrived without its layout — copied, older, or with the
cache deleted — is refused with a
:class:`~repro.io.mmap_layout.LayoutError` naming the remedy, and no
directory is created, renamed or deleted. ``kbt serve`` exports such a
layout once, before its event loop starts; a hot swap never does. A
refit — even in place, same path, new bytes — has a *fresh* cache
directory and never touches the columns a live store has mmapped
(rewriting them would tear or SIGBUS concurrent readers; see
:mod:`repro.io.mmap_layout`).

``close()`` drops the mmap references (the OS unmaps once the last
view of a map dies). A :class:`~repro.serving.manager.StoreManager` only
closes a store after the last in-flight request releases it, so
requests never observe a half-closed store.
"""

from __future__ import annotations

from pathlib import Path

from repro.io.mmap_layout import (
    LayoutError,
    ServingLayout,
    artifact_etag,
    layout_cache_dir,
    stamped_layout,
)
from repro.serving.store import TrustStore


class MmapTrustStore(TrustStore):
    """The store over one exported artifact layout, mapped read-only."""

    # ------------------------------------------------------------------
    # Opening
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path: str | Path) -> "MmapTrustStore":
        """Open a layout directory, or an artifact via its layout cache.

        For an artifact path: map the cached layout whose manifest
        records the file's stamp
        (:func:`~repro.io.mmap_layout.stamped_layout`), reading nothing
        of the file. Failing that, hash the file, map the layout at
        ``<artifact>.layout-<etag prefix>/``, or raise
        :class:`~repro.io.mmap_layout.LayoutError` when that directory
        does not hold a layout of these bytes. Because the cache key is
        the ETag, an in-place refit has a *new* directory — the columns
        a live store of the previous generation has mmapped are never
        rewritten.
        """
        path = Path(path)
        if path.is_dir():
            return cls(ServingLayout(path))
        stamped = stamped_layout(path)
        if stamped is not None:
            return cls(stamped)
        etag = artifact_etag(path)
        layout = ServingLayout(layout_cache_dir(path, etag))
        if layout.etag != etag:
            raise LayoutError(
                f"the serving layout {layout.directory} is not the layout "
                f"of {path} (ETag {layout.etag}, the artifact's {etag}); "
                f"'kbt serve {path}' exports over it before it serves"
            )
        return cls(layout)

    @property
    def directory(self) -> Path:
        return self._layout.directory


__all__ = ["MmapTrustStore"]
