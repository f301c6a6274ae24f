"""Refcounted store lifecycle: the hot-swap half of the gateway.

A gateway process serves one *current* store but must replace it with a
freshly fitted artifact **without dropping or tearing a single in-flight
request**. The :class:`StoreManager` makes that an invariant rather than
a hope:

* every request **acquires a lease** on the current store before
  touching it and releases the lease when its response bytes are
  rendered — the store a request starts with is the store it finishes
  with, even if a swap lands mid-request;
* :meth:`swap` builds the *new* store first (the expensive part: hashing
  the artifact, re-exporting the layout if stale). Only after the new
  store opens successfully does the manager retire the old one — a
  corrupt or version-mismatched artifact raises out of ``swap`` and the
  old store keeps serving, untouched;
* a retired store is closed exactly when its lease count reaches zero,
  so mmap-backed stores never unmap under a reader.

The manager is thread-safe (one mutex around the refcount bookkeeping —
all O(1) operations) because leases are taken on the gateway's event
loop and released there or on its worker threads, and swaps run on one.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Callable

from repro.serving.mmap_store import MmapTrustStore


class _Entry:
    """One store generation: the store plus its outstanding lease count."""

    __slots__ = ("store", "leases", "retired")

    def __init__(self, store) -> None:
        self.store = store
        self.leases = 0
        self.retired = False


class StoreLease:
    """A borrowed reference to one store generation.

    Use as a context manager (``with manager.acquire() as store:``) or
    call :meth:`release` explicitly. Releasing twice is a no-op.
    """

    def __init__(self, manager: "StoreManager", entry: _Entry) -> None:
        self._manager = manager
        self._entry: _Entry | None = entry

    @property
    def store(self):
        entry = self._entry
        if entry is None:
            raise RuntimeError("lease already released")
        return entry.store

    def release(self) -> None:
        entry = self._entry
        if entry is not None:
            self._entry = None
            self._manager._release(entry)

    def __enter__(self):
        return self.store

    def __exit__(self, *exc) -> None:
        self.release()


class StoreManager:
    """Owns the current store and swaps it atomically under load."""

    def __init__(
        self,
        store,
        opener: Callable[[str | Path], object] = MmapTrustStore.open,
    ) -> None:
        self._lock = threading.Lock()
        self._current = _Entry(store)
        self._opener = opener
        self._generation = 0
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """How many swaps have landed (0 for the store served at boot)."""
        with self._lock:
            return self._generation

    @property
    def etag(self) -> str | None:
        """The current store's artifact ETag (None for a ``TrustStore``)."""
        with self._lock:
            return getattr(self._current.store, "etag", None)

    def status(self) -> dict:
        """Swap generation + current ETag in one O(1) lock acquisition.

        The cheap introspection surface for anything that needs to know
        *which* store generation is serving without leasing it — the
        gateway's ``/readyz``, the ingest pipeline's published status,
        and tests asserting swap monotonicity all read this.
        """
        with self._lock:
            return {
                "generation": self._generation,
                "etag": getattr(self._current.store, "etag", None),
            }

    def acquire(self) -> StoreLease:
        """Borrow the current store; release when the response is done."""
        with self._lock:
            entry = self._current
            entry.leases += 1
        return StoreLease(self, entry)

    def _release(self, entry: _Entry) -> None:
        close = False
        with self._lock:
            entry.leases -= 1
            close = entry.retired and entry.leases == 0
        if close:
            entry.store.close()

    # ------------------------------------------------------------------
    def swap(self, artifact_path: str | Path):
        """Replace the current store with one opened from ``artifact_path``.

        Build-then-flip: the new store is fully opened (artifact hashed,
        layout exported or revalidated, columns mapped) *before* the flip,
        so a bad artifact — corrupt zip, future format version, torn
        layout — raises here and leaves the old store serving. The old
        generation closes when its last in-flight lease releases.

        A swap against a *closed* manager (the gateway already drained)
        raises instead of flipping: the built store would have no owner
        left to ever close it, stranding its mmaps and layout directory.
        The closed check runs again under the lock after the build, so
        a close racing the (slow) build also lands on this path — the
        freshly built store is closed before raising.

        Returns the new store.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError(
                    "StoreManager is closed; refusing to swap in "
                    f"{artifact_path}"
                )
        new_store = self._opener(artifact_path)
        with self._lock:
            closed = self._closed
            if not closed:
                old = self._current
                old.retired = True
                close_old = old.leases == 0
                self._current = _Entry(new_store)
                self._generation += 1
        if closed:
            new_store.close()
            raise RuntimeError(
                "StoreManager closed while building the new store; "
                f"refusing to swap in {artifact_path}"
            )
        if close_old:
            old.store.close()
        return new_store

    def close(self) -> None:
        """Retire the current store (closes once all leases release)."""
        with self._lock:
            self._closed = True
            entry = self._current
            entry.retired = True
            close = entry.leases == 0
        if close:
            entry.store.close()


__all__ = ["StoreLease", "StoreManager"]
