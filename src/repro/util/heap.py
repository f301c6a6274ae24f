"""Heap policy: bulk builders run with the cyclic garbage collector paused.

CPython's cyclic collector runs a young pass every few hundred container
allocations and rescans the whole long-lived heap each time it grows by
a quarter. The bulk builders of the records -> served path (the JSONL
readers, the observation-matrix fold, the artifact and layout writers,
the artifact loader, the serving store's key index) allocate hundreds of
thousands of keys, tuples and lists that hold no reference cycles, so
every such pass scans them and frees nothing. :func:`paused_gc` holds
the collector off for the length of one such build; reference counting
still frees everything at once, and the allocations made meanwhile are
collected, at most once, by the first pass after the pause.

A paused region encloses no fork, worker start, socket wait or call into
user code: a forked child would inherit a disabled collector, and user
code may build cycles. This module is the only place in ``src/`` that
switches the collector (CI greps for it).
"""

from __future__ import annotations

import gc
import threading
from collections.abc import Iterator
from contextlib import contextmanager

# The collector is one per process, so its pause count is too.
_lock = threading.Lock()
_depth = 0
_was_enabled = False


@contextmanager
def paused_gc() -> Iterator[None]:
    """Pause the cyclic collector for the ``with`` block.

    Reentrant and thread-safe: the outermost entry (over all threads)
    disables the collector, the outermost exit restores it, on an
    exception too, and only if it was enabled at that outermost entry,
    so a caller's own ``gc.disable()`` stays in force.
    """
    global _depth, _was_enabled
    with _lock:
        if _depth == 0:
            _was_enabled = gc.isenabled()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _was_enabled:
                gc.enable()
