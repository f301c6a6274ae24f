"""Crash-safe file writes: temp-file-then-rename in the target directory.

Four on-disk formats use this idiom: the manifest of a column directory
(:mod:`repro.io.container` — the out-of-core shard spill and the
serving layout), the fit checkpoint (:mod:`repro.exec.checkpoint`) and
the trust artifact (:mod:`repro.io.artifact`): bytes go to a temporary file
in the *same* directory (so the final ``rename`` stays within one
filesystem and is atomic), the file is flushed and fsynced, and only a
cleanly completed write is renamed over the target. A reader therefore
observes either the previous complete file or the new complete file,
never a torn one; a crash mid-write leaves the target untouched.

The rename itself lives in the parent directory's entry table, which has
its own durability: without an fsync of the directory, a power loss
after ``os.replace`` can roll the rename back even though the file data
hit the platter, leaving the old (or no) manifest next to new shard
files. ``atomic_write`` therefore fsyncs the parent directory after the
rename, making the idiom power-loss-safe, not just crash-safe.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import IO


@contextmanager
def atomic_write(
    path: str | Path, mode: str = "wb", encoding: str | None = None
) -> Iterator[IO]:
    """Open a temp file that replaces ``path`` atomically on clean exit.

    ``mode`` must be a write mode (``"wb"`` or ``"w"``); pass
    ``encoding`` for text mode. If the with-block raises, the temp file
    is removed and ``path`` keeps its previous content (or absence).
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode, encoding=encoding) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
        _fsync_dir(path.parent)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:  # pragma: no cover - already renamed/removed
            pass
        raise


def _fsync_dir(directory: Path) -> None:
    """Flush ``directory``'s entry table so a completed rename survives
    power loss. Directories cannot be fsynced on every platform (notably
    Windows); there the rename is as durable as the OS makes it."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - fs without dir-fsync
        pass
    finally:
        os.close(dir_fd)


__all__ = ["atomic_write"]
