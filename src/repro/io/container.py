"""The column directory: raw ``.npy`` columns plus a manifest written last.

The out-of-core shard spill (:mod:`repro.exec.spill`) and the serving
layout (:mod:`repro.io.mmap_layout`) are this container. A column is
one ``<name>.npy`` file (a ``/`` in a name is a subdirectory), mapped
back read-only. The manifest, ``{"format", "version", **fields,
"columns"}``, goes last through :func:`repro.io.atomic.atomic_write`,
after the stale one is unlinked, so an interrupted write reads as "no
manifest", never as half a directory. ``columns`` records each column's
dtype, shape and data offset, so a reader that has the manifest maps a
column without parsing its ``.npy`` header: as a read-only typed
``memoryview`` over its ``mmap``, with no numpy in the process. numpy
loads only where a column is written, or mapped by its header (the
spill's ``np.memmap``). A :class:`ColumnFormat` is one format: every
failure raises its error class, naming the path and its remedy.
"""

from __future__ import annotations

import json
import mmap
import struct
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.io.atomic import atomic_write

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

MANIFEST = "manifest.json"

_NATIVE = "<" if sys.byteorder == "little" else ">"
#: The ``memoryview`` format of each dtype a column maps to through its
#: manifest entry: float64 and int64 in this host's byte order, bytes.
VIEW_FORMATS = {f"{_NATIVE}f8": "d", f"{_NATIVE}i8": "q", "|u1": "B"}


@dataclass(frozen=True)
class ColumnFormat:
    """One format of the container, and how its failures read."""

    #: The manifest's ``format`` identifier and ``version``.
    format: str
    version: int
    #: What the messages call it ("shard spill", "serving-layout").
    what: str
    #: The ``ValueError`` subclass every failure raises.
    error: type[ValueError]
    #: The way out a read failure names.
    remedy: str

    def write(
        self,
        directory: str | Path,
        columns: Mapping[str, np.ndarray],
        fields: dict,
    ) -> Path:
        """Save ``columns`` under ``directory``, then the manifest;
        returns the manifest path."""
        directory = Path(directory)
        manifest = directory / MANIFEST
        try:
            directory.mkdir(parents=True, exist_ok=True)
            # A stale manifest must not survive a partial rewrite.
            manifest.unlink(missing_ok=True)
            table = {
                name: self.save(directory, name, values)
                for name, values in columns.items()
            }
            document = {"format": self.format, "version": self.version}
            document |= fields | {"columns": table}
            with atomic_write(manifest, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(document, indent=1) + "\n")
        except OSError as err:
            raise self._unwritable(directory, err) from err
        return manifest

    def update_manifest(self, directory: str | Path, fields: dict) -> Path:
        """Set ``fields`` in the manifest under ``directory``, replaced
        atomically; no column is touched (a reader may map them)."""
        manifest = Path(directory) / MANIFEST
        document = self.read_manifest(directory) | fields
        with atomic_write(manifest, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(document, indent=1) + "\n")
        return manifest

    def save(self, directory: str | Path, name: str, values) -> list:
        """Save one column as ``directory/<name>.npy``; returns its
        ``[dtype, shape, data offset]``, what :meth:`map` takes."""
        import numpy as np

        path = Path(directory) / f"{name}.npy"
        array = np.ascontiguousarray(values)
        try:
            # A stat, not a mkdir: an existing directory would cost a
            # raised and caught FileExistsError per column.
            if not path.parent.is_dir():
                path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "wb") as handle:
                np.save(handle, array)
                end = handle.tell()
        except OSError as err:
            raise self._unwritable(path, err) from err
        return [array.dtype.str, list(array.shape), end - array.nbytes]

    def read_manifest(self, directory: str | Path) -> dict:
        """The manifest under ``directory``, checked against this format."""
        path = Path(directory) / MANIFEST
        if not path.is_file():
            raise self.error(
                f"no {self.what} manifest at {path}: it was deleted, never "
                f"written, or its write was interrupted — {self.remedy}"
            )
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as err:
            raise self.error(
                f"unreadable {self.what} manifest {path}: {err}; "
                f"{self.remedy}"
            ) from err
        found = manifest.get("format") if isinstance(manifest, dict) else None
        if found != self.format:
            raise self.error(
                f"{path} is not a {self.what} manifest (format={found!r}); "
                f"{self.remedy}"
            )
        if manifest.get("version") != self.version:
            raise self.error(
                f"unsupported {self.what} version "
                f"{manifest.get('version')!r} in {path}; this build reads "
                f"version {self.version} — {self.remedy}"
            )
        return manifest

    def map(
        self, directory: str | Path, name: str, column: list | None = None
    ) -> memoryview | np.ndarray:
        """Map ``directory/<name>.npy`` read-only.

        With ``column``, the ``[dtype, shape, offset]`` the manifest
        recorded for it: one ``mmap`` and a typed ``memoryview`` of its
        data, for a 1-D column of a dtype in :data:`VIEW_FORMATS`; a file
        too short for it is torn. Without, ``np.load`` reads the ``.npy``
        header (an ``np.memmap``, whose pages
        :func:`repro.exec.spill.advise_dontneed` can drop).
        """
        path = Path(directory) / f"{name}.npy"
        if column is not None:
            try:
                dtype, (length,), offset = column
                code = VIEW_FORMATS[dtype]
            except (KeyError, TypeError, ValueError):
                raise self.error(
                    f"{self.what} column {path} is recorded as {column!r}, "
                    f"not a 1-D column of a dtype this build maps "
                    f"({', '.join(VIEW_FORMATS)}); {self.remedy}"
                ) from None
        try:
            if column is None:
                import numpy as np

                return np.load(path, mmap_mode="r")
            with open(path, "rb") as handle:
                mapping = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
            end = offset + length * struct.calcsize(code)
            if not 0 <= offset <= end <= len(mapping):
                raise ValueError(
                    f"its data ends at byte {end}, the file at "
                    f"{len(mapping)}"
                )
            return memoryview(mapping)[offset:end].cast(code)
        except (OSError, ValueError, TypeError) as err:
            raise self.error(
                f"{self.what} column {path} is missing or torn ({err}); "
                f"{self.remedy}"
            ) from err

    def _unwritable(self, path: Path, err: OSError) -> ValueError:
        return self.error(
            f"cannot write {self.what} files under {path}: {err}; choose "
            "a writable directory"
        )


__all__ = ["ColumnFormat", "MANIFEST", "VIEW_FORMATS"]
