"""The column directory: raw ``.npy`` columns plus a manifest written last.

The out-of-core shard spill (:mod:`repro.exec.spill`) and the serving
layout (:mod:`repro.io.mmap_layout`) are this container. A column is
one ``<name>.npy`` file (a ``/`` in a name is a subdirectory), mapped
back read-only. The manifest, ``{"format", "version", **fields}``, goes
last through :func:`repro.io.atomic.atomic_write`, after the stale one
is unlinked, so an interrupted write reads as "no manifest", never as
half a directory. A :class:`ColumnFormat` is one format: every failure
raises its error class, naming the path and its remedy.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.io.atomic import atomic_write

MANIFEST = "manifest.json"


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
            for name, values in columns.items():
                self.save(directory, name, values)
            document = {"format": self.format, "version": self.version}
            with atomic_write(manifest, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(document | fields, indent=1) + "\n")
        except OSError as err:
            raise self._unwritable(directory, err) from err
        return manifest

    def save(self, directory: str | Path, name: str, values) -> None:
        """Save one column as ``directory/<name>.npy``."""
        path = Path(directory) / f"{name}.npy"
        try:
            # A stat, not a mkdir: an existing directory would cost a
            # raised and caught FileExistsError per column.
            if not path.parent.is_dir():
                path.parent.mkdir(parents=True, exist_ok=True)
            np.save(path, np.ascontiguousarray(values))
        except OSError as err:
            raise self._unwritable(path, err) from err

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

    def map(self, directory: str | Path, name: str) -> np.memmap:
        """Map ``directory/<name>.npy`` read-only."""
        path = Path(directory) / f"{name}.npy"
        try:
            return np.load(path, mmap_mode="r")
        except (OSError, ValueError) as err:
            raise self.error(
                f"{self.what} column {path} is missing or torn ({err}); "
                f"{self.remedy}"
            ) from err

    def _unwritable(self, path: Path, err: OSError) -> ValueError:
        return self.error(
            f"cannot write {self.what} files under {path}: {err}; choose "
            "a writable directory"
        )


__all__ = ["ColumnFormat", "MANIFEST"]
