"""The serving layout: a trust artifact unpacked for zero-copy mmap reads.

A trust artifact (:mod:`repro.io.artifact`) is a compressed zip — great
for shipping, useless for serving: nothing inside it can be memory-
mapped, and most of it (every posterior, prior, and observation cell)
is never read to answer a score lookup.
The *serving layout* is the same idiom the out-of-core execution spill
uses (:mod:`repro.exec.spill`): a directory of raw ``.npy`` files plus a
JSON manifest written last (and atomically, via
:func:`repro.io.atomic.atomic_write`), laid out for the read side —

* aligned per-website ``site_score`` / ``site_support`` /
  ``site_percentile`` float64 columns and the ``ranked_idx`` rank
  permutation, so ``/score``, ``/top`` and ``/percentile`` are answered
  from memory-mapped arrays the kernel pages in on demand;
* per-webpage score/support columns for ``/page``;
* the ``/breakdown`` provenance in CSR form (``contrib_ptr`` +
  accuracy/support columns + a JSON-per-row metadata string column);
* the embedded trust signals exactly as the artifact stores them
  (website-interned index/score columns per signal), so the signal
  routes reconstruct byte-identical payloads;
* string keys as *string columns*: one UTF-8 blob ``.npy`` plus an
  int64 offset ``.npy``, both mmapped, decoded row-by-row on demand.

The manifest carries the layout format/version, the source artifact's
sha256 (the serving **ETag** — the gateway's cache validator and the
``/readyz`` version handle), and every scalar the serving surface needs.

What the columns hold is decided once, by :func:`serving_columns` — a
pure function of the fitted source accuracies and their support. It has
two feeders: :func:`export_layout` reads just those sections out of a
saved artifact (:func:`repro.io.artifact.load_serving_inputs`), and
:func:`export_columns` takes them from a process that still holds the
fitted model (the ingest pipeline), so publishing a generation never
loads back what was just saved. The in-memory
:class:`~repro.serving.store.TrustStore` is built from the same
columns, so a layout reproduces its JSON views to the byte by
construction.

A missing, foreign, or torn layout raises :class:`LayoutError` (a
``ValueError``) naming the remedy; because the manifest is written last
and atomically, a crashed export is detected as "no manifest", never
half-read. Layouts are re-derivable at any time: delete the directory
and re-export from the artifact.

A layout directory is **immutable once it exists**: an export builds
the whole layout in a hidden temp sibling and renames it into place in
one atomic step, and :func:`export_layout` *refuses* to write into a
directory that already exists (unless it already holds this exact
export, which is simply reused). Rewriting in place would truncate
``.npy`` files under any live ``np.memmap`` view of them — a reader
would see torn data or die with SIGBUS — so a stale layout is replaced
by exporting to a *new* directory, never by overwriting the old one
(deleting the old directory is safe on POSIX: unlinked inodes survive
until the last mapping goes away).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.kbt import aggregate_scores, webpage_of, website_of
from repro.core.types import SourceKey
from repro.io.artifact import load_serving_inputs
from repro.io.atomic import atomic_write
from repro.io.reports import score_sort_key
from repro.signals.base import SignalScores

#: Format identifier + version written to (and required from) manifests.
LAYOUT_FORMAT = "kbt-serving-layout"
LAYOUT_VERSION = 1

_MANIFEST = "manifest.json"


class LayoutError(ValueError):
    """An unreadable, missing, or corrupt serving layout."""


def artifact_etag(path: str | Path) -> str:
    """The sha256 of the artifact file: the serving-tier version handle.

    Streaming, so multi-GB artifacts hash without being resident; two
    byte-identical artifacts share an ETag, any refit changes it.
    """
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as err:
        raise LayoutError(f"cannot hash artifact {path}: {err}") from err
    return digest.hexdigest()


# ----------------------------------------------------------------------
# String columns: a UTF-8 blob + int64 offsets, both mmappable
# ----------------------------------------------------------------------
def _write_string_column(
    directory: Path, name: str, strings: list[str]
) -> None:
    encoded = [s.encode("utf-8") for s in strings]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    if encoded:
        np.cumsum([len(b) for b in encoded], out=offsets[1:])
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    np.save(directory / f"{name}.blob.npy", blob)
    np.save(directory / f"{name}.off.npy", offsets)


class StringColumn:
    """Read side of a string column: rows decode lazily from the blob.

    ``column[i]`` decodes one row (touching only its pages);
    ``decode_all()`` decodes every row in one pass (used to build the
    key -> index lookup at store open).
    """

    def __init__(self, blob: np.ndarray, offsets: np.ndarray) -> None:
        self._blob = blob
        self._offsets = offsets

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, index: int) -> str:
        lo = int(self._offsets[index])
        hi = int(self._offsets[index + 1])
        return bytes(self._blob[lo:hi]).decode("utf-8")

    def decode_all(self) -> list[str]:
        data = self._blob.tobytes()
        offsets = self._offsets.tolist()
        return [
            data[lo:hi].decode("utf-8")
            for lo, hi in zip(offsets, offsets[1:])
        ]


# ----------------------------------------------------------------------
# The aggregation: fitted state -> what serving reads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServingColumns:
    """Everything a store serves, as aligned per-row lists.

    Site rows are in aggregation (first-seen) order; ``ranked_idx`` is
    the best-first permutation of them; ``contrib_ptr`` is the CSR row
    pointer of the ``/breakdown`` contributors over the site rows.
    """

    min_triples: float
    site_key: list[str]
    site_score: list[float]
    site_support: list[float]
    site_percentile: list[float]
    ranked_idx: list[int]
    page_site: list[str]
    page_url: list[str]
    page_score: list[float]
    page_support: list[float]
    contrib_ptr: list[int]
    contrib_source: list[SourceKey]
    contrib_accuracy: list[float]
    contrib_support: list[float]
    signals: dict[str, SignalScores]
    fusion_weights: dict[str, float]


def serving_columns(
    source_accuracy: dict[SourceKey, float],
    source_support: dict[SourceKey, float],
    min_triples: float,
    signals: dict[str, SignalScores],
    fusion_weights: dict[str, float],
) -> ServingColumns:
    """Aggregate fitted source accuracies into the serving columns.

    Per-website and per-webpage scores (the support-weighted averages of
    :func:`repro.core.kbt.aggregate_scores`, so they equal
    ``KBTReport``'s to the bit), the ranking (descending score, ties on
    the key), score percentiles, and for every website the model sources
    behind its score, largest support first. Signals pass through.
    """
    sites = aggregate_scores(
        source_accuracy, source_support, min_triples, website_of
    )
    pages = aggregate_scores(
        source_accuracy, source_support, min_triples, webpage_of
    )
    site_key = list(sites)
    site_row = {site: row for row, site in enumerate(site_key)}
    site_score = [score.score for score in sites.values()]
    ascending = sorted(site_score)
    ranked = sorted(sites.values(), key=score_sort_key)

    contributors: dict[str, list[tuple]] = {}
    for source, accuracy in source_accuracy.items():
        support = source_support.get(source, 0.0)
        if support > 0.0:
            contributors.setdefault(source.website, []).append(
                (source, accuracy, support)
            )
    contrib_ptr = [0]
    contrib: list[tuple] = []
    for site in site_key:
        contrib.extend(
            sorted(contributors.get(site, ()), key=lambda entry: -entry[2])
        )
        contrib_ptr.append(len(contrib))

    return ServingColumns(
        min_triples=min_triples,
        site_key=site_key,
        site_score=site_score,
        site_support=[score.support for score in sites.values()],
        site_percentile=[
            100.0 * bisect_right(ascending, score) / len(ascending)
            for score in site_score
        ],
        ranked_idx=[site_row[score.key] for score in ranked],
        page_site=[site for site, _ in pages],
        page_url=[url for _, url in pages],
        page_score=[score.score for score in pages.values()],
        page_support=[score.support for score in pages.values()],
        contrib_ptr=contrib_ptr,
        contrib_source=[source for source, _, _ in contrib],
        contrib_accuracy=[accuracy for _, accuracy, _ in contrib],
        contrib_support=[support for _, _, support in contrib],
        signals=signals,
        fusion_weights=fusion_weights,
    )


# ----------------------------------------------------------------------
# Export: columns -> layout directory
# ----------------------------------------------------------------------
_CACHE_SUFFIX = ".layout"


def layout_cache_dir(artifact_path: str | Path, etag: str) -> Path:
    """Where the layout of ``artifact_path``'s bytes ``etag`` is cached.

    ``MmapTrustStore.open(artifact)`` looks here, so whoever exports to
    this name first — the store itself, or the ingest pipeline right
    after saving a generation — saves every later open the export.
    """
    return Path(f"{artifact_path}{_CACHE_SUFFIX}-{etag[:16]}")


def _staging_prefix(directory: Path) -> str:
    return f".{directory.name}.tmp-"


def cached_layout_dirs(
    artifact_path: str | Path, keep: Path | None = None
) -> list[Path]:
    """Every directory the layout cache of ``artifact_path`` has left:
    exports under any ETag (or the un-keyed legacy name) and the staging
    directories of exports killed mid-way — what garbage collection
    sweeps. ``keep`` and the staging of exports into it (one may be
    running in another process) are left out."""
    exported = Path(f"{artifact_path}{_CACHE_SUFFIX}*")
    found = []
    for pattern in (exported.name, _staging_prefix(exported) + "*"):
        for candidate in exported.parent.glob(pattern):
            kept = keep is not None and (
                candidate == keep
                or candidate.name.startswith(_staging_prefix(keep))
            )
            if candidate.is_dir() and not kept:
                found.append(candidate)
    return found


def _reusable_manifest(directory: Path, etag: str) -> Path | None:
    """The manifest path if ``directory`` already holds this exact export."""
    try:
        layout = ServingLayout(directory)
    except LayoutError:
        return None
    if layout.etag != etag:
        return None
    return directory / _MANIFEST


def _unwritable(directory: Path, err: OSError) -> LayoutError:
    return LayoutError(
        f"cannot create the serving layout {directory.name} under "
        f"{directory.parent}: {err}; make that directory writable, or "
        "export the layout elsewhere (export_layout(artifact, DIR)) "
        "and run 'kbt serve DIR'"
    )


def export_layout(
    artifact_path: str | Path,
    directory: str | Path,
    etag: str | None = None,
) -> Path:
    """Unpack ``artifact_path`` into a serving layout; returns the manifest.

    Reads only what :func:`serving_columns` takes
    (:func:`repro.io.artifact.load_serving_inputs`), and only when there
    is something to write.

    The layout is built in a hidden temp sibling and renamed into place
    atomically, so ``directory`` either does not exist or is complete.
    An existing ``directory`` is never rewritten — its ``.npy`` files
    may be mmapped by a live store, and truncating them would tear or
    SIGBUS concurrent readers. If it already holds this exact export
    (same ETag) it is reused as-is — which also makes concurrent
    exports of the same artifact converge instead of clobbering each
    other; anything else raises :class:`LayoutError` naming the remedy
    (export to a fresh directory, or delete the stale one first) — as
    does a parent directory the export cannot write to.
    """
    return _export(Path(artifact_path), Path(directory), etag)


def export_columns(
    columns: ServingColumns,
    artifact_path: str | Path,
    directory: str | Path,
    etag: str | None = None,
) -> Path:
    """:func:`export_layout` for a caller that already holds the columns
    of the model it saved at ``artifact_path``: same writer, same
    guarantees, no artifact load."""
    return _export(Path(artifact_path), Path(directory), etag, columns)


def _export(
    artifact_path: Path,
    directory: Path,
    etag: str | None,
    columns: ServingColumns | None = None,
) -> Path:
    if etag is None:
        etag = artifact_etag(artifact_path)

    existing = _reusable_manifest(directory, etag)
    if existing is not None:
        return existing
    if directory.exists():
        raise LayoutError(
            f"refusing to export into existing directory {directory}: it "
            "holds a different or torn layout whose files may be mmapped "
            "by a live store (rewriting would tear concurrent readers) — "
            "export to a fresh directory, or delete this one first"
        )

    try:
        directory.parent.mkdir(parents=True, exist_ok=True)
        staging = Path(
            tempfile.mkdtemp(
                prefix=_staging_prefix(directory), dir=directory.parent
            )
        )
    except OSError as err:
        raise _unwritable(directory, err) from err
    try:
        if columns is None:
            columns = serving_columns(*load_serving_inputs(artifact_path))
        _write_columns(columns, staging, artifact_path, etag)
        try:
            os.rename(staging, directory)
        except OSError as err:
            # Lost a race against a concurrent export of the same
            # artifact: reuse the winner. Anything else is a refusal.
            existing = _reusable_manifest(directory, etag)
            if existing is not None:
                return existing
            if not directory.exists():
                raise _unwritable(directory, err) from err
            raise LayoutError(
                f"cannot move exported layout into place at {directory}: "
                f"{err}; the target appeared mid-export and does not "
                "match this artifact — export to a fresh directory"
            ) from err
    finally:
        if staging.exists():
            shutil.rmtree(staging, ignore_errors=True)
    return directory / _MANIFEST


def _write_columns(
    columns: ServingColumns, directory: Path, artifact_path: Path, etag: str
) -> None:
    """Write every column + the manifest (last, atomically) into
    ``directory`` — a private staging dir nothing can have mmapped."""

    def save(name: str, values: list, dtype) -> None:
        np.save(directory / f"{name}.npy", np.asarray(values, dtype=dtype))

    _write_string_column(directory, "site_key", columns.site_key)
    save("site_score", columns.site_score, np.float64)
    save("site_support", columns.site_support, np.float64)
    save("site_percentile", columns.site_percentile, np.float64)
    save("ranked_idx", columns.ranked_idx, np.int64)

    _write_string_column(directory, "page_site", columns.page_site)
    _write_string_column(directory, "page_url", columns.page_url)
    save("page_score", columns.page_score, np.float64)
    save("page_support", columns.page_support, np.float64)

    # /breakdown provenance, CSR over the site rows.
    save("contrib_ptr", columns.contrib_ptr, np.int64)
    save("contrib_accuracy", columns.contrib_accuracy, np.float64)
    save("contrib_support", columns.contrib_support, np.float64)
    _write_string_column(
        directory,
        "contrib_meta",
        [
            json.dumps(
                [str(source), list(source.features), source.level],
                ensure_ascii=False,
                separators=(",", ":"),
            )
            for source in columns.contrib_source
        ],
    )

    # Trust signals: artifact order, website-interned.
    website_index: dict[str, int] = {}

    def intern(site: str) -> int:
        return website_index.setdefault(site, len(website_index))

    signal_entries = []
    for index, (name, scores) in enumerate(columns.signals.items()):
        save(f"sig{index}_site", [intern(s) for s in scores.scores], np.int64)
        save(f"sig{index}_score", list(scores.scores.values()), np.float64)
        save(
            f"sig{index}_sup_site",
            [intern(s) for s in scores.support],
            np.int64,
        )
        save(
            f"sig{index}_sup_val", list(scores.support.values()), np.float64
        )
        signal_entries.append({"name": name, "metadata": scores.metadata})
    _write_string_column(directory, "signal_site", list(website_index))

    manifest = {
        "format": LAYOUT_FORMAT,
        "version": LAYOUT_VERSION,
        "etag": etag,
        "artifact": str(artifact_path),
        "min_triples": columns.min_triples,
        "num_sites": len(columns.site_key),
        "num_pages": len(columns.page_score),
        "num_contributors": len(columns.contrib_source),
        "signals": signal_entries,
        "fusion_weights": {
            name: float(weight)
            for name, weight in columns.fusion_weights.items()
        },
    }
    with atomic_write(directory / _MANIFEST, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(manifest, indent=1) + "\n")


# ----------------------------------------------------------------------
# Read side
# ----------------------------------------------------------------------
class ServingLayout:
    """An opened layout directory: the manifest plus mmapped columns.

    ``array(name)`` returns a read-only array over the ``np.memmap`` of
    one column, ``strings(name)`` a lazily-decoding :class:`StringColumn`;
    both raise :class:`LayoutError` with the regenerate remedy when a
    file is missing or torn.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        manifest_path = self.directory / _MANIFEST
        if not manifest_path.is_file():
            raise LayoutError(
                f"no serving-layout manifest at {manifest_path}: the "
                "layout was deleted, never exported, or an export was "
                "interrupted — re-export it from the artifact "
                "(export_layout, or serve the artifact path and the "
                "gateway re-exports automatically)"
            )
        try:
            self.manifest = json.loads(
                manifest_path.read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError) as err:
            raise LayoutError(
                f"unreadable serving-layout manifest {manifest_path}: "
                f"{err}; re-export the layout from the artifact"
            ) from err
        if self.manifest.get("format") != LAYOUT_FORMAT:
            raise LayoutError(
                f"{manifest_path} is not a serving-layout manifest "
                f"(format={self.manifest.get('format')!r})"
            )
        if self.manifest.get("version") != LAYOUT_VERSION:
            raise LayoutError(
                f"unsupported serving-layout version "
                f"{self.manifest.get('version')!r} in {manifest_path}; "
                f"this build reads version {LAYOUT_VERSION} — re-export "
                "the layout from the artifact"
            )

    @property
    def etag(self) -> str:
        return self.manifest["etag"]

    def array(self, name: str) -> np.ndarray:
        path = self.directory / f"{name}.npy"
        try:
            # A plain view of the map: ``np.memmap``'s Python-level
            # ``__getitem__`` / ``__array_finalize__`` cost more than
            # the reads they wrap. The view's base keeps the map alive.
            return np.load(path, mmap_mode="r").view(np.ndarray)
        except (OSError, ValueError) as err:
            raise LayoutError(
                f"cannot map serving-layout column {path}: {err}; the "
                "layout is incomplete or corrupt — re-export it from "
                "the artifact"
            ) from err

    def strings(self, name: str) -> StringColumn:
        return StringColumn(
            self.array(f"{name}.blob"), self.array(f"{name}.off")
        )


__all__ = [
    "LAYOUT_FORMAT",
    "LAYOUT_VERSION",
    "LayoutError",
    "ServingColumns",
    "ServingLayout",
    "StringColumn",
    "artifact_etag",
    "cached_layout_dirs",
    "export_columns",
    "export_layout",
    "layout_cache_dir",
    "serving_columns",
]
