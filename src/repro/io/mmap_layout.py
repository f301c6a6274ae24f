"""The serving layout: a trust artifact unpacked for zero-copy mmap reads.

A trust artifact (:mod:`repro.io.artifact`) is a compressed zip — great
for shipping, useless for serving: nothing inside it can be memory-
mapped, and loading it whole (as the in-memory
:class:`~repro.serving.store.TrustStore` does) deserialises every
posterior, prior, and observation cell just to answer score lookups.
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
Exporting goes through ``TrustStore``'s own aggregation, so a layout
reproduces its JSON views to the byte by construction.

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
from pathlib import Path

import numpy as np

from repro.io.atomic import atomic_write

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
# Export: artifact -> layout directory
# ----------------------------------------------------------------------
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

    The heavy lifting — score aggregation, ranking, percentiles,
    provenance — runs through ``TrustStore`` over the loaded artifact,
    so the exported columns reproduce its serving views exactly.

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
    artifact_path = Path(artifact_path)
    directory = Path(directory)
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
                prefix=f".{directory.name}.tmp-", dir=directory.parent
            )
        )
    except OSError as err:
        raise _unwritable(directory, err) from err
    try:
        _export_into(artifact_path, staging, etag)
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


def _export_into(
    artifact_path: Path, directory: Path, etag: str
) -> None:
    """Write every column + the manifest (last, atomically) into
    ``directory`` — a private staging dir nothing can have mmapped."""
    # Lazy import: repro.serving imports repro.io, not the reverse.
    from repro.serving.store import TrustStore

    manifest_path = directory / _MANIFEST
    store = TrustStore.open(artifact_path)
    artifact = store.artifact

    # --- per-website columns (store insertion order) -------------------
    site_keys: list[str] = []
    site_score: list[float] = []
    site_support: list[float] = []
    site_percentile: list[float] = []
    site_index: dict[str, int] = {}
    for site in store.websites():
        score = store.score(site)
        site_index[site] = len(site_keys)
        site_keys.append(site)
        site_score.append(score.score)
        site_support.append(score.support)
        site_percentile.append(store.percentile(site))
    ranked_idx = [site_index[score.key] for score in store.top(len(store))]

    _write_string_column(directory, "site_key", site_keys)
    np.save(directory / "site_score.npy",
            np.asarray(site_score, dtype=np.float64))
    np.save(directory / "site_support.npy",
            np.asarray(site_support, dtype=np.float64))
    np.save(directory / "site_percentile.npy",
            np.asarray(site_percentile, dtype=np.float64))
    np.save(directory / "ranked_idx.npy",
            np.asarray(ranked_idx, dtype=np.int64))

    # --- per-webpage columns ------------------------------------------
    page_scores = store.page_scores()
    page_sites = [site for site, _ in page_scores]
    page_urls = [url for _, url in page_scores]
    _write_string_column(directory, "page_site", page_sites)
    _write_string_column(directory, "page_url", page_urls)
    np.save(
        directory / "page_score.npy",
        np.asarray(
            [score.score for score in page_scores.values()],
            dtype=np.float64,
        ),
    )
    np.save(
        directory / "page_support.npy",
        np.asarray(
            [score.support for score in page_scores.values()],
            dtype=np.float64,
        ),
    )

    # --- /breakdown provenance, CSR over the site rows ----------------
    contrib_ptr = [0]
    contrib_accuracy: list[float] = []
    contrib_support: list[float] = []
    contrib_meta: list[str] = []
    for site in site_keys:
        for entry in store.breakdown(site)["sources"]:
            contrib_accuracy.append(entry["accuracy"])
            contrib_support.append(entry["support"])
            contrib_meta.append(
                json.dumps(
                    [entry["source"], entry["features"], entry["level"]],
                    ensure_ascii=False,
                    separators=(",", ":"),
                )
            )
        contrib_ptr.append(len(contrib_accuracy))
    np.save(directory / "contrib_ptr.npy",
            np.asarray(contrib_ptr, dtype=np.int64))
    np.save(directory / "contrib_accuracy.npy",
            np.asarray(contrib_accuracy, dtype=np.float64))
    np.save(directory / "contrib_support.npy",
            np.asarray(contrib_support, dtype=np.float64))
    _write_string_column(directory, "contrib_meta", contrib_meta)

    # --- trust signals (artifact order, website-interned) -------------
    website_index: dict[str, int] = {}
    website_table: list[str] = []

    def intern(site: str) -> int:
        position = website_index.get(site)
        if position is None:
            position = len(website_table)
            website_index[site] = position
            website_table.append(site)
        return position

    signal_entries = []
    for index, (name, scores) in enumerate(artifact.signals.items()):
        np.save(
            directory / f"sig{index}_site.npy",
            np.asarray(
                [intern(site) for site in scores.scores], dtype=np.int64
            ),
        )
        np.save(
            directory / f"sig{index}_score.npy",
            np.asarray(list(scores.scores.values()), dtype=np.float64),
        )
        np.save(
            directory / f"sig{index}_sup_site.npy",
            np.asarray(
                [intern(site) for site in scores.support], dtype=np.int64
            ),
        )
        np.save(
            directory / f"sig{index}_sup_val.npy",
            np.asarray(list(scores.support.values()), dtype=np.float64),
        )
        signal_entries.append({"name": name, "metadata": scores.metadata})
    _write_string_column(directory, "signal_site", website_table)

    manifest = {
        "format": LAYOUT_FORMAT,
        "version": LAYOUT_VERSION,
        "etag": etag,
        "artifact": str(artifact_path),
        "min_triples": store.min_triples,
        "num_sites": len(site_keys),
        "num_pages": len(page_scores),
        "num_contributors": len(contrib_accuracy),
        "signals": signal_entries,
        "fusion_weights": {
            name: float(weight)
            for name, weight in artifact.fusion_weights.items()
        },
    }
    with atomic_write(manifest_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(manifest, indent=1) + "\n")


# ----------------------------------------------------------------------
# Read side
# ----------------------------------------------------------------------
class ServingLayout:
    """An opened layout directory: the manifest plus mmapped columns.

    ``array(name)`` returns a read-only ``np.memmap`` view of one
    column, ``strings(name)`` a lazily-decoding :class:`StringColumn`;
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
            return np.load(path, mmap_mode="r")
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
    "ServingLayout",
    "StringColumn",
    "artifact_etag",
    "export_layout",
]
