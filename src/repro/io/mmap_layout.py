"""The serving layout: a trust artifact unpacked for zero-copy mmap reads.

A trust artifact (:mod:`repro.io.artifact`) is a compressed zip — great
for shipping, useless for serving: nothing inside it can be memory-
mapped, and most of it (every posterior, prior, and observation cell)
is never read to answer a score lookup.
The *serving layout* is the same container the out-of-core execution
spill uses (:mod:`repro.io.container`): a directory of raw ``.npy``
files plus a JSON manifest written last (and atomically), laid out for
the read side —

* aligned per-website ``site_score`` / ``site_support`` /
  ``site_percentile`` float64 columns and the ``ranked_idx`` rank
  permutation, so ``/score``, ``/top`` and ``/percentile`` are answered
  from memory-mapped arrays the kernel pages in on demand;
* per-webpage score/support columns for ``/page``;
* the ``/breakdown`` provenance in CSR form (``contrib_ptr`` +
  accuracy/support columns + a JSON-per-row metadata string column);
* the embedded trust signals exactly as the artifact stores them:
  :func:`signal_columns` writes both (four columns per signal over one
  website table) and :func:`signal_scores` reads both back, so the
  signal routes reconstruct byte-identical payloads;
* string keys as *string columns*: one UTF-8 blob ``.npy`` plus an
  int64 offset ``.npy``, both mmapped, decoded row-by-row on demand.

The manifest carries the layout format/version, the source artifact's
sha256 (the serving **ETag** — the gateway's cache validator and the
``/readyz`` version handle), the artifact file's stamp (device, inode,
size, mtime, ctime; :func:`artifact_stamp`), by which an open finds the
layout of a saved fit without reading the file (:func:`stamped_layout`),
every scalar the serving surface needs,
and each column's dtype, shape and data offset, so opening a layout is
one ``mmap`` plus a typed ``memoryview`` per column, with no ``.npy``
header parsed (layout version 2; a cache of version 1 is refused on
open, and re-exported by :func:`cache_layout`).

What the columns hold, and how they are encoded, is decided once, by
:func:`serving_columns` — a pure function of the result's columns (the
sources, their accuracies and the C layer's ``p`` by source) that
returns the arrays a layout stores (:class:`ServingColumns`). Its
scores are :func:`repro.core.kbt.aggregate_scores`, the one aggregation
``KBTReport`` reads too. It has two feeders: :func:`export_layout`
reads just those columns out of a saved artifact
(:func:`repro.io.artifact.load_serving_inputs`), and
``FittedKBT.save`` passes :func:`cache_layout` the columns of the result
it holds, so serving a saved fit never loads back what was just saved.
Exporting only saves those arrays.
:class:`~repro.serving.store.TrustStore` reads the columns the same
way whether they are held in memory (``kbt query``, which writes no
file) or mapped from a layout (:class:`ServingLayout`, ``kbt serve``).

The read side (:class:`ServingLayout`, :func:`stamped_layout`,
:func:`artifact_etag`, :func:`layout_cache_dir`) imports nothing of the
fit layer, and neither numpy nor hashlib, and writes nothing: :func:`serving_columns` imports numpy and the
score aggregation, and an export from the file the artifact decoder,
when they run — in a writer (``FittedKBT.save``, ``kbt serve`` before
it serves), never in a hot swap.

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
``.npy`` files under any live mapping of them — a reader
would see torn data or die with SIGBUS — so a stale layout is replaced
by exporting to a *new* directory, never by overwriting the old one
(deleting the old directory is safe on POSIX: unlinked inodes survive
until the last mapping goes away).
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from repro import obs
from repro.io.container import MANIFEST, ColumnFormat
from repro.signals.base import SignalScores

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: Format identifier + version written to (and required from) manifests.
LAYOUT_FORMAT = "kbt-serving-layout"
LAYOUT_VERSION = 2


class LayoutError(ValueError):
    """An unreadable, missing, or corrupt serving layout."""


_LAYOUT = ColumnFormat(
    LAYOUT_FORMAT,
    LAYOUT_VERSION,
    "serving-layout",
    LayoutError,
    "re-export the layout from the artifact (delete a torn layout "
    "directory; 'kbt serve ARTIFACT' exports a missing one before it "
    "serves, and FittedKBT.save and export_layout write one)",
)


def artifact_etag(path: str | Path) -> str:
    """The sha256 of the artifact file: the serving-tier version handle.

    Streaming, so multi-GB artifacts hash without being resident; two
    byte-identical artifacts share an ETag, any refit changes it. A
    saved fit is hashed once, by the save (:func:`cache_layout`); its
    opens find the layout by the file's stamp (:func:`stamped_layout`)
    and hash nothing.
    """
    digest = _sha256()
    with obs.span("io.mmap_layout.etag"):
        try:
            with open(path, "rb") as handle:
                for chunk in iter(lambda: handle.read(1 << 20), b""):
                    digest.update(chunk)
        except OSError as err:
            raise LayoutError(f"cannot hash artifact {path}: {err}") from err
    return digest.hexdigest()


def _sha256():
    """A sha256 object: hashlib's (OpenSSL's) in a process that has
    loaded it, as every writer has, and CPython's built-in one
    otherwise. Both give the same digest; the built-in one keeps
    libcrypto out of a gateway that hashes an artifact it then refuses."""
    if "_hashlib" not in sys.modules:
        for builtin in ("_sha2", "_sha256"):  # CPython >= 3.12, <= 3.11
            try:
                return importlib.import_module(builtin).sha256()
            except ImportError:
                pass
    import hashlib

    return hashlib.sha256()


def artifact_stamp(path: str | Path) -> list[int] | None:
    """``[st_dev, st_ino, st_size, st_mtime_ns, st_ctime_ns]`` of the
    artifact file, or ``None`` if it cannot be stat'ed: what a layout's
    manifest records of the bytes it was exported from. Rewriting the
    file, in place or by rename, or touching it, changes the stamp."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]


# ----------------------------------------------------------------------
# String columns: a UTF-8 blob + int64 offsets, both mmappable
# ----------------------------------------------------------------------
def _encode_strings(strings: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """One string column's ``(blob, offsets)`` arrays."""
    import numpy as np

    encoded = [s.encode("utf-8") for s in strings]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    if encoded:
        np.cumsum([len(b) for b in encoded], out=offsets[1:])
    return np.frombuffer(b"".join(encoded), dtype=np.uint8), offsets


class StringColumn:
    """Read side of a string column: rows decode lazily from the blob.

    ``column[i]`` decodes one row (touching only its pages);
    ``decode_all()`` decodes every row in one pass (used to build the
    key -> index lookup at store open).
    """

    def __init__(
        self, blob: memoryview | np.ndarray, offsets: memoryview | np.ndarray
    ) -> None:
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
# Trust signals: four columns each, over one website table
# ----------------------------------------------------------------------
def signal_columns(
    signals: dict[str, SignalScores],
) -> tuple[dict[str, np.ndarray], list[str], list[dict]]:
    """The columns, the website table and the ``{"name", "metadata"}``
    entries the artifact and the layout store for ``signals``. Signal
    ``i`` is ``sig{i}_site`` / ``sig{i}_score`` (its scores) and
    ``sig{i}_sup_site`` / ``sig{i}_sup_val`` (its support): int64 rows
    of the website table, interned signal by signal, scores first, and
    float64 values."""
    import numpy as np

    websites: dict[str, int] = {}

    def intern(sites) -> np.ndarray:
        return np.array(
            [websites.setdefault(site, len(websites)) for site in sites],
            dtype=np.int64,
        )

    def floats(scores: dict) -> np.ndarray:
        return np.array(list(scores.values()), dtype=np.float64)

    arrays: dict[str, np.ndarray] = {}
    for index, signal in enumerate(signals.values()):
        arrays[f"sig{index}_site"] = intern(signal.scores)
        arrays[f"sig{index}_score"] = floats(signal.scores)
        arrays[f"sig{index}_sup_site"] = intern(signal.support)
        arrays[f"sig{index}_sup_val"] = floats(signal.support)
    entries = [{"name": n, "metadata": s.metadata} for n, s in signals.items()]
    return arrays, list(websites), entries


def signal_scores(
    entries: list[dict], websites: list[str], section
) -> dict[str, SignalScores]:
    """The signals :func:`signal_columns` stored. ``section(label,
    **sizes)`` reads a pair of columns by name, ``sizes`` giving the
    row column the website table's size and the value column None;
    ``label`` names the pair in its errors."""
    signals = {}
    for index, entry in enumerate(entries):
        name, maps = entry["name"], {}
        for part, site, data in (
            ("scores", "site", "score"), ("support", "sup_site", "sup_val")
        ):
            site, data = f"sig{index}_{site}", f"sig{index}_{data}"
            pair = section(
                f"signal {name!r} {part}", **{site: len(websites), data: None}
            )
            sites = map(websites.__getitem__, pair[site].tolist())
            maps[part] = dict(zip(sites, pair[data].tolist()))
        signals[name] = SignalScores(
            name=name, **maps, metadata=entry.get("metadata", {})
        )
    return signals


# ----------------------------------------------------------------------
# The aggregation: fitted state -> what serving reads
# ----------------------------------------------------------------------
class ServingColumns:
    """Every column a store serves, held in memory as a layout stores it.

    ``arrays`` maps a column name to its float64 / int64 array (a string
    column is two arrays, ``<name>.blob`` and ``<name>.off``), and
    ``manifest`` holds the scalars a layout's manifest carries beside
    them. :class:`ServingLayout` is the same columns mapped from an
    exported directory; a store reads either through :meth:`array` and
    :meth:`strings`.

    Site rows are in aggregation (first-seen) order; ``ranked_idx`` is
    the best-first permutation of them; ``contrib_ptr`` is the CSR row
    pointer of the ``/breakdown`` contributors over the site rows.
    """

    #: Where the columns are mapped from; ``None`` in memory.
    directory: Path | None = None

    def __init__(self, arrays: dict[str, np.ndarray], manifest: dict) -> None:
        self.arrays = arrays
        self.manifest = manifest

    @property
    def etag(self) -> str | None:
        """The source artifact's sha256; ``None`` in memory, where no
        file names the columns."""
        return self.manifest.get("etag")

    def array(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def strings(self, name: str) -> StringColumn:
        return StringColumn(
            self.array(f"{name}.blob"), self.array(f"{name}.off")
        )


class ScoredSources(NamedTuple):
    """What the aggregation reads of a result: the source table, the
    accuracy section (``acc_source`` ids, ``acc_value``) and the C
    layer's ``coord_source`` / ``coord_p``, whose sums by source are the
    support. A :class:`~repro.core.results.ResultColumns` has the same
    fields; :func:`repro.io.artifact.load_serving_inputs` decodes just
    these."""

    sources: list
    acc_source: np.ndarray
    acc_value: np.ndarray
    coord_source: np.ndarray
    coord_p: np.ndarray


def serving_columns(
    result: ScoredSources,
    min_triples: float,
    signals: dict[str, SignalScores],
    fusion_weights: dict[str, float],
) -> ServingColumns:
    """Aggregate fitted source accuracies into the serving columns.

    ``result`` is the result's columns (a ``ResultColumns`` or a
    :class:`ScoredSources`). Per-website and per-webpage scores are
    :func:`repro.core.kbt.aggregate_scores`' (what ``KBTReport``
    reports, to the bit); the ranking is descending score, ties on the
    key text; percentiles are the share of sites scoring at or below;
    and every website lists the model sources behind its score, largest
    support first (ties in accuracy-row order), each with its metadata
    rendered as one JSON row. Signals are stored as the artifact holds
    them, in its order, with their websites interned.
    """
    # numpy and the fit layer are imported here, on the write path, so
    # a process that only maps a layout never loads them.
    import numpy as np

    from repro.core.kbt import aggregate_scores, key_text

    with obs.span("io.mmap_layout.serving_columns"):
        scores = aggregate_scores(result, min_triples)
        sites, pages = scores.websites, scores.webpages
        site_score = sites.score
        n_sites = len(sites.keys)
        score = site_score.tolist()
        order = sorted(
            range(n_sites),
            key=lambda row: (-score[row], key_text(sites.keys[row])),
        )
        # /breakdown provenance, CSR over the site rows: each reported
        # site's live sources, largest support first.
        site_row = scores.site_row
        live = np.flatnonzero(site_row >= 0)
        live = live[np.lexsort((-scores.support[live], site_row[live]))]
        contrib_ptr = np.zeros(n_sites + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(site_row[live], minlength=n_sites),
            out=contrib_ptr[1:],
        )
        render = json.JSONEncoder(
            ensure_ascii=False, separators=(",", ":")
        ).encode
        sources = scores.sources
        contrib_meta = [
            render([str(source), list(source.features), source.level])
            for source in map(sources.__getitem__, live.tolist())
        ]

        arrays: dict[str, np.ndarray] = {}

        def put_strings(name: str, strings: list[str]) -> None:
            arrays[f"{name}.blob"], arrays[f"{name}.off"] = _encode_strings(
                strings
            )

        put_strings("site_key", sites.keys)
        arrays["site_score"] = site_score
        arrays["site_support"] = sites.support
        arrays["site_percentile"] = (
            100.0
            * np.searchsorted(np.sort(site_score), site_score, side="right")
            / max(n_sites, 1)
        )
        arrays["ranked_idx"] = np.array(order, dtype=np.int64)

        put_strings("page_site", [site for site, _ in pages.keys])
        put_strings("page_url", [url for _, url in pages.keys])
        arrays["page_score"] = pages.score
        arrays["page_support"] = pages.support

        arrays["contrib_ptr"] = contrib_ptr
        arrays["contrib_accuracy"] = scores.accuracy[live]
        arrays["contrib_support"] = scores.support[live]
        put_strings("contrib_meta", contrib_meta)

        signal_arrays, websites, signal_entries = signal_columns(signals)
        arrays |= signal_arrays
        put_strings("signal_site", websites)

    return ServingColumns(
        arrays,
        {
            "min_triples": min_triples,
            "num_sites": n_sites,
            "num_pages": len(pages.keys),
            "num_contributors": len(contrib_meta),
            "signals": signal_entries,
            "fusion_weights": {
                name: float(weight) for name, weight in fusion_weights.items()
            },
        },
    )


# ----------------------------------------------------------------------
# Export: columns -> layout directory
# ----------------------------------------------------------------------
_CACHE_SUFFIX = ".layout"
#: How much of the ETag names a cache directory.
_ETAG_PREFIX = 16


def layout_cache_dir(artifact_path: str | Path, etag: str) -> Path:
    """Where the layout of ``artifact_path``'s bytes ``etag`` is cached.

    ``MmapTrustStore.open(artifact)`` maps what it finds here and
    exports nothing, so :func:`cache_layout` writes it:
    ``FittedKBT.save`` right after writing the artifact, and ``kbt
    serve`` for an artifact that arrived without its layout.
    """
    return Path(f"{artifact_path}{_CACHE_SUFFIX}-{etag[:_ETAG_PREFIX]}")


def stamped_layout(artifact_path: str | Path) -> ServingLayout | None:
    """The cached layout of ``artifact_path`` whose manifest records the
    file's current :func:`artifact_stamp`, or ``None``; no byte of the
    artifact is read.

    A recorded stamp counts only if the manifest was last modified
    after the change the stamp records (the file system's clock on
    both sides, as git's racy-index rule has it): a file rewritten
    within one timestamp tick of that change keeps its stamp, and
    must not be served from it. A stamp that matches no manifest —
    the file was copied, touched or rewritten, or its layout predates
    stamps — is the caller's cue to hash.
    """
    artifact_path = Path(artifact_path)
    stamp = artifact_stamp(artifact_path)
    if stamp is None:
        return None
    for directory in cached_layout_dirs(artifact_path):
        try:
            written = os.stat(directory / MANIFEST).st_mtime_ns
            layout = ServingLayout(directory)
        except (OSError, LayoutError):
            continue
        etag = layout.etag
        if (
            layout.manifest.get("stamp") == stamp
            and stamp[4] < written
            and isinstance(etag, str)
            and directory.name == layout_cache_dir(artifact_path, etag).name
        ):
            return layout
    return None


#: How long a writer waits for the file system's clock to pass the
#: artifact's last change, so that the stamp it records counts.
_SETTLE_S = 0.1


def _settle(manifest: Path, changed_ns: int) -> None:
    """Best effort: make ``manifest``'s mtime later than ``changed_ns``
    (the recorded stamp's ctime), touching it as the clock moves on.
    Past :data:`_SETTLE_S` the stamp is left as it is; it does not
    count, and opens of the artifact hash it."""
    deadline = time.monotonic() + _SETTLE_S
    try:
        while os.stat(manifest).st_mtime_ns <= changed_ns:
            if time.monotonic() > deadline:
                return
            time.sleep(0.001)
            os.utime(manifest)
    except OSError:
        pass


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
    artifact_path = Path(artifact_path)
    legacy = artifact_path.name + _CACHE_SUFFIX
    found = []
    try:
        with os.scandir(artifact_path.parent) as entries:
            for entry in entries:
                if not (_is_cache_name(entry.name, legacy) and entry.is_dir()):
                    continue
                candidate = artifact_path.parent / entry.name
                if keep is not None and (
                    candidate == keep
                    or entry.name.startswith(_staging_prefix(keep))
                ):
                    continue
                found.append(candidate)
    except OSError:
        pass  # no parent directory, or none we may list: nothing cached
    return found


def _is_cache_name(name: str, legacy: str) -> bool:
    """Whether ``name`` is an export of the cache named ``legacy`` —
    that name or ``<legacy>-<ETag prefix>`` — or the staging directory
    ``.<export>.tmp-*`` of one. Plain string comparisons: a "[", "*" or
    "?" in the artifact's name is no pattern, and a longer name that
    merely starts with these, such as the cache of an artifact named
    ``<artifact>.layout-x.kbt``, is not this cache's."""
    keyed = 1 + _ETAG_PREFIX  # "-" and the ETag prefix
    if name.startswith(legacy):
        rest = name[len(legacy):]
        if rest == "" or (rest.startswith("-") and len(rest) == keyed):
            return True
    if name.startswith(f".{legacy}"):
        rest = name[1 + len(legacy):]
        if rest.startswith("-"):
            rest = rest[keyed:]
        return rest.startswith(".tmp-")
    return False


def _reusable_manifest(directory: Path, etag: str) -> Path | None:
    """The manifest path if ``directory`` already holds this exact export."""
    try:
        layout = ServingLayout(directory)
    except LayoutError:
        return None
    if layout.etag != etag:
        return None
    return directory / MANIFEST


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

    Without ``etag``, the file is stamped (:func:`artifact_stamp`) and
    then hashed, and the manifest records both.
    """
    return _export(Path(artifact_path), Path(directory), etag)


def cache_layout(
    artifact_path: str | Path, columns: ServingColumns | None = None
) -> tuple[Path, bool]:
    """Make the layout cache of ``artifact_path`` hold its current
    bytes; returns the cache directory and whether this call exported.

    A layout whose manifest records the file's stamp
    (:func:`stamped_layout`) is reused without reading the file. Failing
    that, the file is hashed, and the directory of its ETag
    (:func:`layout_cache_dir`) is reused when its manifest speaks for
    these bytes. Otherwise :func:`export_layout`'s writer exports into
    it, from ``columns`` (``FittedKBT.save``, which holds the model) or
    from the file (``kbt serve`` of an artifact that arrived without its
    layout, before it starts serving), with the stamp taken before the
    hash in its manifest, and every other cache generation is swept. A
    reused directory keeps the stamp it was exported with. The read
    side never calls this: ``MmapTrustStore.open`` maps the cache or
    refuses.
    """
    artifact_path = Path(artifact_path)
    stamped = stamped_layout(artifact_path)
    if stamped is not None:
        return stamped.directory, False
    # Stamped before the hash: a change after it changes the stamp, so
    # the stamp never names bytes newer than the ETag's.
    stamp = artifact_stamp(artifact_path)
    etag = artifact_etag(artifact_path)
    directory = layout_cache_dir(artifact_path, etag)
    if _reusable_manifest(directory, etag) is not None:
        return directory, False
    # The ETag-keyed name is ours; not holding these bytes, it is torn or
    # planted, and no store maps it as theirs: clearing it is safe.
    shutil.rmtree(directory, ignore_errors=True)
    manifest = _export(artifact_path, directory, etag, columns, stamp)
    if stamp is not None:
        _settle(manifest, stamp[4])
    # Best-effort: on POSIX, unlinking files a live store still has
    # mmapped is safe (the inodes outlive the directory entries); where
    # unlink fails, the stale directory stays.
    for stale in cached_layout_dirs(artifact_path, keep=directory):
        shutil.rmtree(stale, ignore_errors=True)
    return directory, True


def _export(
    artifact_path: Path,
    directory: Path,
    etag: str | None,
    columns: ServingColumns | None = None,
    stamp: list[int] | None = None,
) -> Path:
    if etag is None:
        stamp = artifact_stamp(artifact_path)
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
            from repro.io.artifact import load_serving_inputs

            columns = serving_columns(*load_serving_inputs(artifact_path))
        with obs.span("io.mmap_layout.write"):
            _LAYOUT.write(
                staging,
                columns.arrays,
                {"etag": etag, "artifact": str(artifact_path)}
                | ({"stamp": stamp} if stamp is not None else {})
                | columns.manifest,
            )
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
    return directory / MANIFEST


# ----------------------------------------------------------------------
# Read side
# ----------------------------------------------------------------------
class ServingLayout(ServingColumns):
    """The serving columns mapped from an exported layout directory.

    The manifest is read at open; ``array(name)`` returns a read-only
    typed ``memoryview`` over the ``mmap`` of one column (float64 ``d``,
    int64 ``q`` or byte ``B``), ``strings(name)`` a lazily-decoding
    :class:`StringColumn` over two of them. A store reads both kinds of
    column, these and the in-memory arrays, by index, slice, ``len``,
    ``tolist()`` and ``tobytes()`` only. Both raise :class:`LayoutError`
    with the regenerate remedy when a file is missing or torn, or the
    manifest records a dtype no view maps (such as a foreign byte
    order).
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.manifest = _LAYOUT.read_manifest(self.directory)

    def array(self, name: str) -> memoryview:
        # One mmap and a typed memoryview, at the dtype, shape and offset
        # the manifest recorded: no .npy header is parsed, no numpy is
        # imported. The view keeps the map alive.
        column = self.manifest.get("columns", {}).get(name)
        if column is None:
            raise LayoutError(
                f"serving-layout column {name!r} is not in the manifest "
                f"of {self.directory}; {_LAYOUT.remedy}"
            )
        return _LAYOUT.map(self.directory, name, column)


__all__ = [
    "LAYOUT_FORMAT",
    "LAYOUT_VERSION",
    "LayoutError",
    "ScoredSources",
    "ServingColumns",
    "ServingLayout",
    "StringColumn",
    "artifact_etag",
    "artifact_stamp",
    "cache_layout",
    "cached_layout_dirs",
    "export_layout",
    "layout_cache_dir",
    "serving_columns",
    "signal_columns",
    "signal_scores",
    "stamped_layout",
]
