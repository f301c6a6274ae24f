"""Out-of-core shard streaming: spill packets to disk, map them back.

The paper's production run covers 2.8B triples from 2B+ web pages (Table
7) — far beyond what a resident :class:`~repro.exec.plan.ShardPlan` can
hold — and its MapReduce design exists precisely so that no worker ever
materializes the full corpus. This module is the single-machine
equivalent of that property:

* :func:`persist_plan` writes every shard packet of a plan as raw
  ``.npy`` files (one per packet array) plus a JSON manifest describing
  the plan dimensions, the Table 7 stage statistics, and each packet's
  layout;
* :class:`OutOfCoreShardSource` reopens a spill directory and serves
  :class:`~repro.exec.plan.Shard` packets whose arrays are **memory-
  mapped views** of those files — the kernel pages packet data in on
  access and may evict it under pressure, and the source additionally
  caps how many packets stay materialized at once
  (``max_resident_shards``, LRU) and releases evicted packets' pages
  eagerly (``madvise(MADV_DONTNEED)``);
* :func:`spill_problem_arrays` does the same for the *global* compiled
  arrays the per-iteration reduce scans (claim/entry/coordinate index
  arrays), so the driver holds memory-mapped views instead of resident
  copies, and :func:`release_problem_pages` drops their pages after each
  reduce.

Together these shrink the fit's anonymous working set to (one shard
packet + the global parameter and posterior vectors): what stays
resident scales with the number of coordinates and triples, while the
much larger extraction/claim array mass — everything that scales with
records per coordinate — lives in evictable file-backed pages. (For
corpora whose per-coordinate vectors alone exceed RAM, spilling the
driver's global vectors too is a ROADMAP follow-up.) Determinism is
untouched: a memory-mapped view holds bit-identical float64/int64
values, every segment operation runs over the same elements in the same
order, so out-of-core fits are **bit-identical** to the resident numpy
engine for every backend and shard count (the PR 4 parity guarantee,
re-asserted by ``tests/test_outofcore.py``).

Failure handling: a missing, foreign, or corrupt spill directory raises
:class:`SpillError` (a ``ValueError``, so the CLI reports it as a clear
one-line error) naming the path and the remedy — re-running ``fit`` with
``--spill-dir`` always regenerates the directory from scratch.
"""

from __future__ import annotations

import json
import threading
import warnings
from collections import OrderedDict
from dataclasses import fields as dataclass_fields
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.indexing import CompiledProblem
from repro.exec.plan import Shard, ShardPlan, StageStats
from repro.io.atomic import atomic_write

#: Format identifier + version written to (and required from) manifests.
SPILL_FORMAT = "kbt-shard-spill"
SPILL_VERSION = 1

_MANIFEST = "manifest.json"
_GLOBALS_DIR = "globals"

#: The Shard fields holding numpy arrays (spilled one file each).
_SHARD_ARRAY_FIELDS = tuple(
    f.name
    for f in dataclass_fields(Shard)
    if f.name not in ("index", "triple_lo", "triple_hi")
)

#: The CompiledProblem fields holding numpy arrays: everything the
#: per-iteration driver reduce scans. Python-object tables (key lists,
#: estimable sets) stay resident — they are interned identifiers, the
#: same trade the paper's MR jobs make by shipping hashed keys.
_PROBLEM_ARRAY_FIELDS = (
    "coord_source",
    "coord_triple",
    "coord_item",
    "entry_coord",
    "entry_col",
    "entry_conf",
    "claim_coord",
    "claim_triple",
    "triple_item",
    "item_ptr",
    "item_num_values",
    "active_src",
    "active_col",
    "triple_popularity",
)


class SpillError(ValueError):
    """An unreadable, missing, or corrupt spill directory."""


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def persist_plan(plan: ShardPlan, directory: str | Path) -> Path:
    """Write ``plan``'s packets under ``directory``; returns the manifest.

    Layout: ``shard0000/<array>.npy`` per packet plus ``manifest.json``.
    The manifest is written *last*, so an interrupted spill is detected
    as "no manifest" instead of being half-read; re-running a fit with
    the same ``spill_dir`` overwrites the directory deterministically.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest_path = directory / _MANIFEST
    # A stale manifest must not survive a partial rewrite.
    manifest_path.unlink(missing_ok=True)

    shard_entries = []
    for shard in plan.shards:
        shard_dir = directory / f"shard{shard.index:04d}"
        shard_dir.mkdir(exist_ok=True)
        arrays = {}
        for name in _SHARD_ARRAY_FIELDS:
            value = getattr(shard, name)
            if value is None:
                continue
            np.save(shard_dir / f"{name}.npy", np.ascontiguousarray(value))
            arrays[name] = [str(value.dtype), int(value.shape[0])]
        shard_entries.append(
            {
                "index": shard.index,
                "triple_lo": shard.triple_lo,
                "triple_hi": shard.triple_hi,
                "arrays": arrays,
            }
        )

    manifest = {
        "format": SPILL_FORMAT,
        "version": SPILL_VERSION,
        "num_shards": plan.num_shards,
        "num_coords": plan.num_coords,
        "num_triples": plan.num_triples,
        "num_items": plan.num_items,
        "num_sources": plan.num_sources,
        "num_cols": plan.num_cols,
        "stage_stats": {
            job: {
                "num_mapped": stats.num_mapped,
                "group_sizes": list(stats.group_sizes),
            }
            for job, stats in plan.stage_stats.items()
        },
        "shards": shard_entries,
    }
    with atomic_write(manifest_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(manifest, indent=1) + "\n")
    return manifest_path


def spill_problem_arrays(
    prob: CompiledProblem, directory: str | Path
) -> CompiledProblem:
    """Spill the compiled global arrays and return a memory-mapped view.

    Writes every array field of ``prob`` under ``directory/globals/``
    and returns a new :class:`CompiledProblem` whose array fields are
    read-only ``np.memmap`` views of those files (value-identical, so
    the reduce stays bit-identical); the resident arrays become garbage
    once the caller drops its reference to ``prob``.
    """
    globals_dir = Path(directory) / _GLOBALS_DIR
    globals_dir.mkdir(parents=True, exist_ok=True)
    replacements = {}
    for name in _PROBLEM_ARRAY_FIELDS:
        value = getattr(prob, name)
        if value is None:
            continue
        path = globals_dir / f"{name}.npy"
        np.save(path, np.ascontiguousarray(value))
        replacements[name] = _load_mapped(path)
    return replace(prob, **replacements)


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def _load_mapped(path: Path) -> np.ndarray:
    """``np.load(mmap_mode="r")`` with a :class:`SpillError` translation."""
    try:
        return np.load(path, mmap_mode="r")
    except (OSError, ValueError) as err:
        raise SpillError(
            f"cannot map spilled array {path}: {err}; the spill "
            "directory is incomplete or corrupt — re-run the fit with "
            "--spill-dir (or ShardPlan.persist) to regenerate it"
        ) from err


#: Paths whose madvise failure has already been reported this process.
#: ``advise_dontneed`` runs per-eviction / per-chunk inside tight loops,
#: so an environment where madvise always fails (some containers,
#: filesystems without page-cache control) would otherwise emit one
#: RuntimeWarning per eviction — thousands per fit. One warning per
#: mapped file per process carries the same information.
_madvise_warned_paths: set[str] = set()
_madvise_warn_lock = threading.Lock()


def _reset_madvise_warning_cache() -> None:
    """Forget which paths already warned (test hook)."""
    with _madvise_warn_lock:
        _madvise_warned_paths.clear()


def _warn_madvise_failure(array: np.ndarray, err: Exception) -> None:
    """Emit the madvise-failure warning, at most once per path."""
    path = str(getattr(array, "filename", None) or "<anonymous mapping>")
    with _madvise_warn_lock:
        if path in _madvise_warned_paths:
            return
        _madvise_warned_paths.add(path)
    errno = getattr(err, "errno", None)
    warnings.warn(
        f"madvise(MADV_DONTNEED) failed for {path}"
        f" (errno={errno}): {err}; mapped pages will stay "
        "resident until the kernel evicts them (reported once per "
        "mapped file per process)",
        RuntimeWarning,
        stacklevel=3,
    )


def advise_dontneed(*arrays: np.ndarray | None) -> None:
    """Best-effort eager page release for memory-mapped arrays.

    Tells the kernel the mapped pages will not be needed again soon
    (``MADV_DONTNEED``), dropping them from the resident set immediately
    instead of waiting for memory pressure. A no-op for resident arrays
    and on platforms without ``madvise``; correctness never depends on
    it — evicted pages simply fault back in from the file. A *failing*
    ``madvise`` is still worth hearing about, though: it means the eager
    release the out-of-core mode promises is silently not happening, so
    the resident set will grow — it surfaces as a ``RuntimeWarning``
    naming the mapped file and errno rather than an exception, emitted
    at most once per mapped file per process so per-eviction call sites
    do not flood the log.
    """
    import mmap as _mmap

    if not hasattr(_mmap, "MADV_DONTNEED"):  # pragma: no cover - platform
        return
    for array in arrays:
        mapping = getattr(array, "_mmap", None)
        if mapping is None:
            continue
        try:
            mapping.madvise(_mmap.MADV_DONTNEED)
        except (ValueError, OSError) as err:
            _warn_madvise_failure(array, err)


def advise_dontneed_window(array: np.ndarray, lo: int, hi: int) -> None:
    """Release the pages backing elements ``[lo, hi)`` of a mapped array.

    The per-chunk counterpart of :func:`advise_dontneed`: after the
    streamed reduce consumes a window of a spilled global array, its
    pages are dropped immediately, bounding the file-backed resident
    set to roughly one chunk per array instead of one full scan. The
    start byte is aligned *down* to a page boundary — safe because
    windows are consumed in ascending order, so the shared boundary page
    belongs to an already-consumed chunk — and the end is clamped to the
    mapping. No-op for resident arrays; failures warn through the same
    once-per-path limiter as :func:`advise_dontneed`.
    """
    import mmap as _mmap

    if not hasattr(_mmap, "MADV_DONTNEED"):  # pragma: no cover - platform
        return
    mapping = getattr(array, "_mmap", None)
    if mapping is None or hi <= lo:
        return
    # np.memmap maps the file from the allocation-granularity floor of
    # its byte offset; the array data starts at the remainder.
    data_start = int(getattr(array, "offset", 0)) % _mmap.ALLOCATIONGRANULARITY
    start = data_start + lo * array.itemsize
    end = min(data_start + hi * array.itemsize, len(mapping))
    start -= start % _mmap.PAGESIZE
    if end <= start:
        return
    try:
        mapping.madvise(_mmap.MADV_DONTNEED, start, end - start)
    except (ValueError, OSError) as err:
        _warn_madvise_failure(array, err)


def release_problem_pages(prob: CompiledProblem) -> None:
    """Drop the resident pages of a memory-mapped problem's arrays.

    Called by the out-of-core driver after each iteration's reduce: the
    reduce scans the global claim/entry arrays once per iteration, and
    without an eager release those file-backed pages would accumulate in
    the resident set until memory pressure evicts them.
    """
    advise_dontneed(
        *(getattr(prob, name) for name in _PROBLEM_ARRAY_FIELDS)
    )


class OutOfCoreShardSource:
    """Serve spilled shard packets as memory-mapped views, LRU-capped.

    The out-of-core implementation of the packet-source contract the
    execution backends consume (``num_shards`` + plan dimensions +
    ``get_shard``): packets come back as :class:`~repro.exec.plan.Shard`
    objects whose arrays are read-only ``np.memmap`` views of the spill
    directory, so materializing a packet costs page-table setup, not a
    copy, and the kernel reclaims packet pages under pressure.

    ``max_resident_shards`` caps how many packets the source keeps
    materialized (default: all of them); evicting a packet eagerly
    releases its pages (:func:`advise_dontneed`). Eviction is safe under
    concurrency: an evicted packet still held by a running thread stays
    valid (its mapping lives until the last reference dies), its pages
    simply fault back in on access.

    Instances are picklable (the caches are dropped, only the directory
    path and cap travel), which is how the ``processes`` backend ships a
    worker its packet subset: the worker re-opens the source and maps
    the files directly instead of receiving copies — no packet bytes
    cross the process boundary.
    """

    def __init__(
        self,
        directory: str | Path,
        max_resident_shards: int | None = None,
    ) -> None:
        if max_resident_shards is not None and max_resident_shards < 1:
            raise SpillError(
                f"max_resident_shards must be >= 1, got "
                f"{max_resident_shards}"
            )
        self._directory = Path(directory)
        self._max_resident = max_resident_shards
        self._lock = threading.Lock()
        self._cache: OrderedDict[int, Shard] = OrderedDict()
        manifest = self._read_manifest()
        self.num_shards: int = manifest["num_shards"]
        self.num_coords: int = manifest["num_coords"]
        self.num_triples: int = manifest["num_triples"]
        self.num_items: int = manifest["num_items"]
        self.num_sources: int = manifest["num_sources"]
        self.num_cols: int = manifest["num_cols"]
        self.stage_stats: dict[str, StageStats] = {
            job: StageStats(
                num_mapped=entry["num_mapped"],
                group_sizes=tuple(entry["group_sizes"]),
            )
            for job, entry in manifest["stage_stats"].items()
        }
        self._shard_meta = {
            entry["index"]: entry for entry in manifest["shards"]
        }

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def max_resident_shards(self) -> int | None:
        return self._max_resident

    def _read_manifest(self) -> dict:
        manifest_path = self._directory / _MANIFEST
        if not manifest_path.is_file():
            raise SpillError(
                f"no shard spill manifest at {manifest_path}: the spill "
                "directory was deleted, never written, or a spill was "
                "interrupted — re-run the fit with --spill-dir (or "
                "ShardPlan.persist) to regenerate it"
            )
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as err:
            raise SpillError(
                f"unreadable shard spill manifest {manifest_path}: {err}; "
                "re-run the fit with --spill-dir to regenerate it"
            ) from err
        if manifest.get("format") != SPILL_FORMAT:
            raise SpillError(
                f"{manifest_path} is not a shard spill manifest "
                f"(format={manifest.get('format')!r})"
            )
        if manifest.get("version") != SPILL_VERSION:
            raise SpillError(
                f"unsupported shard spill version "
                f"{manifest.get('version')!r} in {manifest_path}; this "
                f"build reads version {SPILL_VERSION} — re-run the fit "
                "with --spill-dir to regenerate it"
            )
        return manifest

    # ------------------------------------------------------------------
    # The packet-source contract
    # ------------------------------------------------------------------
    def get_shard(self, index: int) -> Shard:
        """Materialize (or return the cached) packet ``index``."""
        with self._lock:
            cached = self._cache.get(index)
            if cached is not None:
                self._cache.move_to_end(index)
                return cached
        shard = self._load_shard(index)
        with self._lock:
            self._cache[index] = shard
            self._cache.move_to_end(index)
            if self._max_resident is not None:
                while len(self._cache) > self._max_resident:
                    _, evicted = self._cache.popitem(last=False)
                    advise_dontneed(
                        *(
                            getattr(evicted, name)
                            for name in _SHARD_ARRAY_FIELDS
                        )
                    )
        return shard

    def worker_payload(self, indices: tuple[int, ...]) -> tuple:
        """A picklable recipe for a process-backend worker's shards.

        Out-of-core sources ship only the directory path: the worker
        re-opens the spill and maps the packet files directly, so no
        packet arrays are pickled or copied into shared memory.
        """
        return (
            "spill",
            str(self._directory),
            tuple(indices),
            self._max_resident,
        )

    def _load_shard(self, index: int) -> Shard:
        meta = self._shard_meta.get(index)
        if meta is None:
            raise SpillError(
                f"shard {index} is not in the spill manifest at "
                f"{self._directory} (it lists shards "
                f"0..{self.num_shards - 1})"
            )
        shard_dir = self._directory / f"shard{index:04d}"
        kwargs: dict = {
            "index": index,
            "triple_lo": meta["triple_lo"],
            "triple_hi": meta["triple_hi"],
        }
        for name in _SHARD_ARRAY_FIELDS:
            if name not in meta["arrays"]:
                kwargs[name] = None
                continue
            path = shard_dir / f"{name}.npy"
            if not path.is_file():
                raise SpillError(
                    f"spilled shard array {path} is missing; the spill "
                    "directory is incomplete or corrupt — re-run the fit "
                    "with --spill-dir to regenerate it"
                )
            kwargs[name] = _load_mapped(path)
        return Shard(**kwargs)

    # ------------------------------------------------------------------
    # Pickling (the processes backend ships sources by path)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {
            "directory": str(self._directory),
            "max_resident_shards": self._max_resident,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(
            state["directory"],
            max_resident_shards=state["max_resident_shards"],
        )


__all__ = [
    "OutOfCoreShardSource",
    "SpillError",
    "advise_dontneed",
    "advise_dontneed_window",
    "persist_plan",
    "release_problem_pages",
    "spill_problem_arrays",
]
