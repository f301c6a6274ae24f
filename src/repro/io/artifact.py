"""Versioned on-disk trust artifacts: the *persist* stage of the lifecycle.

A trust artifact is one zip file holding everything a fitted KBT model
needs to be served or warm-started later. Format 4, what
:func:`save_artifact` writes, is a header and flat columns:

* ``header.json`` — format name + ``FORMAT_VERSION``, the serialised
  :class:`~repro.core.config.MultiLayerConfig` (and granularity config),
  the reporting threshold, the seed, metadata, the value table (JSON
  scalars), the convergence history, the triple count, the website
  table and the descriptors of the embedded trust signals, and their
  fusion weights. No key table: those are columns.
* one ``<name>.npy`` member per column. The key tables: one string
  pool (``pool.blob`` + ``pool.off``, the serving layout's string
  encoding) holding each distinct feature, subject and predicate once,
  in first-seen order; ``src_feat`` (n x 3) and ``ext_feat`` (n x 4),
  pool ids with 0 for an absent feature; ``src_bucket`` /
  ``ext_bucket`` (bucket + 1, 0 for none) only where a key carries a
  split bucket; ``item_subj`` / ``item_pred``. Then the numeric state
  of the fitted :class:`~repro.core.results.MultiLayerResult` — the
  re-estimated priors as ``prior_row``, the C-layer rows they sit on,
  and ``prior_p`` — the observation cells when embedded, and the
  per-website arrays of every trust signal (:mod:`repro.signals`).
  Floats are ``float64``; id and count columns are at the narrowest
  unsigned dtype that holds them. ``obs_conf``, ``coord_p`` and
  ``vp_p`` are STORED: level-1 deflate leaves them at 88-94 % of their
  size for most of the write's deflate time. Every other member is
  deflated at level 1. The choice is by name, so the bytes stay a pure
  function of the fit.

Versions 1-3 hold their key tables as JSON in the header and their
arrays in one ``payload.npz`` member (or ``payload.json``, the same
arrays as plain lists). They load by upgrading those members to format
4's (:func:`_upgrade`), so the decoders read format 4 only.

Floats survive the columns bit-for-bit and every dict is rebuilt in its
original insertion order, so re-aggregating scores from a loaded
artifact reproduces the original ``website_scores()`` to the last bit.
An embedded observation matrix reloads with its own extractor order
too, so refitting it reproduces the original fit's bytes.

Artifacts written by a newer ``FORMAT_VERSION`` are rejected with a clear
:class:`ArtifactError` instead of being misread. Older supported versions
load transparently: a version-1 artifact (pre trust-signal era) loads
with an empty signal set, and version-1 / -2 observation matrices rank
their extractors by first cell entry (they never stored the order).

Values are restricted to the JSON scalar types (str / int / float / bool /
None) — exactly what :mod:`repro.io.jsonl` can produce. Composite values
raise :class:`ArtifactError` at save time, as does a write the file
system refuses (a missing directory, a full disk): the target keeps its
previous bytes.
"""

from __future__ import annotations

import dataclasses
import io
import json
import zipfile
import zlib
from collections import ChainMap
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Any

import numpy as np

from repro import obs
from repro.io.atomic import atomic_write
from repro.io.jsonl import SCALAR_TYPES
from repro.io.mmap_layout import (
    ScoredSources,
    StringColumn,
    _encode_strings,
    signal_columns,
    signal_scores,
)

from repro.core.config import (
    AbsenceScope,
    ConvergenceConfig,
    FalseValueModel,
    GranularityConfig,
    MultiLayerConfig,
)
from repro.core.kbt import check_min_triples
from repro.core.observation import ObservationMatrix
from repro.core.results import (
    IterationSnapshot,
    MultiLayerResult,
    ResultColumns,
    first_seen_keys,
    id_mask,
    join_keys,
)
from repro.core.types import DataItem, ExtractorKey, SourceKey
from repro.signals.base import SignalScores
from repro.util.heap import paused_gc

#: Format identifier stored in (and required from) every artifact header.
FORMAT_NAME = "kbt-trust-artifact"

#: Bump on any incompatible change to the header or the members.
#: Version history: 1 = KBT-only artifacts; 2 = adds embedded trust
#: signals (per-website score/support arrays + fusion weights); 3 =
#: integer columns at their narrowest dtype, observations one row per
#: cell plus the matrix's extractor order, members deflated at level 1;
#: 4 = one member per column, the key tables as pool-id columns, the
#: priors as C-layer rows, three float columns STORED.
FORMAT_VERSION = 4

#: Versions this build can read (a tuple: an unhashable header value is
#: not in it, where a set would raise ``TypeError``).
SUPPORTED_VERSIONS = (1, 2, 3, FORMAT_VERSION)

_HEADER_MEMBER = "header.json"
#: How versions 1-3 decode their one array member, ``payload.<kind>``.
_PAYLOADS = {
    "npz": lambda raw: np.load(io.BytesIO(raw)),
    "json": json.loads,
}

#: The float columns written STORED: deflate barely shrinks them.
_STORED = frozenset({"obs_conf", "coord_p", "vp_p"})


class ArtifactError(ValueError):
    """Raised for unreadable, unsupported, or unserialisable artifacts."""


@dataclass(frozen=True)
class TrustArtifact:
    """A fitted model plus everything needed to serve or warm-start it.

    ``observations`` is optional: serving only needs the result, but
    warm-start updates (``FittedKBT.update``) need the original extraction
    cells, so ``save_artifact`` embeds them unless asked not to.

    ``signals`` holds named trust-signal payloads
    (:class:`~repro.signals.base.SignalScores`) alongside the KBT scores,
    and ``fusion_weights`` the per-signal weights of the fused trust
    score; both are empty on artifacts fitted without signals and on
    loaded version-1 artifacts.
    """

    result: MultiLayerResult
    config: MultiLayerConfig
    min_triples: float
    granularity: GranularityConfig | None = None
    seed: int = 0
    observations: ObservationMatrix | None = None
    metadata: dict[str, Any] = field(default_factory=dict)
    signals: dict[str, SignalScores] = field(default_factory=dict)
    fusion_weights: dict[str, float] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Config (de)serialisation
# ----------------------------------------------------------------------
def config_to_dict(config: MultiLayerConfig) -> dict:
    """JSON-safe form of a MultiLayerConfig (enums by value)."""
    out: dict[str, Any] = {}
    for f in dataclasses.fields(MultiLayerConfig):
        value = getattr(config, f.name)
        if isinstance(value, (AbsenceScope, FalseValueModel)):
            value = value.value
        elif isinstance(value, ConvergenceConfig):
            value = {
                "max_iterations": value.max_iterations,
                "tolerance": value.tolerance,
            }
        out[f.name] = value
    return out


def config_from_dict(data: dict) -> MultiLayerConfig:
    """Inverse of :func:`config_to_dict`; unknown keys are rejected."""
    known = {f.name for f in dataclasses.fields(MultiLayerConfig)}
    unknown = set(data) - known
    if unknown:
        raise ArtifactError(
            f"unknown MultiLayerConfig fields in artifact: {sorted(unknown)}"
        )
    kwargs = dict(data)
    if kwargs.get("engine") == "python":
        # The dict oracle's artifacts: the engine is fit-time only, and
        # the array engine matches the oracle to <= 1e-9.
        kwargs["engine"] = "numpy"
    if "absence_scope" in kwargs:
        kwargs["absence_scope"] = AbsenceScope(kwargs["absence_scope"])
    if "false_value_model" in kwargs:
        kwargs["false_value_model"] = FalseValueModel(
            kwargs["false_value_model"]
        )
    if "convergence" in kwargs:
        kwargs["convergence"] = ConvergenceConfig(**kwargs["convergence"])
    return MultiLayerConfig(**kwargs)


# ----------------------------------------------------------------------
# The result's columns
# ----------------------------------------------------------------------
#: Section by section, in member order: each column of the result and
#: the table its ids index (None: a float column; "coords": the C
#: layer's rows).
_RESULT_SECTIONS = {
    "source accuracy": {"acc_source": "sources", "acc_value": None},
    "extractor quality": {
        "eq_extractor": "extractors",
        "eq_precision": None,
        "eq_recall": None,
        "eq_q": None,
    },
    "estimable sources": {"est_sources": "sources"},
    "estimable extractors": {"est_extractors": "extractors"},
    "C layer": {
        "coord_source": "sources",
        "coord_item": "items",
        "coord_value": "values",
        "coord_p": None,
    },
    "priors": {"prior_row": "coords", "prior_p": None},
    "value posteriors": {
        "vp_item": "items", "vp_value": "values", "vp_p": None
    },
    "empty items": {"vp_empty_item": "items"},
}

_AXES = ("source", "item", "value")


def _prior_rows(coord: list, prior: list) -> np.ndarray:
    """The C-layer row of each prior, by the id columns (:data:`_AXES`)
    of both; empty when they are the first rows, in order.

    A fit reports priors on every C-layer row, in its order, and an
    update merged into it keeps them on the older side's rows, which
    come first: both write no row at all. An update whose delta
    re-estimated priors its base did not have lists its rows. A prior
    on no C-layer coordinate has no row and is an :class:`ArtifactError`.
    """
    n = len(prior[0])
    if all(np.array_equal(a, b[:n]) for a, b in zip(prior, coord)):
        return np.zeros(0, dtype=np.intp)
    rows = {key: row for row, key in enumerate(_triples(coord))}
    try:
        return np.array([rows[key] for key in _triples(prior)], dtype=np.intp)
    except KeyError as err:
        raise ArtifactError(
            "a re-estimated prior sits on no C-layer coordinate; format "
            f"{FORMAT_VERSION} stores priors by C-layer row"
        ) from err


def _triples(columns: list[np.ndarray]) -> Iterable[tuple]:
    """The ``(source, item, value)`` id rows of three id columns."""
    return zip(*(ids.tolist() for ids in columns))


def _axes(columns: dict, prefix: str) -> list[np.ndarray]:
    """A section's ``<prefix>_source`` / ``_item`` / ``_value`` ids."""
    return [columns[f"{prefix}_{axis}"] for axis in _AXES]


def _check_value(value: Any) -> Any:
    if not isinstance(value, SCALAR_TYPES):
        raise ArtifactError(
            "artifact values must be JSON scalars (str/int/float/bool/"
            f"None); got {type(value).__name__}: {value!r}"
        )
    return value


def _key_columns(tables: dict[str, list]) -> dict[str, np.ndarray]:
    """The source, extractor and item tables as pool-id columns.

    Each distinct string gets id ``1 + its place`` in the pool, in the
    order the sources, then the extractors, then the items first name
    it, so the sources' strings are the pool's first ones. A key's
    features fill its row from the left; the rest of the row is 0.
    """
    pool: dict[str, int] = {}

    def ids(strings: Iterable[str]) -> list[int]:
        return [pool.setdefault(s, len(pool) + 1) for s in strings]

    out: dict[str, np.ndarray] = {}
    for prefix, table, width in (
        ("src", "sources", 3), ("ext", "extractors", 4)
    ):
        keys = tables[table]
        features = [key.features for key in keys]
        lens = np.fromiter(map(len, features), dtype=np.intp, count=len(keys))
        feat = np.zeros((len(keys), width), dtype=np.intp)
        feat[np.arange(width) < lens[:, None]] = ids(
            chain.from_iterable(features)
        )
        out[f"{prefix}_feat"] = feat
        buckets = [key.bucket for key in keys]
        if any(bucket is not None for bucket in buckets):
            out[f"{prefix}_bucket"] = [
                0 if bucket is None else _bucket(bucket) for bucket in buckets
            ]
    items = tables["items"]
    out["item_subj"] = ids([item.subject for item in items])
    out["item_pred"] = ids([item.predicate for item in items])
    if not set(map(type, pool)) <= {str}:
        raise ArtifactError("artifact key features must be strings")
    blob, offsets = _encode_strings(list(pool))
    return {"pool.blob": blob, "pool.off": offsets, **out}


def _bucket(bucket: Any) -> int:
    """A split bucket as its column holds it: ``bucket + 1`` (0 is no
    bucket), or a negative bucket as itself."""
    if type(bucket) is not int:
        raise ArtifactError(f"a split bucket must be an int, got {bucket!r}")
    return bucket + 1 if bucket >= 0 else bucket


# ----------------------------------------------------------------------
# Save
# ----------------------------------------------------------------------
@obs.spanned("io.artifact.save")
def save_artifact(artifact: TrustArtifact, path: str | Path) -> Path:
    """Write ``artifact`` to ``path``; returns the path written.

    Writes the result's columns (:meth:`MultiLayerResult.columns`) as
    it holds them: every producer's key tables start with the keys its
    columns name, in the order the sections first name them, which is
    the order the artifact lists them in. Each table is cut to those
    keys; then the embedded matrix's keys join it, each looked up once,
    in the order its cells first name them.

    The file is replaced atomically (:func:`repro.io.atomic.atomic_write`);
    a write the file system refuses is an :class:`ArtifactError` naming
    ``path``, and leaves its previous bytes in place.
    """
    path = Path(path)
    with obs.span("io.artifact.save.columns"):
        result = artifact.result
        columns = result.columns()
        arrays: dict[str, Any] = {}  # name -> list or ndarray
        named = dict.fromkeys(("sources", "extractors", "items", "values"), 0)
        for section in _RESULT_SECTIONS.values():
            for column, table in section.items():
                if column.startswith("est_"):
                    # A mask over a deterministic table: its ids in table
                    # order are as deterministic, and decode into a set.
                    arrays[column] = np.flatnonzero(
                        getattr(columns, column[:-1])
                    )
                elif column == "prior_row":
                    arrays[column] = _prior_rows(
                        [getattr(columns, f"coord_{a}") for a in _AXES],
                        [getattr(columns, f"prior_{a}") for a in _AXES],
                    )
                else:
                    arrays[column] = getattr(columns, column)
                if table in named and len(arrays[column]):
                    named[table] = max(
                        named[table], int(arrays[column].max()) + 1
                    )
        tables = {
            name: getattr(columns, name)[:n] for name, n in named.items()
        }

        # --- raw observation cells (optional, enables warm-start) -----
        # One row per cell (its coordinate and entry count), then one row
        # per (cell, extractor) entry, cell by cell; then the matrix's own
        # first-seen extractor order, which the compiled column order of a
        # refit follows.
        has_observations = artifact.observations is not None
        if has_observations:
            matrix = artifact.observations
            cells = matrix.columns()
            # Each distinct key looked up once, as its first cell has it;
            # new keys join in the order the cells first name them.
            for part, axis in enumerate(_AXES):
                keys, ids = first_seen_keys(
                    cells.coords, part, getattr(cells, f"cell_{axis}")
                )
                table = tables[f"{axis}s"]
                arrays[f"cell_{axis}"] = join_keys(table, keys)[ids]
            arrays["cell_len"] = np.bincount(
                cells.entry_cell, minlength=len(cells.coords)
            )
            order = join_keys(tables["extractors"], matrix.extractors())
            arrays["obs_extractor"] = order[cells.entry_extractor]
            arrays["obs_conf"] = cells.entry_conf
            arrays["obs_extractor_order"] = order
        for value in tables["values"]:
            _check_value(value)

        # --- trust-signal payloads ------------------------------------
        for name, scores in artifact.signals.items():
            if name != scores.name:
                raise ArtifactError(
                    f"signal registered as {name!r} but named {scores.name!r}"
                )
            for value in scores.metadata.values():
                _check_value(value)
        signal_arrays, websites, signal_entries = signal_columns(
            artifact.signals
        )
        arrays |= signal_arrays

        header = {
            "format": FORMAT_NAME,
            "format_version": FORMAT_VERSION,
            "config": config_to_dict(artifact.config),
            "granularity": (
                {
                    "min_size": artifact.granularity.min_size,
                    "max_size": artifact.granularity.max_size,
                }
                if artifact.granularity is not None
                else None
            ),
            "min_triples": artifact.min_triples,
            "seed": artifact.seed,
            "metadata": artifact.metadata,
            "values": tables["values"],
            "history": [
                [h.iteration, h.max_accuracy_delta, h.max_extractor_delta]
                for h in result.history
            ],
            "num_triples_total": result.num_triples_total,
            "has_observations": has_observations,
            "websites": websites,
            "signals": signal_entries,
            "fusion_weights": {
                name: float(weight)
                for name, weight in artifact.fusion_weights.items()
            },
        }

    with obs.span("io.artifact.save.keys"):
        keys = _key_columns(tables)
    # A JSONL record can name a negative bucket, and versions 1-3 hold
    # one, but the first format-4 reader decodes it as the bucket below.
    buckets = chain(keys.get("src_bucket", []), keys.get("ext_bucket", []))
    if (negative := next((b for b in buckets if b < 0), None)) is not None:
        raise ArtifactError(
            f"a split bucket must be an int >= 0, got {negative}"
        )
    with obs.span("io.artifact.save.members"):
        _write(path, header, keys | arrays)
    return path


def _write(path: Path, header: dict, arrays: dict[str, Any]) -> None:
    """The zip: the header, then one ``.npy`` member per column.

    Atomic write-then-rename: ``kbt update`` overwrites its input
    artifact in place by default, so a half-written zip must never land
    on the target path (disk full, Ctrl-C, power loss ...). The level
    goes to each writestr: ZipFile(compresslevel=) does not reach
    members written from a ZipInfo.
    """
    try:
        with atomic_write(path, "wb") as handle:
            with zipfile.ZipFile(handle, "w") as archive:
                archive.writestr(
                    _zip_member(_HEADER_MEMBER),
                    json.dumps(header, ensure_ascii=False),
                    compresslevel=_DEFLATE_LEVEL,
                )
                for name, data in arrays.items():
                    member = io.BytesIO()
                    np.lib.format.write_array(
                        member, _column(name, data), allow_pickle=False
                    )
                    stored = name in _STORED
                    archive.writestr(
                        _zip_member(f"{name}.npy", stored),
                        member.getvalue(),
                        compresslevel=None if stored else _DEFLATE_LEVEL,
                    )
    except OSError as err:
        raise ArtifactError(f"cannot write artifact {path}: {err}") from err


#: zlib level of the deflated members. With the narrow columns below,
#: level 1 deflates in about a third of level 6's time for a few percent
#: more bytes; on ``int64`` columns it would cost far more.
_DEFLATE_LEVEL = 1


#: The fixed member timestamp (the zip epoch) that makes artifact bytes
#: a pure function of the fitted state: equal fits produce equal files,
#: so replaying a record stream through the ingest pipeline yields
#: bit-identical artifacts (and equal serving ETags) to running the same
#: update sequence by hand, whenever it happens to run.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


def _zip_member(name: str, stored: bool = False) -> zipfile.ZipInfo:
    info = zipfile.ZipInfo(name, date_time=_ZIP_EPOCH)
    info.compress_type = zipfile.ZIP_STORED if stored else zipfile.ZIP_DEFLATED
    info.external_attr = 0o644 << 16
    return info


_FLOAT_SUFFIXES = (
    "_p", "_conf", "_precision", "_recall", "_q", "_score", "_sup_val"
)


def _is_float(name: str) -> bool:
    """Whether a column holds floats (else integers), by name."""
    return name.endswith(_FLOAT_SUFFIXES) or name == "acc_value"


def _column(name: str, data) -> np.ndarray:
    """A column as it is stored: ``float64``, or integers narrowed."""
    if _is_float(name):
        return np.asarray(data, dtype=np.float64)
    array = np.asarray(data)
    if array.dtype.kind not in "iu":
        array = array.astype(np.int64)  # an empty list
    return _narrow(array)


def _narrow(array: np.ndarray) -> np.ndarray:
    """An integer column at the narrowest dtype that holds it.

    Unsigned 8 / 16 / 32 bits by the column's maximum, ``int64`` if any
    value is negative: a function of the values alone, so equal fits
    still write equal bytes. Readers see the values only through
    ``.tolist()`` or as indices, never as unsigned arithmetic.
    """
    if array.size == 0:
        return array.astype(np.uint8)
    if array.min() < 0:
        return array.astype(np.int64, copy=False)
    top = array.max()
    for dtype in (np.uint8, np.uint16, np.uint32):
        if top <= np.iinfo(dtype).max:
            return array.astype(dtype, copy=False)
    return array.astype(np.int64, copy=False)


# ----------------------------------------------------------------------
# Load: read the members once, decode a section only when it is asked for
# ----------------------------------------------------------------------
class _Payload:
    """The arrays by name: a format-4 zip's ``<name>.npy`` members, each
    parsed when read (a caller that wants two sections never pays for
    the other ten), or an older artifact's upgraded ``columns`` (None
    for format 4). A member that cannot be read is an
    :class:`ArtifactError` naming the file.
    """

    def __init__(self, archive: zipfile.ZipFile, path: Path, columns) -> None:
        self._archive = archive
        self._names = set(archive.namelist())
        self._path = path
        self._columns = columns

    def _member(self, name: str):
        try:
            if self._columns is not None:
                return self._columns[name]
            raw = self._archive.read(f"{name}.npy")
            return np.lib.format.read_array(
                io.BytesIO(raw), allow_pickle=False
            )
        except _READ_ERRORS as err:
            raise ArtifactError(
                f"corrupt artifact {self._path}: payload array {name!r} "
                f"unreadable ({err!r})"
            ) from err

    def __contains__(self, name: str) -> bool:
        if self._columns is not None:
            return name in self._columns
        return f"{name}.npy" in self._names

    def array(self, name: str) -> np.ndarray:
        """One array: ``float64``, or integers at the width they were
        stored at (narrow, so a loaded result stays small)."""
        try:
            array = np.asarray(self._member(name))
            if _is_float(name):
                return array.astype(np.float64, copy=False)
            if array.dtype.kind not in "iu":
                if array.size:
                    raise ValueError(f"dtype {array.dtype}, not integer")
                array = array.astype(np.intp)  # an empty JSON list
            return array
        except (TypeError, ValueError) as err:
            raise ArtifactError(
                f"corrupt artifact {self._path}: payload array {name!r} "
                f"is not numeric ({err})"
            ) from err


#: What reading or parsing a damaged member raises: a failed CRC or a
#: bad zip structure, a broken deflate stream, a short read, malformed
#: JSON / npy bytes (``ValueError`` covers JSON and Unicode errors), a
#: missing name.
_READ_ERRORS = (
    zipfile.BadZipFile,
    zlib.error,
    EOFError,
    OSError,
    ValueError,
    KeyError,
)


def _read_members(path: str | Path) -> tuple[dict, _Payload]:
    """The validated header and the arrays, as format 4 stores them.

    Raises :class:`ArtifactError` for non-artifact files, for any
    ``format_version`` this build cannot read, and for a member that
    cannot be read or parsed.
    """
    path = Path(path)
    try:
        # In memory, so the lazy member reads outlive the file handle.
        archive = zipfile.ZipFile(io.BytesIO(path.read_bytes()))
    except (zipfile.BadZipFile, OSError) as err:
        raise ArtifactError(f"not a trust artifact: {path} ({err})") from err
    header = _parse(archive, _HEADER_MEMBER, json.loads, path)
    if not isinstance(header, dict):
        header = {"format": header}
    if header.get("format") != FORMAT_NAME:
        raise ArtifactError(
            f"not a trust artifact: {path} "
            f"(format={header.get('format')!r})"
        )
    version = header.get("format_version")
    if version not in SUPPORTED_VERSIONS:
        raise ArtifactError(
            f"unsupported artifact format version {version!r}; this "
            f"build reads versions {sorted(SUPPORTED_VERSIONS)}. Re-fit "
            "and re-save the artifact with a matching build."
        )
    _check_header(header, _HEADER_FIELDS, path)
    return header, _Payload(archive, path, _upgrade(header, archive, path))


def _parse(archive: zipfile.ZipFile, name: str, decode, path: Path):
    """Member ``name``, decoded; an :class:`ArtifactError` naming
    ``path`` when it is missing or cannot be read."""
    try:
        return decode(archive.read(name))
    except KeyError as err:
        raise ArtifactError(
            f"not a trust artifact: {path} (no {name})"
        ) from err
    except _READ_ERRORS as err:
        raise ArtifactError(
            f"corrupt artifact {path}: {name} unreadable ({err!r})"
        ) from err


def _upgrade(header: dict, archive: zipfile.ZipFile, path: Path):
    """An older artifact's arrays as the columns format 4 stores (None
    for format 4), each section checked (:func:`_section`): the key
    tables through the writer's :func:`_key_columns`, the priors' key
    ids through its :func:`_prior_rows`. Versions 1 and 2 store the
    coordinate on every observation entry; a cell's entries are
    contiguous, so each run of one coordinate is a cell. No extractor
    order is written, so the matrix ranks extractors by first entry.
    """
    version = header["format_version"]
    if version == FORMAT_VERSION:
        return None
    _check_header(header, _KEY_TABLES, path)
    kind = header.get("payload_kind")
    if kind not in ("npz", "json"):
        raise ArtifactError(f"unknown payload kind in artifact: {kind!r}")
    members = _parse(archive, f"payload.{kind}", _PAYLOADS[kind], path)
    old = _Payload(archive, path, members)
    tables = {
        name: [cls(tuple(features), bucket) for features, bucket in keys]
        for name, cls, keys in (
            ("sources", SourceKey, header["sources"]),
            ("extractors", ExtractorKey, header["extractors"]),
        )
    }
    tables["items"] = [DataItem(*item) for item in header["items"]]

    def ids(section: str, prefix: str, **more) -> dict:
        sizes = {f"{prefix}_{axis}": len(header[f"{axis}s"]) for axis in _AXES}
        return _section(old, section, **sizes, **more)

    upgraded = _key_columns(tables)
    prior = ids("priors", "prior", prior_p=None)
    try:
        upgraded["prior_row"] = _prior_rows(
            _axes(ids("C layer", "coord"), "coord"), _axes(prior, "prior")
        )
    except ArtifactError as err:
        raise ArtifactError(f"corrupt artifact {path}: {err}") from err
    if "vp_empty_item" not in old:  # covered items all had a posterior
        upgraded["vp_empty_item"] = np.zeros(0, dtype=np.intp)
    if version < 3 and header.get("has_observations"):
        entries = ids(
            "observation entries",
            "obs",
            obs_extractor=len(tables["extractors"]),
            obs_conf=None,
        )
        coords = np.stack(_axes(entries, "obs"))
        new = np.ones(coords.shape[1], dtype=bool)
        new[1:] = (coords[:, 1:] != coords[:, :-1]).any(axis=0)
        starts = np.flatnonzero(new)
        for axis, cells in zip(_AXES, coords[:, starts]):
            upgraded[f"cell_{axis}"] = cells
        upgraded["cell_len"] = np.diff(np.append(starts, len(new)))
    return ChainMap(upgraded, members)


def _types(values: Iterable) -> set:
    return set(map(type, values))


def _rows(rows, width: int) -> bool:
    """Whether ``rows`` is a list of lists of ``width`` entries."""
    return (
        type(rows) is list
        and _types(rows) <= {list}
        and set(map(len, rows)) <= {width}
    )


def _key_table(size: int):
    """A sources / extractors table: ``[features, bucket]`` rows, 1 to
    ``size`` string features and an integer or null bucket each."""

    def check(rows) -> bool:
        if not _rows(rows, 2):
            return False
        features, buckets = zip(*rows) if rows else ((), ())
        return (
            _types(features) <= {list}
            and set(map(len, features)) <= set(range(1, size + 1))
            and _types(chain.from_iterable(features)) <= {str}
            and _types(buckets) <= {int, type(None)}
        )

    return check


#: The JSON key tables of versions 1-3, checked like
#: :data:`_HEADER_FIELDS` by the upgrade that reads them.
_KEY_TABLES = {
    "sources": (True, _key_table(3)),
    "extractors": (True, _key_table(4)),
    "items": (
        True,
        lambda rows: _rows(rows, 2)
        and _types(chain.from_iterable(rows)) <= {str},
    ),
}

#: Each header field the loaders read: whether every artifact has it,
#: and the shape they read it in (``min_triples`` through
#: :func:`~repro.core.kbt.check_min_triples`, which names what is
#: wrong). Set comparisons over the entries' types keep it a small
#: share of a load.
_HEADER_FIELDS = {
    "min_triples": (True, lambda n: check_min_triples(n) == n),
    "values": (
        True,
        lambda values: type(values) is list
        and _types(values) <= set(SCALAR_TYPES),
    ),
    "history": (
        True,
        lambda rows: _rows(rows, 3)
        and _types(row[0] for row in rows) <= {int}
        and _types(x for row in rows for x in row[1:]) <= {int, float},
    ),
    "num_triples_total": (True, lambda n: type(n) is int and n >= 0),
    "config": (True, lambda config: type(config) is dict),
    "granularity": (False, lambda g: g is None or type(g) is dict),
    "seed": (False, lambda seed: type(seed) is int),
    "metadata": (False, lambda metadata: type(metadata) is dict),
    "websites": (
        False,
        lambda sites: type(sites) is list and _types(sites) <= {str},
    ),
    "signals": (
        False,
        lambda entries: type(entries) is list
        and all(
            type(entry) is dict
            and type(entry.get("name")) is str
            and type(entry.get("metadata", {})) is dict
            for entry in entries
        ),
    ),
    "fusion_weights": (
        False,
        lambda weights: type(weights) is dict
        and _types(weights.values()) <= {int, float},
    ),
}


def _check_header(header: dict, fields: dict, path: Path) -> None:
    """Each of ``fields`` present if required, in the shape the loaders
    read it in: a damaged header is an :class:`ArtifactError` naming the
    file and the field, never a ``KeyError`` / ``TypeError`` /
    ``ValueError`` from a decoder (which ``POST /admin/swap`` would
    answer with a 500)."""
    for name, (required, check) in fields.items():
        if name not in header:
            if required:
                raise ArtifactError(
                    f"corrupt artifact {path}: header field {name!r} missing"
                )
        else:
            try:
                well_formed = check(header[name])
            except TypeError:  # an entry with no len()
                well_formed = False
            except ValueError as err:
                raise ArtifactError(
                    f"corrupt artifact {path}: header field {name!r}: {err}"
                ) from err
            if not well_formed:
                raise ArtifactError(
                    f"corrupt artifact {path}: header field {name!r} "
                    "malformed"
                )


def _section(arrays: _Payload, section: str, **sizes) -> dict:
    """One section's columns by name, checked once: equal lengths, and
    every id below the size of its table. ``sizes`` maps each column to
    its table's size, or to None for a column of no table."""
    columns = {name: arrays.array(name) for name in sizes}
    lengths = {name: len(column) for name, column in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ArtifactError(
            f"corrupt artifact {arrays._path}: the {section} columns "
            f"differ in length {lengths}"
        )
    for name, size in sizes.items():
        ids = columns[name]
        if size is not None and len(ids) and (
            ids.min() < 0 or ids.max() >= size
        ):
            raise ArtifactError(
                f"corrupt artifact {arrays._path}: {section} column "
                f"{name!r} names a key outside its table of {size}"
            )
    return columns


# --- the key tables ---------------------------------------------------
def _pool(arrays: _Payload, count: int) -> list:
    """The first ``count`` strings of the pool, after a None at id 0."""
    blob = arrays.array("pool.blob")
    offsets = arrays.array("pool.off")
    if not (
        blob.ndim == offsets.ndim == 1
        and blob.dtype == np.uint8
        and 0 <= count < len(offsets)
        and offsets[0] == 0
        and offsets[-1] == len(blob)
        and (np.diff(offsets.astype(np.int64)) >= 0).all()
    ):
        raise ArtifactError(
            f"corrupt artifact {arrays._path}: the string pool is "
            f"malformed, or shorter than the {count} strings its keys name"
        )
    try:
        return [None, *StringColumn(blob, offsets[: count + 1]).decode_all()]
    except UnicodeDecodeError as err:
        raise ArtifactError(
            f"corrupt artifact {arrays._path}: the string pool is not "
            f"UTF-8 ({err})"
        ) from err


def _feature_ids(arrays: _Payload, prefix: str, width: int) -> np.ndarray:
    """A ``<prefix>_feat`` column, checked: ``width`` ids a row, the
    nonzero ones a prefix of it, at least one."""
    feat = arrays.array(f"{prefix}_feat")
    if feat.ndim == 2 and feat.shape[1] == width:
        lens = np.count_nonzero(feat, axis=1)
        if (lens > 0).all() and (
            (feat != 0) == (np.arange(width) < lens[:, None])
        ).all():
            return feat
    raise ArtifactError(
        f"corrupt artifact {arrays._path}: {prefix}_feat is not one row "
        f"of 1 to {width} feature ids per key"
    )


def _keys(cls, arrays: _Payload, prefix: str, feat, strings) -> list:
    """The keys of one ``<prefix>_feat`` column over the pool."""
    get = strings.__getitem__
    keys = [
        tuple(map(get, row[:n]))
        for row, n in zip(
            feat.tolist(), np.count_nonzero(feat, axis=1).tolist()
        )
    ]
    name = f"{prefix}_bucket"
    if name not in arrays:
        return list(map(cls, keys))
    buckets = arrays.array(name).tolist()
    if len(buckets) != len(keys):
        raise ArtifactError(
            f"corrupt artifact {arrays._path}: {name} has "
            f"{len(buckets)} rows for {len(keys)} keys"
        )
    return [
        cls(key, bucket - 1 if bucket > 0 else bucket or None)
        for key, bucket in zip(keys, buckets)
    ]


def _max_id(*columns: np.ndarray) -> int:
    return max((int(ids.max()) for ids in columns if ids.size), default=0)


def _decode_sources(arrays: _Payload) -> list[SourceKey]:
    feat = _feature_ids(arrays, "src", 3)
    # The sources name the pool's first strings: decode only those.
    return _keys(SourceKey, arrays, "src", feat, _pool(arrays, _max_id(feat)))


def _decode_tables(header: dict, arrays: _Payload) -> dict[str, list]:
    """The four key tables."""
    src = _feature_ids(arrays, "src", 3)
    ext = _feature_ids(arrays, "ext", 4)
    items = _section(arrays, "item", item_subj=None, item_pred=None)
    subjects, predicates = items["item_subj"], items["item_pred"]
    if subjects.size and min(subjects.min(), predicates.min()) < 1:
        raise ArtifactError(
            f"corrupt artifact {arrays._path}: an item names no string"
        )
    strings = _pool(arrays, _max_id(src, ext, subjects, predicates))
    get = strings.__getitem__
    return {
        "sources": _keys(SourceKey, arrays, "src", src, strings),
        "extractors": _keys(ExtractorKey, arrays, "ext", ext, strings),
        "items": list(
            map(
                DataItem,
                map(get, subjects.tolist()),
                map(get, predicates.tolist()),
            )
        ),
        "values": header["values"],
    }


def _decode_coords(cache: dict, tables, ids) -> list[tuple]:
    """Coordinate tuples by their (source, item, value) ids, each built
    once per ``cache``: a loaded artifact's C layer, priors and cells
    share their tuples, as a fit's do."""
    sources, items, values = tables
    out = []
    for key in ids:
        coord = cache.get(key)
        if coord is None:
            s, i, v = key
            coord = cache[key] = (sources[s], items[i], values[v])
        out.append(coord)
    return out


def _prior_section(arrays: _Payload, n_coords: int) -> dict:
    """The priors section, its rows spelled out (no rows: the
    first ``len(prior_p)`` C-layer rows)."""
    rows = arrays.array("prior_row")
    if not len(rows):
        n = len(arrays.array("prior_p"))
        if n > n_coords:
            raise ArtifactError(
                f"corrupt artifact {arrays._path}: {n} priors on a C layer "
                f"of {n_coords} rows"
            )
        return {"prior_row": np.arange(n), "prior_p": arrays.array("prior_p")}
    return _section(arrays, "priors", prior_row=n_coords, prior_p=None)


def _decode_columns(
    header: dict, arrays: _Payload, cache: dict
) -> ResultColumns:
    """The result's columns over the key tables, each section checked
    (:func:`_section`); coordinates through ``cache``
    (:func:`_decode_coords`)."""
    tables = _decode_tables(header, arrays)
    sizes = {name: len(keys) for name, keys in tables.items()}
    columns = {}
    for section, spec in _RESULT_SECTIONS.items():
        if section == "priors":
            columns.update(_prior_section(arrays, len(columns["coord_p"])))
        else:
            columns.update(
                _section(
                    arrays,
                    section,
                    **{name: sizes.get(table) for name, table in spec.items()},
                )
            )
    triples = (tables["sources"], tables["items"], tables["values"])
    coords = _decode_coords(cache, triples, _triples(_axes(columns, "coord")))
    rows = columns.pop("prior_row")
    for axis in _AXES:
        columns[f"prior_{axis}"] = columns[f"coord_{axis}"][rows]
    if len(rows) == len(coords) and (rows == np.arange(len(rows))).all():
        prior_coords = coords  # shared, as a fit's are
    else:
        prior_coords = list(map(coords.__getitem__, rows.tolist()))
    return ResultColumns(
        **tables,
        est_source=id_mask(sizes["sources"], columns.pop("est_sources")),
        est_extractor=id_mask(
            sizes["extractors"], columns.pop("est_extractors")
        ),
        **columns,
        coords=coords,
        prior_coords=prior_coords,
        vp_values=list(
            map(tables["values"].__getitem__, columns["vp_value"].tolist())
        ),
    )


def _decode_observations(
    columns: ResultColumns, arrays: _Payload, cache: dict
) -> ObservationMatrix:
    """The observation matrix: one row per cell, one per (cell,
    extractor) entry, and the extractor order, if stored (else the
    matrix ranks extractors by first entry). Coordinates come through
    ``cache`` (:func:`_decode_coords`), so the cells share their tuples
    with the result's C layer and priors.
    """
    tables = (columns.sources, columns.items, columns.values)
    extractors = columns.extractors
    entries = _section(
        arrays,
        "observation entries",
        obs_extractor=len(extractors),
        obs_conf=None,
    )
    cells = _section(
        arrays,
        "observation cells",
        cell_source=len(columns.sources),
        cell_item=len(columns.items),
        cell_value=len(columns.values),
        cell_len=None,
    )
    extractor_order = None
    if "obs_extractor_order" in arrays:
        extractor_order = [
            extractors[e]
            for e in _section(
                arrays, "extractor order", obs_extractor_order=len(extractors)
            )["obs_extractor_order"].tolist()
        ]
    return ObservationMatrix.from_cells(
        _decode_coords(cache, tables, _triples(_axes(cells, "cell"))),
        cells["cell_len"],
        [extractors[e] for e in entries["obs_extractor"].tolist()],
        entries["obs_conf"],
        extractor_order,
    )


def _decode_signals(header: dict, arrays: _Payload) -> dict:
    """The signals (none in version 1), checked by :func:`_section`."""
    return signal_scores(
        header.get("signals", []),
        header.get("websites", []),
        partial(_section, arrays),
    )


def load_serving_inputs(path: str | Path) -> tuple:
    """What serving reads of an artifact, and nothing else.

    Returns ``(scored, min_triples, signals, fusion_weights)`` — the
    arguments of :func:`repro.io.mmap_layout.serving_columns`, in its
    order; ``scored`` is a :class:`~repro.io.mmap_layout.ScoredSources`.
    Only those sections are decoded (of the string pool, the
    sources' strings): the observation matrix, the priors, the value
    posteriors and the extractor qualities (most of an artifact, and
    most of :func:`load_artifact`'s time) are never touched.
    """
    header, arrays = _read_members(path)
    sources = _decode_sources(arrays)
    accuracy = _section(
        arrays, "source accuracy", acc_source=len(sources), acc_value=None
    )
    scored = _section(
        arrays, "C layer", coord_source=len(sources), coord_p=None
    )
    return (
        ScoredSources(sources, **accuracy, **scored),
        header["min_triples"],
        _decode_signals(header, arrays),
        header.get("fusion_weights") or {},
    )


@paused_gc()
def load_artifact(path: str | Path) -> TrustArtifact:
    """Read an artifact written by :func:`save_artifact`, or by a build
    of format 1-3.

    Raises :class:`ArtifactError` for non-artifact files, for any
    ``format_version`` this build cannot read, and for damaged members
    or inconsistent columns. Version-1 artifacts (no embedded trust
    signals) load with ``signals == {}``. The result is column-backed:
    its dict views are decoded when first read.
    """
    header, arrays = _read_members(path)
    cache: dict = {}
    columns = _decode_columns(header, arrays, cache)
    result = MultiLayerResult(
        columns,
        header["num_triples_total"],
        [IterationSnapshot(*row) for row in header["history"]],
    )

    observations = None
    if header.get("has_observations"):
        try:
            observations = _decode_observations(columns, arrays, cache)
        except ArtifactError:
            raise
        except ValueError as err:
            raise ArtifactError(
                f"corrupt observation cells in {path}: {err}"
            ) from err

    granularity = None
    if header.get("granularity") is not None:
        granularity = GranularityConfig(**header["granularity"])

    return TrustArtifact(
        result=result,
        config=config_from_dict(header["config"]),
        min_triples=header["min_triples"],
        granularity=granularity,
        seed=header.get("seed", 0),
        observations=observations,
        metadata=header.get("metadata", {}),
        signals=_decode_signals(header, arrays),
        fusion_weights=header.get("fusion_weights") or {},
    )
