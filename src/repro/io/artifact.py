"""Versioned on-disk trust artifacts: the *persist* stage of the lifecycle.

A trust artifact is one zip file holding everything a fitted KBT model
needs to be served or warm-started later:

* ``header.json`` — format name + ``FORMAT_VERSION``, the serialised
  :class:`~repro.core.config.MultiLayerConfig` (and granularity config),
  the reporting threshold, interning tables for every source / extractor /
  item / value key (and, since format 2, website strings), the
  convergence history, named trust-signal descriptors with their fusion
  weights, and arbitrary metadata;
* one payload member with the numeric state of the fitted
  :class:`~repro.core.results.MultiLayerResult` — and the per-website
  score/support arrays of every embedded trust signal
  (:mod:`repro.signals`) — as flat arrays, ``payload.npz``: floats as
  ``float64``, key-id and count columns at the narrowest unsigned dtype
  that holds them. Loading also accepts a ``payload.json`` member (the
  same arrays as plain lists), which builds before this one could write.

Floats survive the payload bit-for-bit and every dict is rebuilt in its
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
raise :class:`ArtifactError` at save time.
"""

from __future__ import annotations

import dataclasses
import io
import json
import zipfile
import zlib
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain, groupby
from pathlib import Path
from typing import Any

import numpy as np

from repro.io.atomic import atomic_write
from repro.io.jsonl import SCALAR_TYPES

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
    keyed,
    source_support,
)
from repro.core.types import DataItem, ExtractorKey, SourceKey
from repro.signals.base import SignalScores
from repro.util.heap import paused_gc

#: Format identifier stored in (and required from) every artifact header.
FORMAT_NAME = "kbt-trust-artifact"

#: Bump on any incompatible change to the header or payload layout.
#: Version history: 1 = KBT-only artifacts; 2 = adds embedded trust
#: signals (per-website score/support arrays + fusion weights); 3 =
#: integer columns at their narrowest dtype, observations one row per
#: cell plus the matrix's extractor order, members deflated at level 1.
FORMAT_VERSION = 3

#: Versions this build can read (older versions load compatibly).
SUPPORTED_VERSIONS = frozenset({1, 2, FORMAT_VERSION})

_HEADER_MEMBER = "header.json"
_NPZ_MEMBER = "payload.npz"
_JSON_MEMBER = "payload.json"


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
# The result's payload columns
# ----------------------------------------------------------------------
#: Section by section, in payload order: each column of the result and
#: the key table its ids index (None: a float column).
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
    **{
        section: {
            f"{prefix}_source": "sources",
            f"{prefix}_item": "items",
            f"{prefix}_value": "values",
            f"{prefix}_p": None,
        }
        for section, prefix in (("C layer", "coord"), ("priors", "prior"))
    },
    "value posteriors": {
        "vp_item": "items", "vp_value": "values", "vp_p": None
    },
    "empty items": {"vp_empty_item": "items"},
}


def _estimable_ids(mask: np.ndarray, keys: list, scored: int) -> np.ndarray:
    """The ids of an estimable set, sorted by ``str``, ties by id among
    the first ``scored`` keys, the others before them.

    These are the only *sets* serialized, and raw set order varies with
    string hash randomization — which would make artifact bytes differ
    between processes for the same fit, breaking determinism-ladder
    entry 6 (replay produces byte-identical artifacts). Distinct keys
    can share a ``str``. They decode back into sets, so order is free.
    """
    ids = np.flatnonzero(mask).tolist()
    ids.sort(key=lambda k: (str(keys[k]), k if k < scored else -1))
    return np.array(ids, dtype=np.intp)


def _encode_key(key: SourceKey | ExtractorKey) -> list:
    return [list(key.features), key.bucket]


def _decode_source(entry: list) -> SourceKey:
    features, bucket = entry
    return SourceKey(tuple(features), bucket=bucket)


def _decode_extractor(entry: list) -> ExtractorKey:
    features, bucket = entry
    return ExtractorKey(tuple(features), bucket=bucket)


def _check_value(value: Any) -> Any:
    if not isinstance(value, SCALAR_TYPES):
        raise ArtifactError(
            "artifact values must be JSON scalars (str/int/float/bool/"
            f"None); got {type(value).__name__}: {value!r}"
        )
    return value


# ----------------------------------------------------------------------
# Save
# ----------------------------------------------------------------------
def save_artifact(artifact: TrustArtifact, path: str | Path) -> Path:
    """Write ``artifact`` to ``path``; returns the path written.

    Writes the result's columns (:meth:`MultiLayerResult.columns`) as
    it holds them: every producer's key tables start with the keys its
    columns name, in the order the sections first name them, which is
    the order the artifact lists them in. Each table is cut to those
    keys; then the embedded matrix's keys join it, each looked up once,
    in the order its cells first name them.
    """
    result = artifact.result
    columns = result.columns()
    arrays: dict[str, Any] = {}  # name -> list or ndarray
    named = dict.fromkeys(("sources", "extractors", "items", "values"), 0)
    for section in _RESULT_SECTIONS.values():
        for column, table in section.items():
            if column.startswith("est_"):
                # The section before names the table's first keys.
                arrays[column] = _estimable_ids(
                    getattr(columns, column[:-1]),
                    getattr(columns, table),
                    named[table],
                )
            else:
                arrays[column] = getattr(columns, column)
            if table is not None and len(arrays[column]):
                named[table] = max(named[table], int(arrays[column].max()) + 1)
    tables = {name: getattr(columns, name)[:n] for name, n in named.items()}

    # --- raw observation cells (optional, enables warm-start) ---------
    # One row per cell (its coordinate and entry count), then one row
    # per (cell, extractor) entry, cell by cell; then the matrix's own
    # first-seen extractor order, which the compiled column order of a
    # refit follows.
    has_observations = artifact.observations is not None
    if has_observations:
        matrix = artifact.observations
        cells = matrix.columns()
        # Each distinct key looked up once, as its first cell has it; new
        # keys join in the order the cells first name them.
        for part, axis in enumerate(("source", "item", "value")):
            keys, ids = first_seen_keys(
                cells.coords, part, getattr(cells, f"cell_{axis}")
            )
            table = tables[f"{axis}s"]
            arrays[f"cell_{axis}"] = _narrow(join_keys(table, keys)[ids])
        arrays["cell_len"] = np.bincount(
            cells.entry_cell, minlength=len(cells.coords)
        )
        order = join_keys(tables["extractors"], matrix.extractors())
        arrays["obs_extractor"] = order[cells.entry_extractor]
        arrays["obs_conf"] = cells.entry_conf
        arrays["obs_extractor_order"] = order
    for value in tables["values"]:
        _check_value(value)

    # --- trust-signal payloads (format >= 2) --------------------------
    websites = {}
    signal_entries = []
    for index, (name, scores) in enumerate(artifact.signals.items()):
        if name != scores.name:
            raise ArtifactError(
                f"signal registered as {name!r} but named {scores.name!r}"
            )
        arrays[f"sig{index}_site"] = [
            websites.setdefault(site, len(websites)) for site in scores.scores
        ]
        arrays[f"sig{index}_score"] = list(scores.scores.values())
        arrays[f"sig{index}_sup_site"] = [
            websites.setdefault(site, len(websites))
            for site in scores.support
        ]
        arrays[f"sig{index}_sup_val"] = list(scores.support.values())
        signal_entries.append(
            {
                "name": name,
                "metadata": {
                    key: _check_value(value)
                    for key, value in scores.metadata.items()
                },
            }
        )

    header = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "payload_kind": "npz",
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
        "sources": [_encode_key(s) for s in tables["sources"]],
        "extractors": [_encode_key(e) for e in tables["extractors"]],
        "items": [[i.subject, i.predicate] for i in tables["items"]],
        "values": tables["values"],
        "history": [
            [h.iteration, h.max_accuracy_delta, h.max_extractor_delta]
            for h in result.history
        ],
        "num_triples_total": result.num_triples_total,
        "has_observations": has_observations,
        "websites": list(websites),
        "signals": signal_entries,
        "fusion_weights": {
            name: float(weight)
            for name, weight in artifact.fusion_weights.items()
        },
    }

    path = Path(path)
    # Atomic write-then-rename: `kbt update` overwrites its input
    # artifact in place by default, so a half-written zip must never
    # land on the target path (disk full, Ctrl-C, power loss ...).
    # The level goes to each writestr: ZipFile(compresslevel=) does not
    # reach members written from a ZipInfo.
    with atomic_write(path, "wb") as handle:
        with zipfile.ZipFile(handle, "w", zipfile.ZIP_DEFLATED) as archive:
            archive.writestr(
                _zip_member(_HEADER_MEMBER),
                json.dumps(header, ensure_ascii=False),
                compresslevel=_DEFLATE_LEVEL,
            )
            archive.writestr(
                _zip_member(_NPZ_MEMBER),
                _deterministic_npz(arrays),
                compresslevel=_DEFLATE_LEVEL,
            )
    return path


#: zlib level of both members. With the narrow columns below, level 1
#: deflates in about a third of level 6's time for a few percent more
#: bytes; on ``int64`` columns it would cost far more.
_DEFLATE_LEVEL = 1


#: The fixed member timestamp (the zip epoch) that makes artifact bytes
#: a pure function of the fitted state: equal fits produce equal files,
#: so replaying a record stream through the ingest pipeline yields
#: bit-identical artifacts (and equal serving ETags) to running the same
#: update sequence by hand, whenever it happens to run.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


def _zip_member(name: str) -> zipfile.ZipInfo:
    info = zipfile.ZipInfo(name, date_time=_ZIP_EPOCH)
    info.compress_type = zipfile.ZIP_DEFLATED
    info.external_attr = 0o644 << 16
    return info


def _deterministic_npz(arrays: dict[str, Any]) -> bytes:
    """The ``payload.npz`` bytes, independent of the wall clock.

    ``np.savez`` stamps each member with the current time, which would
    make byte-level artifact comparisons (the replay-identity guarantee
    of :mod:`repro.ingest`) time-dependent. This builds the same
    uncompressed npz container — ``np.load`` reads it like any other —
    with the member timestamps pinned to the zip epoch.
    """
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_STORED) as inner:
        for name, data in arrays.items():
            if _is_float(name):
                array = np.asarray(data, dtype=np.float64)
            else:
                array = _narrow(np.asarray(data, dtype=np.int64))
            member = io.BytesIO()
            np.lib.format.write_array(member, array)
            info = zipfile.ZipInfo(f"{name}.npy", date_time=_ZIP_EPOCH)
            info.external_attr = 0o644 << 16
            inner.writestr(info, member.getvalue())
    return buffer.getvalue()


_FLOAT_SUFFIXES = (
    "_p", "_conf", "_precision", "_recall", "_q", "_score", "_sup_val"
)


def _is_float(name: str) -> bool:
    """Whether a payload array holds floats (else integers), by name."""
    return name.endswith(_FLOAT_SUFFIXES) or name == "acc_value"


def _narrow(array: np.ndarray) -> np.ndarray:
    """An integer column at the narrowest dtype that holds it.

    Unsigned 8 / 16 / 32 bits by the column's maximum, ``int64`` if any
    value is negative: a function of the values alone, so equal fits
    still write equal bytes. Readers see the values only through
    ``.tolist()``, never as unsigned arithmetic.
    """
    if array.size == 0:
        return array.astype(np.uint8)
    if array.min() < 0:
        return array
    top = array.max()
    for dtype in (np.uint8, np.uint16, np.uint32):
        if top <= np.iinfo(dtype).max:
            return array.astype(dtype)
    return array


# ----------------------------------------------------------------------
# Load: read the members once, decode a section only when it is asked for
# ----------------------------------------------------------------------
class _Payload:
    """The payload arrays by name; an npz member is decoded on access.

    Wraps ``payload.npz`` or the dict a ``payload.json`` parses into, so
    the section readers below read either kind, and a caller that wants
    two sections never pays for the other ten. A member that cannot be
    read is an :class:`ArtifactError` naming the file.
    """

    def __init__(self, members, path: Path) -> None:
        self._members = members
        self._path = path

    def _member(self, name: str):
        try:
            return self._members[name]
        except _READ_ERRORS as err:
            raise ArtifactError(
                f"corrupt artifact {self._path}: payload array {name!r} "
                f"unreadable ({err!r})"
            ) from err

    def __contains__(self, name: str) -> bool:
        return name in self._members

    def array(self, name: str) -> np.ndarray:
        """One payload array: ``float64``, or integers at the width they
        were stored at (narrow, so a loaded result stays small)."""
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
    """The validated header and the payload arrays.

    Raises :class:`ArtifactError` for non-artifact files, for any
    ``format_version`` this build cannot read, and for a member that
    cannot be read or parsed.
    """
    path = Path(path)
    try:
        archive = zipfile.ZipFile(path)
    except (zipfile.BadZipFile, FileNotFoundError, IsADirectoryError) as err:
        raise ArtifactError(f"not a trust artifact: {path} ({err})") from err

    def parse(name: str, decode):
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

    with archive:
        header = parse(_HEADER_MEMBER, json.loads)
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
        _check_header(header, path)
        kind = header.get("payload_kind")
        if kind == "npz":
            # In memory, so the lazy member reads outlive the archive.
            members = parse(_NPZ_MEMBER, lambda raw: np.load(io.BytesIO(raw)))
        elif kind == "json":
            members = parse(_JSON_MEMBER, json.loads)
        else:
            raise ArtifactError(f"unknown payload kind in artifact: {kind!r}")
    return header, _Payload(members, path)


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


#: Each header field the loaders read (but ``min_triples``, checked by
#: :func:`~repro.core.kbt.check_min_triples`): whether every artifact
#: has it, and the shape they read it in. Set comparisons over the
#: entries' types keep it a small share of a load.
_HEADER_FIELDS = {
    "sources": (True, _key_table(3)),
    "extractors": (True, _key_table(4)),
    "items": (
        True,
        lambda rows: _rows(rows, 2)
        and _types(chain.from_iterable(rows)) <= {str},
    ),
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


def _check_header(header: dict, path: Path) -> None:
    """Every field the loaders read, in the shape they read it in: a
    damaged header is an :class:`ArtifactError` naming the file and the
    field, never a ``KeyError`` / ``TypeError`` / ``ValueError`` from a
    decoder (which ``POST /admin/swap`` would answer with a 500)."""
    try:
        check_min_triples(header.get("min_triples"))
    except ValueError as err:
        raise ArtifactError(
            f"corrupt artifact {path}: header field 'min_triples': {err}"
        ) from err
    for name, (required, check) in _HEADER_FIELDS.items():
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


def _decode_sources(header: dict) -> list[SourceKey]:
    return [_decode_source(entry) for entry in header["sources"]]


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


def _decode_columns(
    header: dict, arrays: _Payload, cache: dict
) -> ResultColumns:
    """The result's columns over the header's key tables, each section
    checked (:func:`_section`); coordinates through ``cache``
    (:func:`_decode_coords`)."""
    tables = {
        "sources": _decode_sources(header),
        "extractors": [_decode_extractor(e) for e in header["extractors"]],
        "items": [DataItem(subject, predicate)
                  for subject, predicate in header["items"]],
        "values": header["values"],
    }
    sizes = {name: len(keys) for name, keys in tables.items()}
    # Artifacts written before covered items could lack a posterior
    # entry have no ``vp_empty_item``.
    columns = {"vp_empty_item": np.zeros(0, dtype=np.intp)}
    for section, spec in _RESULT_SECTIONS.items():
        if section != "empty items" or "vp_empty_item" in arrays:
            columns.update(
                _section(
                    arrays,
                    section,
                    **{name: sizes.get(table) for name, table in spec.items()},
                )
            )
    coords = {
        prefix: _decode_coords(
            cache,
            (tables["sources"], tables["items"], tables["values"]),
            zip(
                *(
                    columns[f"{prefix}_{axis}"].tolist()
                    for axis in ("source", "item", "value")
                )
            ),
        )
        for prefix in ("coord", "prior")
    }
    return ResultColumns(
        **tables,
        est_source=id_mask(sizes["sources"], columns.pop("est_sources")),
        est_extractor=id_mask(
            sizes["extractors"], columns.pop("est_extractors")
        ),
        **columns,
        coords=coords["coord"],
        prior_coords=coords["prior"],
        vp_values=list(
            map(tables["values"].__getitem__, columns["vp_value"].tolist())
        ),
    )


def _decode_observations(
    version: int, columns: ResultColumns, arrays: _Payload, cache: dict
) -> ObservationMatrix:
    """The observation matrix, cell by cell, for every format version.

    Version 3 stores one row per cell and the matrix's extractor order.
    Versions 1 and 2 store the coordinate on every entry; a cell's
    entries are contiguous, so each run of one coordinate is a cell.
    They carry no extractor order, so their matrices rank extractors by
    first entry, as those versions always loaded them. Coordinates come
    through ``cache`` (:func:`_decode_coords`), so the cells share their
    tuples with the result's C layer and priors.
    """
    tables = (columns.sources, columns.items, columns.values)
    n_sources, n_extractors = len(columns.sources), len(columns.extractors)
    n_items, n_values = len(columns.items), len(columns.values)
    extractors = columns.extractors
    extractor_order = None
    if version >= 3:
        entries = _section(
            arrays,
            "observation entries",
            obs_extractor=n_extractors,
            obs_conf=None,
        )
        cells = _section(
            arrays,
            "observation cells",
            cell_source=n_sources,
            cell_item=n_items,
            cell_value=n_values,
            cell_len=None,
        )
        coords = _decode_coords(
            cache,
            tables,
            zip(
                cells["cell_source"].tolist(),
                cells["cell_item"].tolist(),
                cells["cell_value"].tolist(),
            )
        )
        lens = cells["cell_len"]
        extractor_order = [
            extractors[e]
            for e in _section(
                arrays, "extractor order", obs_extractor_order=n_extractors
            )["obs_extractor_order"].tolist()
        ]
    else:
        entries = _section(
            arrays,
            "observation entries",
            obs_source=n_sources,
            obs_item=n_items,
            obs_value=n_values,
            obs_extractor=n_extractors,
            obs_conf=None,
        )
        runs = [
            (cell_id, sum(1 for _ in run))
            for cell_id, run in groupby(
                zip(
                    entries["obs_source"].tolist(),
                    entries["obs_item"].tolist(),
                    entries["obs_value"].tolist(),
                )
            )
        ]
        coords = _decode_coords(
            cache, tables, (cell_id for cell_id, _ in runs)
        )
        lens = [length for _, length in runs]
    return ObservationMatrix.from_cells(
        coords,
        lens,
        [extractors[e] for e in entries["obs_extractor"].tolist()],
        entries["obs_conf"],
        extractor_order,
    )


def _decode_signals(
    header: dict, arrays: _Payload
) -> dict[str, SignalScores]:
    """Trust-signal payloads (absent from version-1 artifacts), each
    section checked (:func:`_section`) against the website table."""
    websites = header.get("websites", [])
    signals: dict[str, SignalScores] = {}
    for index, entry in enumerate(header.get("signals", [])):
        name = entry["name"]
        maps = {}
        for part, site, data in (
            ("scores", "site", "score"), ("support", "sup_site", "sup_val")
        ):
            site, data = f"sig{index}_{site}", f"sig{index}_{data}"
            columns = _section(
                arrays,
                f"signal {name!r} {part}",
                **{site: len(websites), data: None},
            )
            maps[part] = keyed(
                websites, columns[site], columns[data].tolist()
            )
        signals[name] = SignalScores(
            name=name, **maps, metadata=entry.get("metadata", {})
        )
    return signals


def load_serving_inputs(path: str | Path) -> tuple:
    """What serving reads of an artifact, and nothing else.

    Returns ``(source_accuracy, source_support, min_triples, signals,
    fusion_weights)`` — the arguments of
    :func:`repro.io.mmap_layout.serving_columns`, in its order. Only
    those sections are decoded: the observation matrix, the priors, the
    value posteriors and the extractor qualities (most of an artifact,
    and most of :func:`load_artifact`'s time) are never touched.
    """
    header, arrays = _read_members(path)
    sources = _decode_sources(header)
    accuracy = _section(
        arrays, "source accuracy", acc_source=len(sources), acc_value=None
    )
    scored = _section(
        arrays, "C layer", coord_source=len(sources), coord_p=None
    )
    return (
        keyed(sources, accuracy["acc_source"], accuracy["acc_value"].tolist()),
        source_support(sources, scored["coord_source"], scored["coord_p"]),
        header["min_triples"],
        _decode_signals(header, arrays),
        header.get("fusion_weights") or {},
    )


@paused_gc()
def load_artifact(path: str | Path) -> TrustArtifact:
    """Read an artifact written by :func:`save_artifact`.

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
            observations = _decode_observations(
                header["format_version"], columns, arrays, cache
            )
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
