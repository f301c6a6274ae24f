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
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import groupby
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
from repro.core.observation import ObservationMatrix
from repro.core.quality import ExtractorQuality
from repro.core.results import IterationSnapshot, MultiLayerResult
from repro.core.types import DataItem, ExtractorKey, SourceKey
from repro.signals.base import SignalScores

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
# Key interning
# ----------------------------------------------------------------------
class _Interner:
    """Assigns stable indices to keys in first-seen order."""

    def __init__(self) -> None:
        self.index: dict[Any, int] = {}

    def add(self, key: Any) -> int:
        return self.index.setdefault(key, len(self.index))

    @property
    def table(self) -> list[Any]:
        """The keys by index (dicts keep first-seen order)."""
        return list(self.index)


class _CoordinateIds:
    """The table ids of coordinates, found through the C layer's rows.

    A fit's priors and observation cells share their coordinate tuples
    with its C layer (so does a loaded artifact's, see
    :class:`_CoordinateDecoder`), so most coordinates are found by
    object identity, without hashing a key. Any other coordinate has
    its three keys interned where it stands, which grows each table in
    the first-seen order that interning key by key gives. Every
    coordinate looked up is alive in the artifact for the whole save,
    so an ``id`` cannot be reused meanwhile.
    """

    def __init__(
        self,
        scored: dict[tuple, float],
        tables: tuple[_Interner, _Interner, _Interner],
    ) -> None:
        self._tables = tables
        self.scored = np.array(
            [
                [table.add(key) for key in keys]
                for table, keys in zip(
                    tables, tuple(zip(*scored)) or ((), (), ())
                )
            ],
            dtype=np.int64,
        )
        self._rows_by_object = {
            id(coord): row for row, coord in enumerate(scored)
        }

    def columns(self, coords: Iterable[tuple]) -> np.ndarray:
        """The (3, n) source, item and value ids of ``coords``."""
        coords = list(coords)
        by_object = self._rows_by_object
        rows = [by_object.get(id(coord), -1) for coord in coords]
        ids = self.scored
        missing = [k for k, row in enumerate(rows) if row < 0]
        if missing:
            extra = [
                [table.add(key) for table, key in zip(self._tables, coords[k])]
                for k in missing
            ]
            for offset, k in enumerate(missing, start=ids.shape[1]):
                rows[k] = offset
            ids = np.concatenate(
                [ids, np.array(extra, dtype=np.int64).T], axis=1
            )
        return ids[:, rows]


def _sorted_ids(keys: Iterable, table: _Interner) -> list[int]:
    """The table ids of a set of keys, by ``(str(key), table id)``."""
    index = table.index
    return [
        table.add(key)
        for key in sorted(keys, key=lambda k: (str(k), index.get(k, -1)))
    ]


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
    """Write ``artifact`` to ``path``; returns the path written."""
    result = artifact.result
    sources = _Interner()
    extractors = _Interner()
    items = _Interner()
    values = _Interner()
    websites = _Interner()
    arrays: dict[str, Any] = {}  # name -> list or integer ndarray

    # --- source accuracies (dict order preserved) ---------------------
    arrays["acc_source"] = [
        sources.add(s) for s in result.source_accuracy
    ]
    arrays["acc_value"] = list(result.source_accuracy.values())

    # --- extractor qualities ------------------------------------------
    arrays["eq_extractor"] = [
        extractors.add(e) for e in result.extractor_quality
    ]
    arrays["eq_precision"] = [
        q.precision for q in result.extractor_quality.values()
    ]
    arrays["eq_recall"] = [q.recall for q in result.extractor_quality.values()]
    arrays["eq_q"] = [q.q for q in result.extractor_quality.values()]

    # --- estimable sets ------------------------------------------------
    # Sorted by ``str``, then by table id (distinct keys can share a
    # ``str``): these are the only *sets* serialized, and raw set order
    # varies with string hash randomization — which would make artifact
    # bytes differ between processes for the same fit, breaking
    # determinism-ladder entry 6 (replay produces byte-identical
    # artifacts). They decode back into sets, so order is free here.
    arrays["est_sources"] = _sorted_ids(result.estimable_sources, sources)
    arrays["est_extractors"] = _sorted_ids(
        result.estimable_extractors, extractors
    )

    # --- extraction posteriors (C layer) ------------------------------
    coordinates = _CoordinateIds(
        result.extraction_posteriors, (sources, items, values)
    )
    (
        arrays["coord_source"], arrays["coord_item"], arrays["coord_value"]
    ) = coordinates.scored
    arrays["coord_p"] = list(result.extraction_posteriors.values())

    # --- re-estimated priors ------------------------------------------
    (
        arrays["prior_source"], arrays["prior_item"], arrays["prior_value"]
    ) = coordinates.columns(result.priors)
    arrays["prior_p"] = list(result.priors.values())

    # --- value posteriors (V layer) -----------------------------------
    vp_item, vp_value, vp_p = [], [], []
    for item, posterior in result.value_posteriors.items():
        if not posterior:
            continue
        vp_item.extend([items.add(item)] * len(posterior))
        for value in posterior:
            vp_value.append(values.add(value))
        vp_p.extend(posterior.values())
    arrays["vp_item"] = vp_item
    arrays["vp_value"] = vp_value
    arrays["vp_p"] = vp_p

    # --- covered items with no surviving posterior entry --------------
    arrays["vp_empty_item"] = [
        items.add(item)
        for item, posterior in result.value_posteriors.items()
        if not posterior
    ]

    # --- raw observation cells (optional, enables warm-start) ---------
    # One row per cell (its coordinate and entry count), then one row
    # per (cell, extractor) entry, cell by cell; then the matrix's own
    # first-seen extractor order, which the compiled column order of a
    # refit follows.
    has_observations = artifact.observations is not None
    if has_observations:
        matrix = artifact.observations
        cells = matrix.columns()
        (
            arrays["cell_source"], arrays["cell_item"], arrays["cell_value"]
        ) = coordinates.columns(cells.coords)
        arrays["cell_len"] = np.bincount(
            cells.entry_cell, minlength=len(cells.coords)
        )
        order = np.array(
            [extractors.add(e) for e in matrix.extractors()], dtype=np.int64
        )
        arrays["obs_extractor"] = order[cells.entry_extractor]
        arrays["obs_conf"] = cells.entry_conf
        arrays["obs_extractor_order"] = order
    # The row map must not be alive while the header and the payload
    # are serialised below, where the save's memory peaks.
    del coordinates
    # Every value entered its table through ``add``.
    for value in values.index:
        _check_value(value)

    # --- trust-signal payloads (format >= 2) --------------------------
    signal_entries = []
    for index, (name, scores) in enumerate(artifact.signals.items()):
        if name != scores.name:
            raise ArtifactError(
                f"signal registered as {name!r} but named {scores.name!r}"
            )
        arrays[f"sig{index}_site"] = [
            websites.add(site) for site in scores.scores
        ]
        arrays[f"sig{index}_score"] = list(scores.scores.values())
        arrays[f"sig{index}_sup_site"] = [
            websites.add(site) for site in scores.support
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
        "sources": [_encode_key(s) for s in sources.table],
        "extractors": [_encode_key(e) for e in extractors.table],
        "items": [[i.subject, i.predicate] for i in items.table],
        "values": values.table,
        "history": [
            [h.iteration, h.max_accuracy_delta, h.max_extractor_delta]
            for h in result.history
        ],
        "num_triples_total": result.num_triples_total,
        "has_observations": has_observations,
        "websites": websites.table,
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
            if name.endswith(_FLOAT_SUFFIXES) or name == "acc_value":
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
class _NpzArrays:
    """``payload.npz`` by array name; a member is decoded on access.

    Stands in for the dict a json payload parses into, so the section
    decoders below read either kind, and a caller that wants two
    sections never pays for the other ten.
    """

    def __init__(self, npz) -> None:
        self._npz = npz

    def __getitem__(self, name: str) -> list:
        return self._npz[name].tolist()

    def get(self, name: str, default: list) -> list:
        return self[name] if name in self._npz.files else default


def _read_members(path: str | Path) -> tuple[dict, Any]:
    """The validated header and the payload arrays (name -> list).

    Raises :class:`ArtifactError` for non-artifact files and for any
    ``format_version`` this build cannot read.
    """
    path = Path(path)
    try:
        archive = zipfile.ZipFile(path)
    except (zipfile.BadZipFile, FileNotFoundError, IsADirectoryError) as err:
        raise ArtifactError(f"not a trust artifact: {path} ({err})") from err
    with archive:
        try:
            header = json.loads(archive.read(_HEADER_MEMBER))
        except KeyError as err:
            raise ArtifactError(
                f"not a trust artifact: {path} (no {_HEADER_MEMBER})"
            ) from err
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
        kind = header.get("payload_kind")
        if kind == "npz":
            # In memory, so the lazy member reads outlive the archive.
            arrays = _NpzArrays(np.load(io.BytesIO(archive.read(_NPZ_MEMBER))))
        elif kind == "json":
            arrays = json.loads(archive.read(_JSON_MEMBER))
        else:
            raise ArtifactError(f"unknown payload kind in artifact: {kind!r}")
    return header, arrays


def _decode_sources(header: dict) -> list[SourceKey]:
    return [_decode_source(entry) for entry in header["sources"]]


def _decode_source_accuracy(
    sources: list[SourceKey], arrays
) -> dict[SourceKey, float]:
    return {
        sources[s]: acc
        for s, acc in zip(arrays["acc_source"], arrays["acc_value"])
    }


def _decode_source_support(
    sources: list[SourceKey], arrays
) -> dict[SourceKey, float]:
    """``MultiLayerResult.expected_triples_by_source`` straight from the
    C-layer columns: the same additions in the same order (``bincount``
    adds its weights one by one, in input order, from 0.0), without
    building a coordinate key per cell. Sources come in first-seen
    order, as the dict the result builds has them."""
    coord_source = np.asarray(arrays["coord_source"], dtype=np.intp)
    totals = np.bincount(
        coord_source, weights=np.asarray(arrays["coord_p"], dtype=np.float64)
    )
    seen, first = np.unique(coord_source, return_index=True)
    order = seen[np.argsort(first)].tolist()
    return dict(
        zip(map(sources.__getitem__, order), totals[order].tolist())
    )


def _decode_extractor_quality(
    extractors: list[ExtractorKey], arrays
) -> dict[ExtractorKey, ExtractorQuality]:
    return {
        extractors[e]: ExtractorQuality(
            precision=precision, recall=recall, q=q
        )
        for e, precision, recall, q in zip(
            arrays["eq_extractor"],
            arrays["eq_precision"],
            arrays["eq_recall"],
            arrays["eq_q"],
        )
    }


class _CoordinateDecoder:
    """Coordinate tuples by their (source, item, value) ids, each built
    once: the C layer, the priors and the cells of a loaded artifact
    share their tuples, as a fit's do, which lets the next save find
    them by identity (:class:`_CoordinateIds`)."""

    def __init__(self, sources: list, items: list, values: list) -> None:
        self._tables = (sources, items, values)
        self._coords: dict[tuple[int, int, int], tuple] = {}

    def decode(self, arrays, prefix: str) -> list[tuple]:
        """The coordinates of one section's ``_source`` / ``_item`` /
        ``_value`` columns: ``coord`` the C layer, ``prior`` the
        re-estimated priors, ``cell`` the observation cells."""
        return self.decode_ids(
            zip(
                arrays[f"{prefix}_source"],
                arrays[f"{prefix}_item"],
                arrays[f"{prefix}_value"],
            )
        )

    def decode_ids(self, ids) -> list[tuple]:
        sources, items, values = self._tables
        coords = self._coords
        out = []
        for key in ids:
            coord = coords.get(key)
            if coord is None:
                s, i, v = key
                coord = coords[key] = (sources[s], items[i], values[v])
            out.append(coord)
        return out


def _decode_value_posteriors(
    items: list, values: list, arrays
) -> dict[DataItem, dict]:
    value_posteriors: dict[DataItem, dict] = {}
    for i, v, p in zip(arrays["vp_item"], arrays["vp_value"], arrays["vp_p"]):
        value_posteriors.setdefault(items[i], {})[values[v]] = p
    for i in arrays.get("vp_empty_item", []):
        value_posteriors.setdefault(items[i], {})
    return value_posteriors


def _decode_observations(
    version: int, coordinates: _CoordinateDecoder, extractors: list, arrays
) -> ObservationMatrix:
    """The observation matrix, cell by cell, for every format version.

    Version 3 stores one row per cell and the matrix's extractor order.
    Versions 1 and 2 store the coordinate on every entry; a cell's
    entries are contiguous, so each run of one coordinate is a cell.
    They carry no extractor order, so their matrices rank extractors by
    first entry, as those versions always loaded them.
    """
    extractor_order = None
    if version >= 3:
        coords = coordinates.decode(arrays, "cell")
        lens = arrays["cell_len"]
        extractor_order = [
            extractors[e] for e in arrays["obs_extractor_order"]
        ]
    else:
        runs = [
            (cell_id, sum(1 for _ in run))
            for cell_id, run in groupby(
                zip(arrays["obs_source"], arrays["obs_item"],
                    arrays["obs_value"])
            )
        ]
        coords = coordinates.decode_ids(cell_id for cell_id, _ in runs)
        lens = [length for _, length in runs]
    return ObservationMatrix.from_cells(
        coords,
        lens,
        [extractors[e] for e in arrays["obs_extractor"]],
        arrays["obs_conf"],
        extractor_order,
    )


def _decode_signals(header: dict, arrays) -> dict[str, SignalScores]:
    """Trust-signal payloads (absent from version-1 artifacts)."""
    website_table = header.get("websites", [])
    signals: dict[str, SignalScores] = {}
    for index, entry in enumerate(header.get("signals", [])):
        name = entry["name"]
        signals[name] = SignalScores(
            name=name,
            scores={
                website_table[site]: score
                for site, score in zip(
                    arrays[f"sig{index}_site"],
                    arrays[f"sig{index}_score"],
                )
            },
            support={
                website_table[site]: value
                for site, value in zip(
                    arrays[f"sig{index}_sup_site"],
                    arrays[f"sig{index}_sup_val"],
                )
            },
            metadata=entry.get("metadata", {}),
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
    return (
        _decode_source_accuracy(sources, arrays),
        _decode_source_support(sources, arrays),
        header["min_triples"],
        _decode_signals(header, arrays),
        header.get("fusion_weights") or {},
    )


def load_artifact(path: str | Path) -> TrustArtifact:
    """Read an artifact written by :func:`save_artifact`.

    Raises :class:`ArtifactError` for non-artifact files and for any
    ``format_version`` this build cannot read. Version-1 artifacts (no
    embedded trust signals) load with ``signals == {}``.
    """
    header, arrays = _read_members(path)
    sources = _decode_sources(header)
    extractors = [_decode_extractor(entry) for entry in header["extractors"]]
    items = [DataItem(subject, predicate)
             for subject, predicate in header["items"]]
    values = header["values"]

    coordinates = _CoordinateDecoder(sources, items, values)
    result = MultiLayerResult(
        value_posteriors=_decode_value_posteriors(items, values, arrays),
        extraction_posteriors=dict(
            zip(coordinates.decode(arrays, "coord"), arrays["coord_p"])
        ),
        source_accuracy=_decode_source_accuracy(sources, arrays),
        extractor_quality=_decode_extractor_quality(extractors, arrays),
        estimable_sources={sources[s] for s in arrays["est_sources"]},
        estimable_extractors={
            extractors[e] for e in arrays["est_extractors"]
        },
        num_triples_total=header["num_triples_total"],
        history=[
            IterationSnapshot(iteration, acc_delta, ext_delta)
            for iteration, acc_delta, ext_delta in header["history"]
        ],
        priors=dict(
            zip(coordinates.decode(arrays, "prior"), arrays["prior_p"])
        ),
    )

    observations = None
    if header.get("has_observations"):
        try:
            observations = _decode_observations(
                header["format_version"], coordinates, extractors, arrays
            )
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
