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
  (:mod:`repro.signals`) — as flat arrays, ``payload.npz``. Loading
  also accepts a ``payload.json`` member (the same arrays as plain
  lists), which builds before this one could write.

Floats survive the payload bit-for-bit and every dict is rebuilt in its
original insertion order, so re-aggregating scores from a loaded
artifact reproduces the original ``website_scores()`` to the last bit.

Artifacts written by a newer ``FORMAT_VERSION`` are rejected with a clear
:class:`ArtifactError` instead of being misread. Older supported versions
load transparently: a version-1 artifact (pre trust-signal era) loads
with an empty signal set.

Values are restricted to the JSON scalar types (str / int / float / bool /
None) — exactly what :mod:`repro.io.jsonl` can produce. Composite values
raise :class:`ArtifactError` at save time.
"""

from __future__ import annotations

import dataclasses
import io
import json
import zipfile
from dataclasses import dataclass, field
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
from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    SourceKey,
)
from repro.signals.base import SignalScores

#: Format identifier stored in (and required from) every artifact header.
FORMAT_NAME = "kbt-trust-artifact"

#: Bump on any incompatible change to the header or payload layout.
#: Version history: 1 = KBT-only artifacts; 2 = adds embedded trust
#: signals (per-website score/support arrays + fusion weights).
FORMAT_VERSION = 2

#: Versions this build can read (older versions load compatibly).
SUPPORTED_VERSIONS = frozenset({1, FORMAT_VERSION})

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
    arrays: dict[str, list] = {}

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
    # Sorted: these are the only *sets* serialized, and raw set order
    # varies with string hash randomization — which would make artifact
    # bytes differ between processes for the same fit, breaking
    # determinism-ladder entry 6 (replay produces byte-identical
    # artifacts). They decode back into sets, so order is free here.
    arrays["est_sources"] = [
        sources.add(s) for s in sorted(result.estimable_sources, key=str)
    ]
    arrays["est_extractors"] = [
        extractors.add(e)
        for e in sorted(result.estimable_extractors, key=str)
    ]

    # --- extraction posteriors (C layer) ------------------------------
    # ``coord_row`` remembers each scored coordinate's row, so the
    # priors and the observation cells below take its three table
    # indices from the columns built here: one lookup per coordinate
    # instead of three per section. A coordinate found in it has all
    # three keys in the tables already, so first-seen table order —
    # hence the artifact bytes — is what interning key by key gives.
    coord_row: dict[tuple, int] = {}
    coord_source, coord_item, coord_value, coord_p = [], [], [], []
    for coord, p in result.extraction_posteriors.items():
        source, item, value = coord
        coord_row[coord] = len(coord_p)
        coord_source.append(sources.add(source))
        coord_item.append(items.add(item))
        coord_value.append(values.add(_check_value(value)))
        coord_p.append(p)
    arrays["coord_source"] = coord_source
    arrays["coord_item"] = coord_item
    arrays["coord_value"] = coord_value
    arrays["coord_p"] = coord_p

    def coordinate(coord: tuple) -> tuple[int, int, int]:
        row = coord_row.get(coord)
        if row is not None:
            return coord_source[row], coord_item[row], coord_value[row]
        source, item, value = coord
        return (
            sources.add(source),
            items.add(item),
            values.add(_check_value(value)),
        )

    # --- re-estimated priors ------------------------------------------
    prior_source, prior_item, prior_value = [], [], []
    for coord in result.priors:
        s, i, v = coordinate(coord)
        prior_source.append(s)
        prior_item.append(i)
        prior_value.append(v)
    arrays["prior_source"] = prior_source
    arrays["prior_item"] = prior_item
    arrays["prior_value"] = prior_value
    arrays["prior_p"] = list(result.priors.values())

    # --- value posteriors (V layer) -----------------------------------
    vp_item, vp_value, vp_p = [], [], []
    for item, posterior in result.value_posteriors.items():
        if not posterior:
            continue
        vp_item.extend([items.add(item)] * len(posterior))
        for value in posterior:
            vp_value.append(values.add(_check_value(value)))
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
    # One row per (coordinate, extractor) cell entry, cell by cell.
    has_observations = artifact.observations is not None
    if has_observations:
        obs_source, obs_item, obs_value = [], [], []
        obs_extractor, obs_conf = [], []
        for coord, cell in artifact.observations.cells():
            s, i, v = coordinate(coord)
            entries = len(cell)
            obs_source.extend([s] * entries)
            obs_item.extend([i] * entries)
            obs_value.extend([v] * entries)
            for extractor in cell:
                obs_extractor.append(extractors.add(extractor))
            obs_conf.extend(cell.values())
        arrays["obs_source"] = obs_source
        arrays["obs_item"] = obs_item
        arrays["obs_value"] = obs_value
        arrays["obs_extractor"] = obs_extractor
        arrays["obs_conf"] = obs_conf
    # The memo is the save's largest transient; it must not be alive
    # while the header and the payload are serialised below.
    coord_row.clear()

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
    with atomic_write(path, "wb") as handle:
        with zipfile.ZipFile(handle, "w", zipfile.ZIP_DEFLATED) as archive:
            archive.writestr(
                _zip_member(_HEADER_MEMBER),
                json.dumps(header, ensure_ascii=False),
            )
            archive.writestr(
                _zip_member(_NPZ_MEMBER), _deterministic_npz(arrays)
            )
    return path


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


def _deterministic_npz(arrays: dict[str, list]) -> bytes:
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
            array = np.asarray(
                data,
                dtype=(
                    np.float64 if name.endswith(
                        ("_p", "_conf", "_precision", "_recall",
                         "_q", "_score", "_sup_val")
                    ) or name == "acc_value"
                    else np.int64
                ),
            )
            member = io.BytesIO()
            np.lib.format.write_array(member, array)
            info = zipfile.ZipInfo(f"{name}.npy", date_time=_ZIP_EPOCH)
            info.external_attr = 0o644 << 16
            inner.writestr(info, member.getvalue())
    return buffer.getvalue()


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
    C-layer columns: the same additions in the same order, without
    building a coordinate key per cell."""
    totals: dict[int, float] = {}
    for s, p in zip(arrays["coord_source"], arrays["coord_p"]):
        totals[s] = totals.get(s, 0.0) + p
    return {sources[s]: total for s, total in totals.items()}


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


def _decode_coordinates(
    prefix: str, sources: list, items: list, values: list, arrays
) -> dict[tuple, float]:
    """One (source, item, value) -> probability section: ``coord`` is the
    C layer, ``prior`` the re-estimated priors."""
    return {
        (sources[s], items[i], values[v]): p
        for s, i, v, p in zip(
            arrays[f"{prefix}_source"],
            arrays[f"{prefix}_item"],
            arrays[f"{prefix}_value"],
            arrays[f"{prefix}_p"],
        )
    }


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
    sources: list, extractors: list, items: list, values: list, arrays
) -> ObservationMatrix:
    return ObservationMatrix.from_records(
        ExtractionRecord(
            extractor=extractors[e],
            source=sources[s],
            item=items[i],
            value=values[v],
            confidence=conf,
        )
        for s, i, v, e, conf in zip(
            arrays["obs_source"],
            arrays["obs_item"],
            arrays["obs_value"],
            arrays["obs_extractor"],
            arrays["obs_conf"],
        )
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

    result = MultiLayerResult(
        value_posteriors=_decode_value_posteriors(items, values, arrays),
        extraction_posteriors=_decode_coordinates(
            "coord", sources, items, values, arrays
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
        priors=_decode_coordinates("prior", sources, items, values, arrays),
    )

    observations = None
    if header.get("has_observations"):
        observations = _decode_observations(
            sources, extractors, items, values, arrays
        )

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
