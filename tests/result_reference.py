"""Result assembly, the artifact writer and the result decoders as they
were before a fitted result held columns: the parity reference of
``tests/test_result_parity.py``.

``reference_assemble_result`` is the former ``assemble_result``,
``reference_save_artifact`` the former ``save_artifact`` (with the key
interning it ran: ``_Interner``, ``_CoordinateIds``, ``_sorted_ids``),
``reference_load_result`` the result half of the former
``load_artifact`` (with ``_CoordinateDecoder`` and the section
decoders), ``reference_expected_triples_by_source`` the former
``MultiLayerResult.expected_triples_by_source``, taking the result as
its argument, and ``reference_merge_delta`` the former
``FittedKBT._merge_delta``, a dict merge, taking the fitted model as its
first argument. All are copied verbatim but for their names. The helpers
they call that did not change (the npz writer, the zip member, the
member reader, the key codecs) are imported from the library; the
member reader's arrays come as lists through :class:`_Lists`, as the
former reader gave them.

``result_from_views`` builds a result from its dict views, as the
former ``MultiLayerResult.__init__`` did: :func:`_intern`, moved here
verbatim, interns its keys once into the columns the library's one
constructor takes. The dict oracles, the Gibbs sampler of
``tests/gibbs_reference.py`` and the tests that hand-build a result go
through it.
"""

from __future__ import annotations

import json
import zipfile
from collections.abc import Iterable
from itertools import chain, repeat
from pathlib import Path
from types import SimpleNamespace
from typing import Any

import numpy as np

from repro.core.engine_numpy import ParamState
from repro.core.indexing import CompiledProblem
from repro.core.observation import ObservationMatrix
from repro.core.quality import ExtractorQuality
from repro.core.results import (
    IterationSnapshot,
    MultiLayerResult,
    ResultColumns,
    id_mask,
)
from repro.core.types import DataItem, ExtractorKey, SourceKey, Value
from repro.io.artifact import (
    FORMAT_NAME,
    FORMAT_VERSION,
    ArtifactError,
    TrustArtifact,
    _check_value,
    _decode_tables,
    _key_columns,
    _read_members,
    _write,
    config_to_dict,
)


class _Interner:
    """Assigns stable indices to keys in first-seen order."""

    def __init__(self) -> None:
        self.index: dict[Any, int] = {}

    def add(self, key: Any) -> int:
        return self.index.setdefault(key, len(self.index))

    def ids(self, keys: Iterable) -> np.ndarray:
        return np.fromiter(map(self.add, keys), dtype=np.intp)

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

    def rows(self, coords: Iterable[tuple]) -> list[int]:
        """The C-layer row of each coordinate: its own row, or the row
        whose ids its keys intern to."""
        ids = self.columns(coords).T.tolist()
        scored = self.scored.T.tolist()
        rows = {tuple(key): row for row, key in enumerate(scored)}
        return [rows[tuple(key)] for key in ids]

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
    """The table ids of a set of keys, ascending; a key the table lacks
    joins it in ``(str(key), table id)`` order."""
    index = table.index
    return sorted(
        table.add(key)
        for key in sorted(keys, key=lambda k: (str(k), index.get(k, -1)))
    )



def reference_save_artifact(artifact: TrustArtifact, path: str | Path) -> Path:
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

    # --- re-estimated priors, by C-layer row (none: the first rows) ---
    rows = coordinates.rows(result.priors)
    arrays["prior_row"] = [] if rows == list(range(len(rows))) else rows
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

    # The key tables become the library's pool-id columns, and the
    # members its zip: what is checked here is every column above.
    path = Path(path)
    tables = {
        "sources": sources.table,
        "extractors": extractors.table,
        "items": items.table,
    }
    _write(path, header, _key_columns(tables) | arrays)
    return path


def _decode_source_accuracy(
    sources: list[SourceKey], arrays
) -> dict[SourceKey, float]:
    return {
        sources[s]: acc
        for s, acc in zip(arrays["acc_source"], arrays["acc_value"])
    }



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


class _Lists:
    """The payload arrays by name, as lists."""

    def __init__(self, arrays) -> None:
        self._arrays = arrays

    def __getitem__(self, name: str) -> list:
        return self._arrays.array(name).tolist()

    def get(self, name: str, default: list) -> list:
        return self[name] if name in self._arrays else default


def reference_load_result(path: str | Path) -> MultiLayerResult:
    """The result half of ``load_artifact``."""
    header, payload = _read_members(path)
    arrays = _Lists(payload)
    # The key tables through the library's decoder (format 4 stores them
    # as pool-id columns); every array section below is read here.
    tables = _decode_tables(header, payload)
    sources, extractors = tables["sources"], tables["extractors"]
    items, values = tables["items"], tables["values"]

    coordinates = _CoordinateDecoder(sources, items, values)
    scored = coordinates.decode(arrays, "coord")
    if "prior_row" in payload:
        rows = arrays["prior_row"] or range(len(arrays["prior_p"]))
        prior_coords = [scored[row] for row in rows]
    else:
        prior_coords = coordinates.decode(arrays, "prior")
    result = result_from_views(
        value_posteriors=_decode_value_posteriors(items, values, arrays),
        extraction_posteriors=dict(zip(scored, arrays["coord_p"])),
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
        priors=dict(zip(prior_coords, arrays["prior_p"])),
    )
    return result


def reference_assemble_result(
    prob: CompiledProblem,
    observations: ObservationMatrix,
    p_correct: np.ndarray,
    posterior: np.ndarray,
    params: ParamState,
    priors: np.ndarray | None,
    history: list[IterationSnapshot],
) -> MultiLayerResult:
    """Convert the final arrays back into the dict-of-keys result views."""
    accuracy = params.accuracy
    precision = params.precision
    recall = params.recall
    q_vec = params.q_vec
    quality_init = params.quality_init
    posterior_list = posterior.tolist()
    value_posteriors: dict[DataItem, dict[Value, float]] = {}
    ptr = prob.item_ptr
    for ii, item in enumerate(prob.items):
        lo, hi = int(ptr[ii]), int(ptr[ii + 1])
        value_posteriors[item] = {
            prob.triple_value[t]: posterior_list[t] for t in range(lo, hi)
        }

    extraction_posteriors = dict(zip(prob.coords, p_correct.tolist()))

    source_accuracy = dict(zip(prob.sources, accuracy.tolist()))

    extractor_quality = dict(quality_init)
    for c, extractor in enumerate(prob.cols):
        fitted = ExtractorQuality(
            precision=float(precision[c]),
            recall=float(recall[c]),
            q=float(q_vec[c]),
        )
        if fitted != extractor_quality[extractor]:
            extractor_quality[extractor] = fitted

    priors_dict = (
        dict(zip(prob.coords, priors.tolist())) if priors is not None else {}
    )

    return result_from_views(
        value_posteriors=value_posteriors,
        extraction_posteriors=extraction_posteriors,
        source_accuracy=source_accuracy,
        extractor_quality=extractor_quality,
        estimable_sources=prob.estimable_sources,
        estimable_extractors=prob.estimable_extractors,
        num_triples_total=observations.num_triples,
        history=history,
        priors=priors_dict,
    )


def reference_expected_triples_by_source(self) -> dict[SourceKey, float]:
    """Expected number of correctly-extracted triples per source.

    Used by the KBT facade to apply the paper's "at least 5 extracted
    triples" reporting rule (Section 5.4).
    """
    totals: dict[SourceKey, float] = {}
    for (source, _item, _value), p_correct in (
        self.extraction_posteriors.items()
    ):
        totals[source] = totals.get(source, 0.0) + p_correct
    return totals


def reference_merge_delta(
    self,
    delta: MultiLayerResult,
    combined_obs: ObservationMatrix,
) -> MultiLayerResult:
    """Merge a delta re-fit into the converged result.

    Existing estimates win on overlap (the full fit saw strictly more
    evidence for them); the delta contributes estimates for keys and
    coordinates it introduced, plus refreshed value posteriors for the
    touched items.
    """
    old = self.result
    value_posteriors = dict(old.value_posteriors)
    value_posteriors.update(delta.value_posteriors)
    extraction_posteriors = dict(old.extraction_posteriors)
    for coord, p in delta.extraction_posteriors.items():
        extraction_posteriors.setdefault(coord, p)
    source_accuracy = dict(old.source_accuracy)
    for source, accuracy in delta.source_accuracy.items():
        source_accuracy.setdefault(source, accuracy)
    extractor_quality = dict(old.extractor_quality)
    for extractor, quality in delta.extractor_quality.items():
        extractor_quality.setdefault(extractor, quality)
    priors = dict(old.priors)
    for coord, prior in delta.priors.items():
        priors.setdefault(coord, prior)
    return result_from_views(
        value_posteriors=value_posteriors,
        extraction_posteriors=extraction_posteriors,
        source_accuracy=source_accuracy,
        extractor_quality=extractor_quality,
        estimable_sources=(
            old.estimable_sources | delta.estimable_sources
        ),
        estimable_extractors=(
            old.estimable_extractors | delta.estimable_extractors
        ),
        num_triples_total=combined_obs.num_triples,
        history=old.history + delta.history,
        priors=priors,
    )


# ----------------------------------------------------------------------
# Key interning: a dict-built result as columns
# ----------------------------------------------------------------------
def result_from_views(
    *,
    num_triples_total: int,
    history: list[IterationSnapshot],
    priors: dict | None = None,
    **views: Any,
) -> MultiLayerResult:
    """A result built from its dict views (the keyword names of
    :class:`MultiLayerResult`'s views): its keys interned once by
    :func:`_intern`; its views are then decoded from those columns."""
    held = SimpleNamespace(priors=priors or {}, **views)
    return MultiLayerResult(_intern(held), num_triples_total, history)


def _intern(result: MultiLayerResult) -> ResultColumns:
    """A dict-built result's columns: its keys interned section by
    section in the artifact's order, so each table lists them as the
    sections first name them (:func:`repro.io.artifact.save_artifact`).

    The priors share their coordinate tuples with the C layer (as a
    fit's and a loaded artifact's do), so they find their C-layer row by
    object identity, without hashing a key; a prior with no such row has
    its three keys interned where it stands. Every coordinate looked up
    is alive in the result for the whole call, so an ``id`` cannot be
    reused meanwhile.
    """
    tables = [_Interner() for _ in range(4)]
    sources, extractors, items, values = tables
    acc_source = sources.ids(result.source_accuracy)
    eq_extractor = extractors.ids(result.extractor_quality)
    qualities = list(result.extractor_quality.values())
    # In ``str`` order, as the artifact lists the estimable sets.
    est_source = sources.ids(sorted(result.estimable_sources, key=str))
    est_extractor = extractors.ids(
        sorted(result.estimable_extractors, key=str)
    )

    scored = list(result.extraction_posteriors)
    coord_ids = np.array(
        [
            table.ids(keys)
            for table, keys in zip(
                (sources, items, values), tuple(zip(*scored)) or ((), (), ())
            )
        ],
        dtype=np.intp,
    ).reshape(3, len(scored))
    row_of = {id(coord): row for row, coord in enumerate(scored)}
    priors = list(result.priors)
    rows = [row_of.get(id(coord), -1) for coord in priors]
    missing = [k for k, row in enumerate(rows) if row < 0]
    extra = [
        [table.add(key) for table, key in zip((sources, items, values), coord)]
        for coord in map(priors.__getitem__, missing)
    ]
    for offset, k in enumerate(missing, start=len(scored)):
        rows[k] = offset
    prior_ids = np.concatenate(
        [coord_ids, np.array(extra, dtype=np.intp).reshape(-1, 3).T], axis=1
    )[:, rows]

    filled = [(item, p) for item, p in result.value_posteriors.items() if p]
    vp_item = items.ids(
        chain.from_iterable(repeat(item, len(p)) for item, p in filled)
    )
    vp_values = list(chain.from_iterable(p for _item, p in filled))
    vp_value = values.ids(vp_values)
    vp_empty_item = items.ids(
        item for item, p in result.value_posteriors.items() if not p
    )

    def floats(column: Iterable[float]) -> np.ndarray:
        return np.array(list(column), dtype=np.float64)

    return ResultColumns(
        *(list(table.index) for table in tables),
        acc_source=acc_source,
        acc_value=floats(result.source_accuracy.values()),
        eq_extractor=eq_extractor,
        eq_precision=floats(q.precision for q in qualities),
        eq_recall=floats(q.recall for q in qualities),
        eq_q=floats(q.q for q in qualities),
        est_source=id_mask(len(sources.index), est_source),
        est_extractor=id_mask(len(extractors.index), est_extractor),
        coord_source=coord_ids[0],
        coord_item=coord_ids[1],
        coord_value=coord_ids[2],
        coord_p=floats(result.extraction_posteriors.values()),
        prior_source=prior_ids[0],
        prior_item=prior_ids[1],
        prior_value=prior_ids[2],
        prior_p=floats(result.priors.values()),
        vp_item=vp_item,
        vp_value=vp_value,
        vp_p=floats(chain.from_iterable(p.values() for _item, p in filled)),
        vp_empty_item=vp_empty_item,
        coords=scored,
        prior_coords=priors,
        vp_values=vp_values,
    )
