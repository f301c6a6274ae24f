"""Key identity: every key exists once per read and is looked up once.

Three properties, each pinned without a wall clock:

* the readers return what a memo-less parse returns, record for record,
  and within one read equal keys are the *same object* — across chunk
  boundaries and across the files of one spool poll, but never across
  two reads (the memo is scoped to the call);
* identity is only ever a shortcut: ``save_artifact`` writes the same
  bytes for a matrix built from interned records and for one built from
  hand-constructed equal-but-distinct keys;
* the artifact encoder touches a key table once per coordinate, not
  once per coordinate per section (counted ``_Interner.add`` calls).
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

pytest.importorskip("numpy")

from repro.core.config import ConvergenceConfig, MultiLayerConfig
from repro.core.kbt import FittedKBT, KBTEstimator
from repro.core.observation import ObservationMatrix
from repro.ingest.stream import SpoolDirectorySource
from repro.io import artifact as artifact_module
from repro.io.jsonl import (
    read_record_chunks,
    read_records,
    record_from_dict,
)

GOLDENS_DIR = Path(__file__).parent / "goldens"
CORPUS = GOLDENS_DIR / "corpus.jsonl"
UPDATES = GOLDENS_DIR / "updates.jsonl"


def distinct_records(path: Path) -> list:
    """The memo-less parse: every record gets key objects of its own."""
    with open(path, encoding="utf-8") as handle:
        return [
            record_from_dict(json.loads(line))
            for line in handle
            if line.strip()
        ]


def key_sets(records) -> dict[str, list]:
    return {
        "sources": [record.source for record in records],
        "extractors": [record.extractor for record in records],
        "items": [record.item for record in records],
    }


def assert_one_object_per_key(records) -> None:
    for kind, keys in key_sets(records).items():
        assert len({id(key) for key in keys}) == len(set(keys)), kind
        assert len(set(keys)) < len(keys), f"{kind}: corpus has no repeats"


# ----------------------------------------------------------------------
# The readers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("path", [CORPUS, UPDATES], ids=lambda p: p.stem)
class TestReaders:
    def test_read_records(self, path):
        records = list(read_records(path))
        assert records == distinct_records(path)
        assert_one_object_per_key(records)

    def test_read_record_chunks_across_chunk_boundaries(self, path):
        chunks = list(read_record_chunks(path, chunk_size=7))
        assert len(chunks) > 1
        records = [record for chunk in chunks for record in chunk]
        assert records == distinct_records(path)
        assert_one_object_per_key(records)

    def test_the_memo_ends_with_the_read(self, path):
        first = list(read_records(path))
        second = list(read_records(path))
        assert first == second
        for ours, theirs in zip(
            key_sets(first).values(), key_sets(second).values()
        ):
            assert not {id(key) for key in ours} & {
                id(key) for key in theirs
            }


def test_one_spool_poll_interns_across_its_files(tmp_path):
    shutil.copy(CORPUS, tmp_path / "a.jsonl")
    shutil.copy(UPDATES, tmp_path / "b.jsonl")
    shutil.copy(CORPUS, tmp_path / "c.jsonl")
    records = SpoolDirectorySource(tmp_path).poll(10**6)
    expected = (
        distinct_records(CORPUS)
        + distinct_records(UPDATES)
        + distinct_records(CORPUS)
    )
    assert records == expected
    assert_one_object_per_key(records)


def test_distinct_records_really_are_distinct():
    # The reference the parity tests below compare against must not be
    # interned itself, or they would compare a thing with itself.
    records = distinct_records(CORPUS)
    for keys in key_sets(records).values():
        assert len({id(key) for key in keys}) == len(keys)


# ----------------------------------------------------------------------
# Artifact bytes do not depend on identity
# ----------------------------------------------------------------------
def fit_config(**overrides) -> MultiLayerConfig:
    # The golden corpus has four extractors of 68-84 cells: a support
    # floor of 70 leaves one without a column, so the cells only it
    # extracted are never scored and reach the artifact's key tables
    # through the observation section alone.
    return MultiLayerConfig(
        engine="numpy",
        min_extractor_support=70,
        convergence=ConvergenceConfig(max_iterations=4, tolerance=0.0),
        **overrides,
    )


def fitted_from(records, **overrides) -> FittedKBT:
    return KBTEstimator(fit_config(**overrides), min_triples=0).fit(
        ObservationMatrix.from_records(records)
    )


def third(records, part: int) -> list:
    size = -(-len(records) // 3)
    return records[part * size : (part + 1) * size]


def save_cold(fitted, path):
    fitted.save(path)


def save_without_observations(fitted, path):
    fitted.save(path, include_observations=False)


SCENARIOS = {
    "cold-fit-unscored-cells": ({}, None, save_cold),
    "empty-priors": ({"update_prior": False}, None, save_cold),
    "no-observations": ({}, None, save_without_observations),
    "three-updates": ({}, UPDATES, save_cold),
}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_artifact_bytes_equal_for_interned_and_distinct_keys(
    scenario, tmp_path
):
    overrides, updates, save = SCENARIOS[scenario]
    written = {}
    for side, parse in [
        ("interned", lambda path: list(read_records(path))),
        ("distinct", distinct_records),
    ]:
        fitted = fitted_from(parse(CORPUS), **overrides)
        if updates is not None:
            batch = parse(updates)
            for part in range(3):
                fitted = fitted.update(third(batch, part))
        target = tmp_path / f"{side}.kbt"
        save(fitted, target)
        written[side] = (fitted, target.read_bytes())
    fitted, interned_bytes = written["interned"]
    assert interned_bytes == written["distinct"][1]

    # Each scenario is the case its name says it is.
    scored = len(fitted.result.extraction_posteriors)
    if scenario == "cold-fit-unscored-cells":
        assert 0 < scored < fitted.observations.num_cells
    if scenario == "empty-priors":
        assert not fitted.result.priors
    else:
        assert fitted.result.priors


# ----------------------------------------------------------------------
# One table lookup per coordinate
# ----------------------------------------------------------------------
def test_encoder_interns_each_coordinate_once(tmp_path, monkeypatch):
    fitted = fitted_from(list(read_records(CORPUS)))
    result, observations = fitted.result, fitted.observations
    cells = dict(observations.cells())
    coordinates = (
        set(result.extraction_posteriors) | set(result.priors) | set(cells)
    )
    assert set(result.priors) and len(cells) > len(
        result.extraction_posteriors
    ), "fixture must exercise the priors and the unscored cells"
    bound = (
        # (source, item, value) of each coordinate, whatever number of
        # sections it appears in
        3 * len(coordinates)
        # one value per value-posterior entry, one item per covered item
        + sum(len(p) for p in result.value_posteriors.values())
        + len(result.value_posteriors)
        # one extractor per cell entry
        + sum(len(cell) for cell in cells.values())
        + len(result.source_accuracy)
        + len(result.extractor_quality)
        + len(result.estimable_sources)
        + len(result.estimable_extractors)
    )

    calls = 0
    add = artifact_module._Interner.add

    def counting_add(self, key):
        nonlocal calls
        calls += 1
        return add(self, key)

    monkeypatch.setattr(artifact_module._Interner, "add", counting_add)
    fitted.save(tmp_path / "counted.kbt")
    assert 0 < calls <= bound
