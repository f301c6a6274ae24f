"""Unit tests for the versioned trust-artifact round trip."""

import dataclasses
import hashlib
import io
import json
import random
import tempfile
import zipfile
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    AbsenceScope,
    ConvergenceConfig,
    FalseValueModel,
    GranularityConfig,
    MultiLayerConfig,
)
from repro.core.kbt import FittedKBT, KBTEstimator
from repro.core.multi_layer import MultiLayerModel
from repro.core.observation import ObservationMatrix
from repro.core.quality import ExtractorQuality
from repro.core.results import (
    IterationSnapshot,
    MultiLayerResult,
    source_support,
)
from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    SourceKey,
    page_source,
)
from repro.datasets.kv import KVConfig, iter_kv_record_chunks
from repro.io.artifact import (
    FORMAT_VERSION,
    ArtifactError,
    TrustArtifact,
    config_from_dict,
    config_to_dict,
    load_artifact,
    load_serving_inputs,
    save_artifact,
)
from repro.io.jsonl import read_records
from repro.signals.base import SignalScores

from test_determinism_ladder import CORPUS, GOLDENS_DIR, result_digest
from test_observation import cells_of, records_of, snapshot
from result_reference import result_from_views


def page_records(website, url, extractor, items, value_fn):
    return [
        ExtractionRecord(
            extractor=ExtractorKey((extractor,)),
            source=page_source(website, "p", url),
            item=DataItem(s, "p"),
            value=value_fn(s),
        )
        for s in items
    ]


def corpus():
    records = []
    subjects = [f"s{i}" for i in range(12)]
    for i, site in enumerate(("a.com", "b.com", "c.com", "good.com")):
        records.extend(
            page_records(site, f"{site}/p", f"e{i % 2}", subjects,
                         lambda s: f"true-{s}")
        )
    records.extend(
        page_records("bad.com", "bad.com/p", "e0", subjects,
                     lambda s: f"false-{s}")
    )
    return records


@pytest.fixture(scope="module")
def fitted():
    return KBTEstimator().fit(corpus())


def rewrite_header(path, out_path, **overrides):
    """Copy an artifact, patching header fields."""
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    header = json.loads(members["header.json"])
    header.update(overrides)
    members["header.json"] = json.dumps(header)
    with zipfile.ZipFile(out_path, "w") as archive:
        for name, data in members.items():
            archive.writestr(name, data)
    return out_path


def member_arrays(path) -> dict:
    """A format-4 artifact's column members, by column name."""
    with zipfile.ZipFile(path) as archive:
        return {
            name[: -len(".npy")]: np.load(io.BytesIO(archive.read(name)))
            for name in archive.namelist()
            if name.endswith(".npy")
        }


def v3_parts(path) -> tuple[dict, dict]:
    """The header and payload arrays of an artifact in the format-3
    layout: a format-4 artifact's key columns become the header's JSON
    tables, and its prior rows the priors' key ids."""
    with zipfile.ZipFile(path) as archive:
        header = json.loads(archive.read("header.json"))
        if header["format_version"] < 4:
            npz = np.load(io.BytesIO(archive.read("payload.npz")))
            return header, {name: npz[name] for name in npz.files}
    arrays = member_arrays(path)
    blob, offsets = arrays.pop("pool.blob"), arrays.pop("pool.off").tolist()
    strings = [None] + [
        blob[lo:hi].tobytes().decode("utf-8")
        for lo, hi in zip(offsets, offsets[1:])
    ]
    for prefix, table in (("src", "sources"), ("ext", "extractors")):
        feat = arrays.pop(f"{prefix}_feat").tolist()
        buckets = arrays.pop(f"{prefix}_bucket", np.zeros(len(feat)))
        header[table] = [
            [[strings[i] for i in row if i], int(b) - 1 if b else None]
            for row, b in zip(feat, buckets.tolist())
        ]
    header["items"] = [
        [strings[subject], strings[predicate]]
        for subject, predicate in zip(
            arrays.pop("item_subj").tolist(), arrays.pop("item_pred").tolist()
        )
    ]
    rows = arrays.pop("prior_row")
    if not len(rows):  # the first len(prior_p) C-layer rows
        rows = np.arange(len(arrays["prior_p"]))
    out = {}
    for name, array in arrays.items():
        if name == "prior_p":
            for axis in ("source", "item", "value"):
                out[f"prior_{axis}"] = arrays[f"coord_{axis}"][rows]
        out[name] = array
    header["format_version"] = 3
    header["payload_kind"] = "npz"
    return header, out


def write_v3(header, arrays, out_path):
    payload = io.BytesIO()
    np.savez(payload, **arrays)
    with zipfile.ZipFile(out_path, "w", zipfile.ZIP_DEFLATED) as archive:
        archive.writestr("header.json", json.dumps(header))
        archive.writestr("payload.npz", payload.getvalue())
    return out_path


def as_v3(path, out_path):
    """Copy an artifact in the format-3 layout (:func:`v3_parts`): what
    the last format-3 build would have written for the same fit, up to
    the zip's own bytes."""
    return write_v3(*v3_parts(path), out_path)


def with_json_payload(path, out_path):
    """Copy an artifact in the format-3 layout with its arrays as a
    hand-built ``payload.json`` member: nothing writes that form any
    more, files on disk have it."""
    header, arrays = v3_parts(path)
    header["payload_kind"] = "json"
    arrays = {name: array.tolist() for name, array in arrays.items()}
    with zipfile.ZipFile(out_path, "w") as archive:
        archive.writestr("header.json", json.dumps(header))
        archive.writestr("payload.json", json.dumps(arrays))
    return out_path


def as_v2(path, out_path):
    """Copy an artifact in the format-2 layout: ``int64`` key columns,
    the coordinate on every observation entry, no extractor order."""
    header, arrays = v3_parts(path)
    header["format_version"] = 2
    if header["has_observations"]:
        lens = arrays.pop("cell_len")
        for axis in ("source", "item", "value"):
            arrays[f"obs_{axis}"] = np.repeat(arrays.pop(f"cell_{axis}"), lens)
        del arrays["obs_extractor_order"]
    return write_v3(
        header,
        {
            name: array if array.dtype.kind == "f" else array.astype(np.int64)
            for name, array in arrays.items()
        },
        out_path,
    )


def payload_arrays(path) -> dict:
    """The arrays of a format-1 to -3 artifact's ``payload.npz``."""
    with zipfile.ZipFile(path) as archive:
        npz = np.load(io.BytesIO(archive.read("payload.npz")))
        return {name: npz[name] for name in npz.files}


def narrowest(array) -> np.dtype:
    """The dtype formats 3 and 4 store an integer column at."""
    if array.size and array.min() < 0:
        return np.dtype(np.int64)
    top = array.max() if array.size else 0
    for dtype in (np.uint8, np.uint16, np.uint32):
        if top <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def entry_order(matrix) -> list:
    """Extractors by first cell entry: the order format 1 / 2 reload."""
    return list(
        dict.fromkeys(e for _coord, cell in cells_of(matrix) for e in cell)
    )


def scores_digest(scores) -> str:
    """sha256 over every website's score and support, exact."""
    lines = [
        f"{site} {float(s.score).hex()} {float(s.support).hex()}"
        for site, s in sorted(scores.items())
    ]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


class TestRoundTrip:
    @pytest.mark.parametrize("payload", ["npz", "json"])
    def test_scores_bit_for_bit(self, fitted, tmp_path, payload):
        path = fitted.save(tmp_path / "model.kbt")
        if payload == "json":
            path = with_json_payload(path, tmp_path / "json.kbt")
        loaded = FittedKBT.load(path)
        original = fitted.website_scores()
        reloaded = loaded.website_scores()
        assert original.keys() == reloaded.keys()
        for site in original:
            assert original[site].score == reloaded[site].score
            assert original[site].support == reloaded[site].support

    def test_result_state_exact(self, fitted, tmp_path):
        path = fitted.save(tmp_path / "model.kbt")
        loaded = FittedKBT.load(path)
        result, expected = loaded.result, fitted.result
        assert result.value_posteriors == expected.value_posteriors
        assert result.extraction_posteriors == expected.extraction_posteriors
        assert result.source_accuracy == expected.source_accuracy
        assert result.extractor_quality == expected.extractor_quality
        assert result.estimable_sources == expected.estimable_sources
        assert result.estimable_extractors == expected.estimable_extractors
        assert result.priors == expected.priors
        assert result.history == expected.history
        assert result.num_triples_total == expected.num_triples_total
        assert loaded.config == fitted.config
        assert loaded.min_triples == fitted.min_triples

    def test_dict_orders_preserved(self, fitted, tmp_path):
        """Bit-for-bit aggregation needs the original insertion orders."""
        path = fitted.save(tmp_path / "model.kbt")
        loaded = FittedKBT.load(path)
        assert list(loaded.result.source_accuracy) == list(
            fitted.result.source_accuracy
        )
        assert list(loaded.result.extraction_posteriors) == list(
            fitted.result.extraction_posteriors
        )

    def test_observations_round_trip(self, fitted, tmp_path):
        path = fitted.save(tmp_path / "model.kbt")
        loaded = FittedKBT.load(path)
        original = sorted(map(repr, records_of(fitted.observations)))
        reloaded = sorted(map(repr, records_of(loaded.observations)))
        assert original == reloaded

    def test_serving_only_artifact_has_no_observations(
        self, fitted, tmp_path
    ):
        path = fitted.save(
            tmp_path / "model.kbt", include_observations=False
        )
        loaded = FittedKBT.load(path)
        assert loaded.observations is None
        with pytest.raises(ValueError, match="observation matrix"):
            loaded.update(corpus()[:1])

    def test_granularity_and_metadata_round_trip(self, tmp_path):
        fitted = KBTEstimator(
            granularity=GranularityConfig(min_size=3, max_size=100),
            min_triples=2.0,
            seed=11,
        ).fit(corpus())
        path = fitted.save(tmp_path / "model.kbt", metadata={"run": "x1"})
        loaded = FittedKBT.load(path)
        assert loaded.granularity == GranularityConfig(
            min_size=3, max_size=100
        )
        assert loaded.seed == 11
        assert load_artifact(path).metadata == {"run": "x1"}

    def test_numeric_values_keep_types(self, tmp_path):
        records = [
            ExtractionRecord(
                extractor=ExtractorKey(("e0",)),
                source=page_source("num.com", "p", "num.com/p"),
                item=DataItem(f"s{i}", "p"),
                value=value,
            )
            for i, value in enumerate([1, 2.5, "three", None, True] * 3)
        ]
        fitted = KBTEstimator(min_triples=0.0).fit(records)
        loaded = FittedKBT.load(fitted.save(tmp_path / "model.kbt"))
        original_values = {
            coord[2] for coord in fitted.result.extraction_posteriors
        }
        reloaded_values = {
            coord[2] for coord in loaded.result.extraction_posteriors
        }
        assert original_values == reloaded_values


class TestRejection:
    def test_unknown_format_version(self, fitted, tmp_path):
        path = fitted.save(tmp_path / "model.kbt")
        future = rewrite_header(
            path, tmp_path / "future.kbt",
            format_version=FORMAT_VERSION + 1,
        )
        with pytest.raises(ArtifactError, match="format version"):
            load_artifact(future)

    def test_version_5_rejected(self, fitted, tmp_path):
        path = fitted.save(tmp_path / "model.kbt")
        future = rewrite_header(path, tmp_path / "v5.kbt", format_version=5)
        with pytest.raises(ArtifactError, match="format version 5"):
            load_artifact(future)

    @pytest.mark.parametrize("version", [[4], {"v": 4}])
    def test_version_of_another_type_rejected(
        self, fitted, tmp_path, version
    ):
        path = rewrite_header(
            fitted.save(tmp_path / "model.kbt"),
            tmp_path / "odd.kbt",
            format_version=version,
        )
        with pytest.raises(ArtifactError, match="format version"):
            load_artifact(path)

    def test_foreign_format_name(self, fitted, tmp_path):
        path = fitted.save(tmp_path / "model.kbt")
        foreign = rewrite_header(
            path, tmp_path / "foreign.kbt", format="other-artifact"
        )
        with pytest.raises(ArtifactError, match="not a trust artifact"):
            load_artifact(foreign)

    def test_not_a_zip(self, tmp_path):
        path = tmp_path / "garbage.kbt"
        path.write_text("not an artifact", encoding="utf-8")
        with pytest.raises(ArtifactError, match="not a trust artifact"):
            load_artifact(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError, match="not a trust artifact"):
            load_artifact(tmp_path / "absent.kbt")

    def test_zip_without_header(self, tmp_path):
        path = tmp_path / "empty.kbt"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("other.txt", "hi")
        with pytest.raises(ArtifactError, match="not a trust artifact"):
            load_artifact(path)

    def test_composite_values_rejected(self, tmp_path):
        records = [
            ExtractionRecord(
                extractor=ExtractorKey(("e0",)),
                source=page_source("t.com", "p", "t.com/p"),
                item=DataItem(f"s{i}", "p"),
                value=("tuple", i),
            )
            for i in range(3)
        ]
        fitted = KBTEstimator(min_triples=0.0).fit(records)
        with pytest.raises(ArtifactError, match="JSON scalars"):
            fitted.save(tmp_path / "model.kbt")


class TestConfigSerde:
    def test_round_trip_non_defaults(self):
        from repro.core.config import (
            AbsenceScope,
            ConvergenceConfig,
            FalseValueModel,
        )

        config = MultiLayerConfig(
            n=7,
            absence_scope=AbsenceScope.ACTIVE,
            false_value_model=FalseValueModel.POPACCU,
            use_weighted_vcv=False,
            confidence_threshold=0.25,
            convergence=ConvergenceConfig(max_iterations=9, tolerance=1e-6),
            engine="numpy",
            freeze_extractor_quality=True,
        )
        assert config_from_dict(config_to_dict(config)) == config

    def test_python_engine_artifact_loads(self, fitted, tmp_path):
        """An artifact whose header names the removed dict engine loads,
        as the array engine: the engine is fit-time only."""
        path = fitted.save(tmp_path / "model.kbt")
        with zipfile.ZipFile(path) as archive:
            config = json.loads(archive.read("header.json"))["config"]
        assert config["engine"] == "numpy"
        old = rewrite_header(
            path, tmp_path / "python.kbt", config={**config, "engine": "python"}
        )
        loaded = FittedKBT.load(old)
        assert loaded.config == fitted.config
        assert loaded.website_scores() == fitted.website_scores()
        assert (
            loaded.save(tmp_path / "resaved.kbt").read_bytes()
            == path.read_bytes()
        )

    def test_unknown_field_rejected(self):
        data = config_to_dict(MultiLayerConfig())
        data["mystery_knob"] = 1
        with pytest.raises(ArtifactError, match="mystery_knob"):
            config_from_dict(data)


# ----------------------------------------------------------------------
# Format 4: one member per column, key tables as pool ids, prior rows
# ----------------------------------------------------------------------
class TestFormat4:
    def test_columns(self, fitted, tmp_path):
        path = fitted.save(tmp_path / "model.kbt")
        arrays = member_arrays(path)
        assert {"pool.blob", "pool.off", "src_feat", "ext_feat",
                "item_subj", "item_pred", "prior_row", "prior_p",
                "cell_source", "cell_item", "cell_value", "cell_len",
                "obs_extractor", "obs_conf", "obs_extractor_order"} <= set(
            arrays
        )
        # No bucket column without a bucket; no key ids for the priors.
        assert not {"src_bucket", "ext_bucket", "prior_source",
                    "prior_item", "prior_value", "obs_source"} & set(arrays)
        for name, array in arrays.items():
            if array.dtype.kind != "f":
                assert array.dtype == narrowest(array), name
        cells = cells_of(fitted.observations)
        assert len(arrays["cell_len"]) == len(cells)
        assert arrays["cell_len"].tolist() == [len(c) for _k, c in cells]
        # A fit's priors sit on every C-layer row, in its order: no
        # row is written.
        assert len(arrays["prior_p"]) == len(arrays["coord_p"])
        assert arrays["prior_row"].tolist() == []
        with zipfile.ZipFile(path) as archive:
            header = json.loads(archive.read("header.json"))
            stored = {
                info.filename
                for info in archive.infolist()
                if info.compress_type == zipfile.ZIP_STORED
            }
        assert header["format_version"] == FORMAT_VERSION == 4
        assert not {"sources", "extractors", "items", "payload_kind"} & set(
            header
        )
        assert stored == {"coord_p.npy", "vp_p.npy", "obs_conf.npy"}

    def test_pool_holds_each_string_once(self, fitted, tmp_path):
        arrays = member_arrays(fitted.save(tmp_path / "model.kbt"))
        offsets = arrays["pool.off"].tolist()
        blob = arrays["pool.blob"].tobytes()
        pool = [blob[lo:hi] for lo, hi in zip(offsets, offsets[1:])]
        assert len(set(pool)) == len(pool)
        # The sources' strings come first: their ids are 1 .. k.
        src = arrays["src_feat"]
        assert set(src[src > 0].tolist()) == set(range(1, src.max() + 1))

    def test_buckets_only_where_a_key_has_one(self, tmp_path):
        fitted = KBTEstimator(
            granularity=GranularityConfig(min_size=3, max_size=4), seed=5
        ).fit(corpus())
        assert any(
            key.bucket is not None for key in fitted.observations.sources()
        )
        path = fitted.save(tmp_path / "model.kbt")
        arrays = member_arrays(path)
        assert "src_bucket" in arrays
        loaded = FittedKBT.load(path)
        assert list(loaded.result.source_accuracy) == list(
            fitted.result.source_accuracy
        )
        assert loaded.save(tmp_path / "again.kbt").read_bytes() == (
            path.read_bytes()
        )

    def test_prior_off_the_c_layer_is_refused(self, fitted, tmp_path):
        columns = fitted.result.columns()
        moved = dataclasses.replace(
            columns, prior_value=np.roll(columns.prior_value, 1)
        )
        assert not np.array_equal(moved.prior_value, columns.coord_value)
        artifact = TrustArtifact(
            result=MultiLayerResult(moved, 1, []),
            config=MultiLayerConfig(),
            min_triples=1.0,
        )
        with pytest.raises(ArtifactError, match="C-layer"):
            save_artifact(artifact, tmp_path / "model.kbt")
        assert not (tmp_path / "model.kbt").exists()


#: Digests of the fit in ``tests/goldens/artifact_v2.kbt`` (the ladder
#: corpus under the ladder config, observations embedded), computed by
#: the format-2 build that wrote it.
V2_FIXTURE = GOLDENS_DIR / "artifact_v2.kbt"
V2_RESULT_SHA256 = (
    "5f93ccf227fbf3e01d0c6cac6ece1ec706b98607317ed1e89d4b2df9a5c41728"
)
V2_SCORES_SHA256 = (
    "446a745adf7f1b10ac79a8fa20c38003e2e5b21c262597479fa85e061686ce1b"
)


class TestV2Fixture:
    """A format-2 artifact written by the last format-2 build loads."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return ObservationMatrix.from_records(read_records(CORPUS))

    def test_is_version_2(self):
        with zipfile.ZipFile(V2_FIXTURE) as archive:
            header = json.loads(archive.read("header.json"))
        assert header["format_version"] == 2
        assert "obs_source" in payload_arrays(V2_FIXTURE)

    def test_result_and_scores(self):
        loaded = FittedKBT.load(V2_FIXTURE)
        assert result_digest(loaded.result) == V2_RESULT_SHA256
        assert scores_digest(loaded.website_scores()) == V2_SCORES_SHA256

    def test_cells(self, corpus):
        observations = load_artifact(V2_FIXTURE).observations
        assert snapshot(observations)[:2] == snapshot(corpus)[:2]
        assert snapshot(observations)[3] == snapshot(corpus)[3]
        assert observations.extractor_sizes() == corpus.extractor_sizes()
        # Format 2 never stored the extractor order.
        assert list(observations.extractors()) == entry_order(corpus)

    def test_resaves_as_format_4(self, tmp_path):
        loaded = FittedKBT.load(V2_FIXTURE)
        again = FittedKBT.load(loaded.save(tmp_path / "v4.kbt"))
        assert result_digest(again.result) == V2_RESULT_SHA256
        assert scores_digest(again.website_scores()) == V2_SCORES_SHA256
        assert snapshot(again.observations) == snapshot(loaded.observations)


#: ``tests/goldens/artifact_v3.kbt``: the same fit, with a ``kbt``
#: signal, written by the last format-3 build. Its result digests are
#: the format-2 fixture's, and its warm-start update over
#: ``tests/goldens/updates.jsonl`` is the ladder's ``update_float64``.
V3_FIXTURE = GOLDENS_DIR / "artifact_v3.kbt"
V3_FILE_SHA256 = (
    "f9d6a7dc98fd44975bd363e2f833d7844e65fbcf27901ac6cd3a6b2c7fbab377"
)


class TestV3Fixture:
    """A format-3 artifact written by the last format-3 build loads."""

    def test_is_version_3(self):
        assert hashlib.sha256(V3_FIXTURE.read_bytes()).hexdigest() == (
            V3_FILE_SHA256
        )
        with zipfile.ZipFile(V3_FIXTURE) as archive:
            header = json.loads(archive.read("header.json"))
        assert header["format_version"] == 3
        assert "prior_source" in payload_arrays(V3_FIXTURE)

    def test_result_scores_and_signals(self):
        loaded = load_artifact(V3_FIXTURE)
        assert result_digest(loaded.result) == V2_RESULT_SHA256
        fitted = FittedKBT.from_artifact(loaded)
        assert scores_digest(fitted.website_scores()) == V2_SCORES_SHA256
        assert list(loaded.signals) == ["kbt"]

    def test_serving_inputs(self, tmp_path):
        """Opened for serving, the fixture answers as its loaded fit:
        refused by the read side, which exports nothing, and served
        once ``kbt serve`` has exported its layout."""
        from repro.io.mmap_layout import LayoutError
        from repro.serving.mmap_store import MmapTrustStore

        want = FittedKBT.load(V3_FIXTURE).website_scores()
        copy = tmp_path / "v3.kbt"
        copy.write_bytes(V3_FIXTURE.read_bytes())
        with pytest.raises(LayoutError, match="kbt serve"):
            MmapTrustStore.open(copy)
        assert sorted(tmp_path.iterdir()) == [copy]
        store = serving_open(copy)
        try:
            assert {site: store.score(site) for site in store.websites()} == (
                want
            )
        finally:
            store.close()

    def test_update_writes_format_4_with_the_same_floats(self, tmp_path):
        from repro.cli import main as cli_main

        goldens = json.loads(
            (GOLDENS_DIR / "ladder_digests.json").read_text("utf-8")
        )
        updated = FittedKBT.load(V3_FIXTURE).update(
            read_records(GOLDENS_DIR / "updates.jsonl"), sweeps=2
        )
        assert result_digest(updated.result) == goldens["update_float64"]
        out = tmp_path / "updated.kbt"
        assert cli_main([
            "update", str(V3_FIXTURE), str(GOLDENS_DIR / "updates.jsonl"),
            "--artifact-out", str(out),
        ]) == 0
        with zipfile.ZipFile(out) as archive:
            header = json.loads(archive.read("header.json"))
        assert header["format_version"] == 4
        again = FittedKBT.load(out)
        assert result_digest(again.result) == goldens["update_float64"]
        assert again.save(tmp_path / "again.kbt").read_bytes() == (
            out.read_bytes()
        )


class TestUpgradeEdges:
    """Version 1-3 inputs at the edges of what format 4 stores."""

    def test_negative_bucket_loads(self, fitted, tmp_path):
        """A JSONL record can name a negative bucket, and the last
        format-3 build wrote it into the header's key table as is: the
        upgrade keeps loading it, and format 4 is not written with it."""
        header, arrays = v3_parts(fitted.save(tmp_path / "model.kbt"))
        header["sources"][0][1] = -1
        header["extractors"][0][1] = -2
        path = write_v3(header, arrays, tmp_path / "negative.kbt")
        loaded = load_artifact(path)
        sources = list(loaded.result.source_accuracy)
        extractors = list(loaded.result.extractor_quality)
        assert sources[0].bucket == -1 and extractors[0].bucket == -2
        assert [s.bucket for s in sources[1:]] == [None] * (len(sources) - 1)
        assert load_serving_inputs(path)[0].sources == sources
        with pytest.raises(ArtifactError, match="bucket must be an int >= 0"):
            save_artifact(loaded, tmp_path / "again.kbt")

    def test_prior_off_the_c_layer_is_refused(self, fitted, tmp_path):
        """No format-3 producer put a prior on a coordinate its C layer
        lacks (a fit's priors are its C layer, an update's merge keeps
        both sides' C rows); format 4 has no row for one."""
        header, arrays = v3_parts(fitted.save(tmp_path / "model.kbt"))
        arrays["prior_value"] = np.roll(arrays["prior_value"], 1)
        coords = set(zip(*(arrays[f"coord_{a}"].tolist() for a in AXES)))
        priors = zip(*(arrays[f"prior_{a}"].tolist() for a in AXES))
        assert not set(priors) <= coords
        path = write_v3(header, arrays, tmp_path / "off.kbt")
        for loader in (load_artifact, load_serving_inputs):
            with pytest.raises(ArtifactError, match="C-layer") as err:
                loader(path)
            assert str(path) in str(err.value)

    def test_short_prior_column_is_refused_when_serving(
        self, fitted, tmp_path
    ):
        """The upgrade reads the priors, so an old artifact whose prior
        columns disagree fails the serving load too, not only the full
        one."""
        header, arrays = v3_parts(fitted.save(tmp_path / "model.kbt"))
        arrays["prior_p"] = arrays["prior_p"][:-1]
        path = write_v3(header, arrays, tmp_path / "short.kbt")
        for loader in (load_artifact, load_serving_inputs):
            with pytest.raises(ArtifactError, match="priors") as err:
                loader(path)
            assert str(path) in str(err.value)


AXES = ("source", "item", "value")


def e2e_model_config() -> MultiLayerConfig:
    """The benchmark's model: ACTIVE scope, supports 3 / 2, 5 rounds."""
    return MultiLayerConfig(
        absence_scope=AbsenceScope.ACTIVE,
        min_extractor_support=3,
        min_source_support=2,
        engine="numpy",
        convergence=ConvergenceConfig(tolerance=0.0, max_iterations=5),
    )


def kv_matrix(**config) -> ObservationMatrix:
    return ObservationMatrix.from_records(
        chain.from_iterable(iter_kv_record_chunks(KVConfig(**config)))
    )


class TestReloadRefit:
    """A reloaded matrix refits to the bytes its original refits to."""

    @pytest.fixture(scope="class")
    def matrices(self, tmp_path_factory):
        matrix = kv_matrix(num_websites=10, seed=23)
        cfg = e2e_model_config()
        fitted = FittedKBT(
            result=MultiLayerModel(cfg).fit(matrix),
            observations=matrix,
            config=cfg,
        )
        path = fitted.save(tmp_path_factory.mktemp("kv") / "kv.kbt")
        return matrix, load_artifact(path).observations

    @staticmethod
    def assert_same_refit(original, reloaded):
        cfg = e2e_model_config()
        want = MultiLayerModel(cfg).fit(original)
        got = MultiLayerModel(cfg).fit(reloaded)
        assert list(got.extractor_quality) == list(want.extractor_quality)
        assert result_digest(got) == result_digest(want)

    def test_extractor_order_survives(self, matrices):
        original, reloaded = matrices
        # Not vacuous: this corpus's first-seen order is not entry order.
        assert list(original.extractors()) != entry_order(original)
        assert list(reloaded.extractors()) == list(original.extractors())
        assert snapshot(reloaded)[:4] == snapshot(original)[:4]

    def test_refit(self, matrices):
        self.assert_same_refit(*matrices)

    def test_refit_after_extended(self, matrices):
        original, reloaded = matrices
        batch = kv_matrix(num_websites=3, seed=5)
        self.assert_same_refit(
            original.extended(batch), reloaded.extended(batch)
        )


# ----------------------------------------------------------------------
# Property: any fitted state round-trips, across the uint8 -> uint16 edge
# ----------------------------------------------------------------------
@st.composite
def trust_artifacts(draw):
    """A matrix and a result over it with 240-300 distinct values, so
    the value-id columns straddle the ``uint8`` / ``uint16`` boundary."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    buckets = st.sampled_from([None, 0, 3])
    sources = [
        SourceKey((f"w{k}.com", "p"), bucket=draw(buckets))
        for k in range(draw(st.integers(1, 5)))
    ]
    extractors = [
        ExtractorKey((f"sys{k}", "pat"), bucket=draw(buckets))
        for k in range(draw(st.integers(1, 4)))
    ]
    items = [
        DataItem(f"s{k}", "p") for k in range(draw(st.integers(1, 30)))
    ]
    values = [1, True, 1.0, None, 0, -7, 2.5, ""] + [
        f"v{k}" for k in range(draw(st.integers(232, 292)))
    ]
    records = []
    for value in values:
        item = rng.choice(items)
        for source in rng.sample(sources, rng.randint(1, len(sources))):
            for extractor in rng.sample(
                extractors, rng.randint(1, len(extractors))
            ):
                records.append(
                    ExtractionRecord(
                        extractor=extractor,
                        source=source,
                        item=item,
                        value=value,
                        confidence=rng.uniform(0.01, 1.0),
                    )
                )
    rng.shuffle(records)
    matrix = ObservationMatrix.from_records(records)

    coords = list(matrix.columns().coords)
    rng.shuffle(coords)
    posteriors = {coord: rng.random() for coord in coords[1:]}
    # Priors sit on C-layer coordinates (format 4 stores their rows),
    # here on a few of them, in another order.
    priors = {coord: rng.random() for coord in rng.sample(coords[1:], 5)}
    value_posteriors = {}
    for _source, item, value in coords:
        value_posteriors.setdefault(item, {})[value] = rng.random()
    # Items left without a posterior entry reload after the others.
    value_posteriors[DataItem("empty", "p")] = {}
    result = result_from_views(
        value_posteriors=value_posteriors,
        extraction_posteriors=posteriors,
        source_accuracy={s: rng.random() for s in sources},
        extractor_quality={
            e: ExtractorQuality(rng.random(), rng.random(), rng.random())
            for e in extractors
        },
        estimable_sources=set(sources[::2]),
        estimable_extractors=set(extractors[1:]),
        num_triples_total=matrix.num_triples,
        history=[IterationSnapshot(1, rng.random(), rng.random())],
        priors=priors,
    )
    signals = {}
    if draw(st.booleans()):
        sites = [f"site{k}.com" for k in range(draw(st.integers(0, 300)))]
        signals["kbt"] = SignalScores(
            name="kbt",
            scores={site: rng.random() for site in sites},
            support={site: float(rng.randint(0, 9)) for site in sites[::3]},
            metadata={"flag": True, "n": 3},
        )
    artifact = TrustArtifact(
        result=result,
        config=e2e_model_config(),
        min_triples=1.0,
        observations=matrix if draw(st.booleans()) else None,
        signals=signals,
        fusion_weights={"kbt": 1.0} if signals else {},
    )
    return artifact, draw(st.sampled_from(sorted(FORMS)))


#: The older forms a format-4 artifact is copied into, each loaded
#: through the upgrade of its members.
FORMS = {
    "v4": None,
    "v3-json": with_json_payload,
    "v3": as_v3,
    "v2": as_v2,
}


class TestRoundTripProperty:
    @given(trust_artifacts())
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, drawn):
        artifact, form = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = save_artifact(artifact, Path(tmp) / "model.kbt")
            for name, array in member_arrays(path).items():
                if array.dtype.kind != "f":
                    assert array.dtype == narrowest(array), name
            if FORMS[form] is not None:
                path = FORMS[form](path, Path(tmp) / f"{form}.kbt")
            loaded = load_artifact(path)
            scored = load_serving_inputs(path)[0]

        got, want = loaded.result, artifact.result
        # The serving path reads the accuracy and C-layer columns; summed
        # by source, they are the result's support, sum for sum.
        assert list(
            source_support(
                scored.sources, scored.coord_source, scored.coord_p
            ).items()
        ) == list(want.expected_triples_by_source().items())
        for name in ("extraction_posteriors", "source_accuracy",
                     "extractor_quality", "priors", "value_posteriors"):
            assert getattr(got, name) == getattr(want, name), name
            assert list(getattr(got, name)) == list(getattr(want, name))
        for item, posterior in want.value_posteriors.items():
            assert list(got.value_posteriors[item]) == list(posterior)
        assert got.estimable_sources == want.estimable_sources
        assert got.estimable_extractors == want.estimable_extractors
        assert got.history == want.history
        assert got.num_triples_total == want.num_triples_total

        matrix = artifact.observations
        if matrix is None:
            assert loaded.observations is None
        elif form == "v2":
            # Format 2 never stored the extractor order.
            observations = loaded.observations
            assert snapshot(observations)[:2] == snapshot(matrix)[:2]
            assert snapshot(observations)[3] == snapshot(matrix)[3]
            assert observations.extractor_sizes() == matrix.extractor_sizes()
            assert list(observations.extractors()) == entry_order(matrix)
        else:
            assert snapshot(loaded.observations)[:4] == snapshot(matrix)[:4]
            assert loaded.observations.num_records == len(
                matrix.columns().entry_cell
            )
        assert loaded.signals == artifact.signals
        for name, scores in artifact.signals.items():
            assert list(loaded.signals[name].scores) == list(scores.scores)
        assert loaded.fusion_weights == artifact.fusion_weights


@st.composite
def fitted_models(draw):
    """A fit of a small random corpus: ACCU or POPACCU, with or without
    SPLITANDMERGE buckets, maybe merged with an update whose one sweep
    ends before the prior update starts (so its priors cover part of
    the C layer); saved with or without its cells and a signal."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def records(tag: str) -> list:
        out = []
        for k in range(rng.randint(2, 5)):
            site = f"{tag}{k}.com"
            for page in range(rng.randint(3, 7)):
                item = DataItem(f"s{rng.randint(0, 9)}", "p")
                value = rng.choice(["a", "b", 1, True, 2.5])
                for extractor in rng.sample(["e0", "e1", "e2"], 2):
                    out.append(
                        ExtractionRecord(
                            ExtractorKey((extractor, "pat")),
                            page_source(site, "p", f"{site}/{page % 2}"),
                            item,
                            value,
                            rng.uniform(0.1, 1.0),
                        )
                    )
        return out

    popaccu = draw(st.booleans())
    config = MultiLayerConfig(
        absence_scope=AbsenceScope.ACTIVE,
        false_value_model=FalseValueModel.POPACCU
        if popaccu
        else FalseValueModel.ACCU,
        use_weighted_vcv=not popaccu,
        min_source_support=1,
        min_extractor_support=1,
        prior_update_start_iteration=3,
        convergence=ConvergenceConfig(max_iterations=3, tolerance=0.0),
    )
    granularity = (
        GranularityConfig(min_size=2, max_size=4)
        if draw(st.booleans())
        else None
    )
    fitted = KBTEstimator(
        config, granularity=granularity, min_triples=0.0, seed=3
    ).fit(records("w"))
    if draw(st.booleans()):
        fitted = fitted.update(records("new"), sweeps=1)
    return fitted, draw(st.booleans()), draw(st.booleans())


class TestFittedRoundTrip:
    @given(fitted_models())
    @settings(max_examples=20, deadline=None)
    def test_views_and_bytes(self, drawn):
        fitted, include_observations, with_signal = drawn
        result = fitted.result
        signals = {}
        if with_signal:
            sites = sorted(fitted.website_scores())
            signals["kbt"] = SignalScores(
                name="kbt",
                scores={site: 0.5 for site in sites},
                support={site: 1.0 for site in sites[::2]},
            )
        with tempfile.TemporaryDirectory() as tmp:
            path = fitted.save(
                Path(tmp) / "model.kbt",
                include_observations=include_observations,
                signals=signals,
                fusion_weights={"kbt": 1.0} if signals else {},
            )
            loaded = load_artifact(path)
            again = save_artifact(loaded, Path(tmp) / "again.kbt")
            assert again.read_bytes() == path.read_bytes()
        got = loaded.result
        for name in ("extraction_posteriors", "source_accuracy",
                     "extractor_quality", "priors", "value_posteriors",
                     "estimable_sources", "estimable_extractors"):
            assert getattr(got, name) == getattr(result, name), name
            assert list(getattr(got, name)) == list(getattr(result, name))
        assert got.history == result.history
        assert FittedKBT.from_artifact(loaded).website_scores() == (
            fitted.website_scores()
        )
        assert loaded.signals == signals
        assert (loaded.observations is None) == (not include_observations)


def test_loaded_coordinates_are_shared(fitted, tmp_path):
    """A loaded artifact's priors and cells reuse the C layer's tuples,
    as a fit's do, so the next save finds their rows by identity."""
    loaded = load_artifact(fitted.save(tmp_path / "model.kbt"))
    scored = {id(coord) for coord in loaded.result.extraction_posteriors}
    assert scored
    assert all(id(coord) in scored for coord in loaded.result.priors)
    cells = loaded.observations.columns().coords
    assert sum(id(coord) in scored for coord in cells) == len(scored)


# ----------------------------------------------------------------------
# Damaged artifacts fail as ArtifactError, naming the file
# ----------------------------------------------------------------------
def rewrite_members(
    path, out_path, replace=None, compress=zipfile.ZIP_DEFLATED
):
    """Copy an artifact, replacing members' bytes (``{name: bytes}``)."""
    with zipfile.ZipFile(path) as archive:
        data = {name: archive.read(name) for name in archive.namelist()}
    data.update(replace or {})
    with zipfile.ZipFile(out_path, "w", compress) as archive:
        for name, value in data.items():
            archive.writestr(name, value)
    return out_path


def flip_member_byte(path, out_path, name: str, fill: int | None = None):
    """Copy an artifact with member ``name``'s stored bytes damaged in
    place: one byte flipped, or (``fill``) every byte overwritten. The
    zip structure stays intact, so the damage shows only on reading."""
    raw = bytearray(Path(path).read_bytes())
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(name)
    with open(path, "rb") as handle:
        handle.seek(info.header_offset + 26)
        name_len, extra_len = np.frombuffer(handle.read(4), dtype="<u2")
    start = info.header_offset + 30 + int(name_len) + int(extra_len)
    if fill is None:
        raw[start + info.compress_size // 2] ^= 0xFF
    else:
        raw[start : start + info.compress_size] = bytes(
            [fill] * info.compress_size
        )
    Path(out_path).write_bytes(bytes(raw))
    return out_path


def serving_open(path):
    """``MmapTrustStore.open`` as ``kbt serve`` reaches it for an
    artifact without its layout: export the layout, then map it."""
    from repro.io.mmap_layout import cache_layout
    from repro.serving.mmap_store import MmapTrustStore

    return MmapTrustStore.open(cache_layout(path)[0])


LOADERS = {
    "load_artifact": load_artifact,
    "load_serving_inputs": load_serving_inputs,
    "MmapTrustStore.open": serving_open,
}


#: Column members every loader reads: one deflated, one STORED.
DEFLATED_MEMBER = "src_feat.npy"
STORED_MEMBER = "coord_p.npy"


def damaged_artifacts(fitted, directory):
    """One damaged copy per way a member can fail to read or parse."""
    path = fitted.save(directory / "model.kbt")
    with zipfile.ZipFile(path) as archive:
        header = archive.read("header.json")
        column = archive.read(STORED_MEMBER)
    stored = rewrite_members(
        path, directory / "stored.kbt", compress=zipfile.ZIP_STORED
    )
    return {
        # The reproduction: one byte of a deflated column flipped.
        "payload-byte": flip_member_byte(
            path, directory / "byte.kbt", DEFLATED_MEMBER
        ),
        "payload-crc": flip_member_byte(
            stored, directory / "crc.kbt", STORED_MEMBER
        ),
        "payload-inflate": flip_member_byte(
            path, directory / "inflate.kbt", DEFLATED_MEMBER, fill=0xFF
        ),
        "payload-not-npz": rewrite_members(
            path, directory / "npz.kbt", {STORED_MEMBER: column[:100]}
        ),
        "header-truncated": rewrite_members(
            path,
            directory / "header.kbt",
            {"header.json": header[: len(header) // 2]},
        ),
    }


DAMAGE = [
    "payload-byte",
    "payload-crc",
    "payload-inflate",
    "payload-not-npz",
    "header-truncated",
]


class TestDamagedMembers:
    @pytest.mark.parametrize("loader", sorted(LOADERS))
    @pytest.mark.parametrize("damage", DAMAGE)
    def test_is_an_artifact_error(self, fitted, tmp_path, damage, loader):
        path = damaged_artifacts(fitted, tmp_path)[damage]
        with pytest.raises(ArtifactError, match=str(path)):
            LOADERS[loader](path)

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_kbt_query_prints_an_error(self, fitted, tmp_path, capsys, damage):
        from repro.cli import main as cli_main

        path = damaged_artifacts(fitted, tmp_path)[damage]
        assert cli_main(["query", str(path), "--site", "good.com"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


def edited_header(path, out_path, edit):
    """Copy an artifact with its parsed header edited in place."""
    with zipfile.ZipFile(path) as archive:
        header = json.loads(archive.read("header.json"))
    edit(header)
    return rewrite_members(
        path, out_path, {"header.json": json.dumps(header)}
    )


#: Header damage that each loader used to meet as a bare TypeError /
#: KeyError / ValueError, or (a negative or NaN threshold) not at all.
HEADER_DAMAGE = {
    "min_triples-string": (
        "min_triples", lambda h: h.update(min_triples="abc")
    ),
    "min_triples-missing": ("min_triples", lambda h: h.pop("min_triples")),
    "min_triples-negative": (
        "min_triples", lambda h: h.update(min_triples=-3)
    ),
    "min_triples-nan": (
        "min_triples", lambda h: h.update(min_triples=float("nan"))
    ),
    # Format 3's JSON key table (a format-4 header has none).
    "source-entry": (
        "sources", lambda h: h["sources"].__setitem__(0, [1, 2, 3])
    ),
    "history-row": (
        "history", lambda h: h["history"].__setitem__(0, [1])
    ),
    "fusion-weight": (
        "fusion_weights", lambda h: h.update(fusion_weights={"kbt": "x"})
    ),
}


class TestMalformedHeader:
    @pytest.mark.parametrize("loader", sorted(LOADERS))
    @pytest.mark.parametrize("damage", sorted(HEADER_DAMAGE))
    def test_is_an_artifact_error(self, fitted, tmp_path, damage, loader):
        field, edit = HEADER_DAMAGE[damage]
        path = fitted.save(tmp_path / "model.kbt")
        if field == "sources":
            path = as_v3(path, tmp_path / "v3.kbt")
        path = edited_header(path, tmp_path / "bad.kbt", edit)
        match = f"header field '{field}'"
        with pytest.raises(ArtifactError, match=match) as info:
            LOADERS[loader](path)
        assert str(path) in str(info.value)


# ----------------------------------------------------------------------
# Columns that disagree with each other or with their tables
# ----------------------------------------------------------------------
def with_arrays(path, out_path, **edits):
    """Copy a format-4 artifact with column members edited
    (``name=function``)."""
    arrays = member_arrays(path)
    replace = {}
    for name, edit in edits.items():
        member = io.BytesIO()
        np.save(member, edit(arrays[name]))
        replace[f"{name}.npy"] = member.getvalue()
    return rewrite_members(path, out_path, replace)


class TestInconsistentColumns:
    def test_short_coord_p(self, fitted, tmp_path):
        path = with_arrays(
            fitted.save(tmp_path / "model.kbt"),
            tmp_path / "short.kbt",
            coord_p=lambda p: p[:-3],
        )
        for loader in (load_artifact, load_serving_inputs):
            with pytest.raises(ArtifactError, match="C layer") as info:
                loader(path)
            assert str(path) in str(info.value)

    def test_short_acc_value(self, fitted, tmp_path):
        path = with_arrays(
            fitted.save(tmp_path / "model.kbt"),
            tmp_path / "short.kbt",
            acc_value=lambda acc: acc[:-3],
        )
        for loader in (load_artifact, load_serving_inputs):
            with pytest.raises(ArtifactError, match="source accuracy") as info:
                loader(path)
            assert str(path) in str(info.value)

    def test_sources_table_one_key_short(self, fitted, tmp_path):
        path = fitted.save(tmp_path / "model.kbt")
        short = with_arrays(
            path, tmp_path / "short.kbt", src_feat=lambda feat: feat[:-1]
        )
        for loader in (load_artifact, load_serving_inputs):
            with pytest.raises(ArtifactError, match="outside its") as err:
                loader(short)
            assert str(short) in str(err.value)

    @pytest.mark.parametrize(
        "edit, message, loaders",
        [
            ({"pool.off": lambda off: off[:-1]}, "string pool",
             (load_artifact, load_serving_inputs)),
            ({"src_feat": lambda feat: feat * (np.arange(3) > 0)},
             "src_feat", (load_artifact, load_serving_inputs)),
            ({"item_subj": lambda ids: ids * 0}, "names no string",
             (load_artifact,)),
        ],
        ids=["pool-short", "feature-gap", "item-no-string"],
    )
    def test_key_columns(self, fitted, tmp_path, edit, message, loaders):
        path = with_arrays(
            fitted.save(tmp_path / "model.kbt"), tmp_path / "bad.kbt", **edit
        )
        for loader in loaders:
            with pytest.raises(ArtifactError, match=message) as err:
                loader(path)
            assert str(path) in str(err.value)

    @pytest.fixture(scope="class")
    def with_signal(self, fitted, tmp_path_factory):
        sites = [f"site{k}.com" for k in range(8)]
        signal = SignalScores(
            name="kbt",
            scores={site: 0.5 for site in sites},
            support={site: 1.0 for site in sites[::2]},
        )
        return fitted.save(
            tmp_path_factory.mktemp("signal") / "model.kbt",
            signals={"kbt": signal},
            fusion_weights={"kbt": 1.0},
        )

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    def test_short_signal_scores(self, with_signal, tmp_path, loader):
        path = with_arrays(
            with_signal, tmp_path / "short.kbt", sig0_score=lambda s: s[:-3]
        )
        with pytest.raises(ArtifactError, match="signal 'kbt' scores") as err:
            LOADERS[loader](path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    def test_websites_table_one_key_short(self, with_signal, tmp_path, loader):
        with zipfile.ZipFile(with_signal) as archive:
            websites = json.loads(archive.read("header.json"))["websites"]
        short = rewrite_header(
            with_signal, tmp_path / "short.kbt", websites=websites[:-1]
        )
        with pytest.raises(ArtifactError, match="outside its") as err:
            LOADERS[loader](short)
        assert str(short) in str(err.value)
