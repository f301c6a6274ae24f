"""Unit tests for the versioned trust-artifact round trip."""

import io
import json
import zipfile

import numpy as np
import pytest

from repro.core.config import GranularityConfig, MultiLayerConfig
from repro.core.kbt import FittedKBT, KBTEstimator
from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    page_source,
)
from repro.io.artifact import (
    FORMAT_VERSION,
    ArtifactError,
    config_from_dict,
    config_to_dict,
    load_artifact,
)


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


def with_json_payload(path, out_path):
    """Copy an artifact with its arrays as a hand-built ``payload.json``
    member: nothing writes that form any more, files on disk have it."""
    with zipfile.ZipFile(path) as archive:
        header = json.loads(archive.read("header.json"))
        npz = np.load(io.BytesIO(archive.read("payload.npz")))
    header["payload_kind"] = "json"
    arrays = {name: npz[name].tolist() for name in npz.files}
    with zipfile.ZipFile(out_path, "w") as archive:
        archive.writestr("header.json", json.dumps(header))
        archive.writestr("payload.json", json.dumps(arrays))
    return out_path


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
        original = sorted(map(repr, fitted.observations.iter_records()))
        reloaded = sorted(map(repr, loaded.observations.iter_records()))
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

    def test_unknown_field_rejected(self):
        data = config_to_dict(MultiLayerConfig())
        data["mystery_knob"] = 1
        with pytest.raises(ArtifactError, match="mystery_knob"):
            config_from_dict(data)
