"""Fitted state -> served bytes: one aggregation, two feeders.

``serving_columns`` decides what a store serves. It is fed either from
a saved artifact (``export_layout``, ``TrustStore.open`` — decoding only
the sections it reads) or from the process that still holds the fitted
model (``export_columns``, which the ingest pipeline calls before it
publishes). These tests hold the two feeders to the same bytes, keep the
serving side off the observation matrix, and keep a published
generation's swap free of exports and artifact loads.
"""

import hashlib
import json
import urllib.request
from pathlib import Path

import pytest

pytest.importorskip("numpy")

import repro.io.artifact as artifact_module
import repro.io.mmap_layout as layout_module
import repro.serving.mmap_store as mmap_store_module
import repro.serving.store as store_module
from repro.cli import main as cli_main
from repro.core.kbt import FittedKBT, KBTEstimator
from repro.core.observation import ObservationMatrix
from repro.ingest import HttpPublisher, IngestPipeline, InProcessPublisher
from repro.io.jsonl import read_records
from repro.io.mmap_layout import (
    artifact_etag,
    export_columns,
    export_layout,
    layout_cache_dir,
    serving_columns,
)
from repro.serving.gateway import GatewayThread
from repro.serving.manager import StoreManager
from repro.serving.mmap_store import MmapTrustStore
from repro.serving.routes import handle_route
from repro.serving.store import TrustStore
from repro.signals import CorpusContext, SignalSuite, fuse

from test_artifact import with_json_payload
from test_determinism_ladder import CORPUS, UPDATES, ladder_config
from test_ingest import batch_for, corpus as small_corpus


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def render(store, path, params):
    status, payload = handle_route(store, path, params)
    return status, json.dumps(payload, ensure_ascii=False).encode("utf-8")


def fit_golden(min_triples):
    return KBTEstimator(ladder_config(), min_triples=min_triples).fit(
        ObservationMatrix.from_records(read_records(CORPUS))
    )


def after_three_updates(fitted):
    records = list(read_records(UPDATES))
    third = -(-len(records) // 3)
    for start in range(0, len(records), third):
        fitted = fitted.update(records[start : start + third], sweeps=2)
    return fitted


def with_two_signals():
    fitted = KBTEstimator().fit(small_corpus())
    frame = SignalSuite().run(
        CorpusContext(observations=fitted.observations, fitted=fitted),
        "kbt,pagerank",
    )
    gold = {site: site != "bad.com" for site in frame.websites()}
    signals = {name: frame.signal(name) for name in frame.names}
    return fitted, signals, fuse(frame, gold_labels=gold).weights


def columns_of(fitted, signals=None, fusion_weights=None):
    """What the ingest pipeline passes: the model still in memory."""
    return serving_columns(
        fitted.result.source_accuracy,
        fitted.report.source_support,
        fitted.min_triples,
        signals or {},
        fusion_weights or {},
    )


def requests_for(fitted, store):
    """Every route shape, over keys this model actually scores."""
    sites = list(store.websites())
    probes = [*sites[:3], sites[-1], "nosuch.example"]
    requests = [
        ("/healthz", {}),
        ("/top", {"k": ["5"]}),
        ("/top", {"k": [str(len(sites) + 1)]}),
        ("/batch", {"sites": [",".join(probes)]}),
        ("/signals", {}),
        ("/nosuchroute", {}),
    ]
    for site in probes:
        for route in ("/score", "/percentile", "/breakdown", "/signals"):
            requests.append((route, {"site": [site]}))
    pages = list(fitted.report.webpage_scores())
    for site, page in [*pages[:3], ("nosuch.example", "nope")]:
        requests.append(("/page", {"site": [site], "page": [page]}))
    names = store.signal_names()
    if len(names) >= 2:
        requests.append(("/compare", {"a": [names[0]], "b": [names[1]]}))
    return requests


# ----------------------------------------------------------------------
# The layout written from memory is the layout written from the file
# ----------------------------------------------------------------------
CASES = {
    "cold-fit-min0": lambda: (fit_golden(0), {}, {}),
    "cold-fit-min5": lambda: (fit_golden(5.0), {}, {}),
    "three-updates": lambda: (after_three_updates(fit_golden(5.0)), {}, {}),
    "two-signals": with_two_signals,
    # The serving-side reader over a hand-built ``payload.json`` member.
    "json-payload": lambda: (fit_golden(5.0), {}, {}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_in_memory_export_equals_from_file_export(case, tmp_path):
    fitted, signals, weights = CASES[case]()
    path = fitted.save(
        tmp_path / "model.kbt", signals=signals, fusion_weights=weights
    )
    if case == "json-payload":
        path = with_json_payload(path, tmp_path / "json.kbt")
    from_file = export_layout(path, tmp_path / "from-file").parent
    from_memory = export_columns(
        columns_of(fitted, signals, weights), path, tmp_path / "from-memory"
    ).parent

    names = sorted(p.name for p in from_file.iterdir())
    assert names == sorted(p.name for p in from_memory.iterdir())
    for name in names:
        if name.endswith(".npy"):
            assert (from_memory / name).read_bytes() == (
                from_file / name
            ).read_bytes(), name
    manifests = [
        json.loads((d / "manifest.json").read_text()) for d in
        (from_file, from_memory)
    ]
    for manifest in manifests:
        manifest.pop("artifact")
    assert manifests[0] == manifests[1]
    assert manifests[0]["etag"] == sha256(path)

    reference = TrustStore.open(path)
    assert len(reference) > 0
    stores = [
        MmapTrustStore.open(from_file),
        MmapTrustStore.open(from_memory),
        TrustStore(columns_of(fitted, signals, weights)),
    ]
    for route, params in requests_for(fitted, reference):
        expected = render(reference, route, params)
        for store in stores:
            assert render(store, route, params) == expected, (route, params)
    for store in stores:
        store.close()


# ----------------------------------------------------------------------
# Serving never builds the observation matrix
# ----------------------------------------------------------------------
class TestServingNeverBuildsTheMatrix:
    @pytest.fixture
    def saved(self, tmp_path):
        fitted = KBTEstimator().fit(small_corpus())
        path = tmp_path / "model.kbt"
        fitted.save(path)  # observations included
        return fitted, path

    @pytest.fixture
    def no_full_decode(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("the serving side decoded a section "
                                 "no route reads")

        monkeypatch.setattr(
            ObservationMatrix, "from_records", classmethod(refuse)
        )
        for decoder in (
            "_decode_observations",
            "_decode_coordinates",  # the C layer and the priors
            "_decode_value_posteriors",
            "_decode_extractor_quality",
            "load_artifact",
        ):
            monkeypatch.setattr(artifact_module, decoder, refuse)

    def test_every_serving_entry_point(
        self, saved, no_full_decode, tmp_path, capsys
    ):
        fitted, path = saved
        want = fitted.website_scores()["good.com"]

        store = TrustStore.open(path)
        assert store.score("good.com") == want
        export_layout(path, tmp_path / "layout")
        mapped = MmapTrustStore.open(path)
        assert mapped.layout_state == "exported"
        assert mapped.score("good.com") == want

        second = tmp_path / "second.kbt"
        second.write_bytes(path.read_bytes())
        manager = StoreManager(mapped)
        try:
            assert manager.swap(second).score("good.com") == want
        finally:
            manager.close()

        assert cli_main(["query", str(path), "--site", "good.com"]) == 0
        assert json.loads(capsys.readouterr().out)["score"] == want.score
        assert cli_main(["query", str(path), "--breakdown", "good.com"]) == 0

    def test_full_load_is_unchanged(self, saved):
        fitted, path = saved
        loaded = FittedKBT.load(path)
        assert list(loaded.observations.iter_records()) == list(
            fitted.observations.iter_records()
        )
        for section in (
            "priors",
            "value_posteriors",
            "extraction_posteriors",
            "source_accuracy",
            "extractor_quality",
        ):
            assert getattr(loaded.result, section) == getattr(
                fitted.result, section
            ), section
        # The support serving reads off two columns is the support the
        # full result computes, sum for sum.
        inputs = artifact_module.load_serving_inputs(path)
        assert inputs[0] == fitted.result.source_accuracy
        assert inputs[1] == fitted.result.expected_triples_by_source()


# ----------------------------------------------------------------------
# A published generation arrives with its layout
# ----------------------------------------------------------------------
class _Calls:
    """Counts the serving side's trips back to the artifact."""

    def __init__(self, monkeypatch):
        self.exports = 0
        self.loads = 0
        monkeypatch.setattr(
            mmap_store_module, "export_layout", self._counted("exports",
                                                              export_layout)
        )
        for module, name in (
            (artifact_module, "load_artifact"),
            (artifact_module, "load_serving_inputs"),
            (layout_module, "load_serving_inputs"),
            (store_module, "load_serving_inputs"),
        ):
            monkeypatch.setattr(
                module, name, self._counted("loads", getattr(module, name))
            )

    def _counted(self, counter, function):
        def wrapper(*args, **kwargs):
            setattr(self, counter, getattr(self, counter) + 1)
            return function(*args, **kwargs)

        return wrapper


class TestPublishShipsAReadyLayout:
    @pytest.fixture
    def artifact(self, tmp_path):
        path = tmp_path / "model.kbt"
        KBTEstimator().fit(small_corpus()).save(path)
        return path

    def test_in_process_swap_neither_exports_nor_loads(
        self, artifact, tmp_path, monkeypatch
    ):
        manager = StoreManager(MmapTrustStore.open(artifact))
        pipeline = IngestPipeline(
            FittedKBT.load(artifact),
            tmp_path / "gens",
            publisher=InProcessPublisher(manager),
        )
        calls = _Calls(monkeypatch)
        try:
            for number in (1, 2):
                path = pipeline.process_batch(
                    batch_for("fresh.example", f"t{number}")
                )
                assert manager.etag == sha256(path)
                status = pipeline.board.snapshot()
                assert status["served_etag"] == sha256(path)
                assert status["served_layout"] == "reused"
            assert (calls.exports, calls.loads) == (0, 0)
            with manager.acquire() as store:
                reference = TrustStore.open(path)
                for route in ("/score", "/breakdown"):
                    params = {"site": ["fresh.example"]}
                    assert render(store, route, params) == render(
                        reference, route, params
                    )
        finally:
            manager.close()

    def test_http_swap_neither_exports_nor_loads(
        self, artifact, tmp_path, monkeypatch
    ):
        manager = StoreManager(MmapTrustStore.open(artifact))
        with GatewayThread(manager) as url:
            publisher = HttpPublisher(url)
            pipeline = IngestPipeline(
                FittedKBT.load(artifact),
                tmp_path / "gens",
                publisher=publisher,
            )
            calls = _Calls(monkeypatch)
            path = pipeline.process_batch(batch_for("fresh.example", "t0"))
            assert (calls.exports, calls.loads) == (0, 0)
            assert manager.etag == sha256(path)
            # A second POST of the same generation says so itself.
            assert publisher.publish(path)["layout"] == "reused"
            status = json.loads(
                urllib.request.urlopen(f"{url}/ingest/status").read()
            )
            assert status["served_layout"] == "reused"
            assert status["served_etag"] == sha256(path)

    def test_no_publisher_no_layout(self, artifact, tmp_path):
        pipeline = IngestPipeline(
            FittedKBT.load(artifact), tmp_path / "gens"
        )
        pipeline.process_batch(batch_for("fresh.example", "t0"))
        assert [p.name for p in (tmp_path / "gens").iterdir()] == [
            "gen-000001.kbt"
        ]
        assert pipeline.board.snapshot()["served_layout"] is None

    def test_kbt_swap_of_a_bare_artifact_exports_once(
        self, artifact, tmp_path, monkeypatch, capsys
    ):
        bare = tmp_path / "bare.kbt"
        KBTEstimator().fit(
            small_corpus() + batch_for("new.com", "t0")
        ).save(bare)
        manager = StoreManager(MmapTrustStore.open(artifact))
        with GatewayThread(manager) as url:
            calls = _Calls(monkeypatch)
            server = url.removeprefix("http://")
            assert cli_main(["swap", str(bare), "--server", server]) == 0
            assert "layout exported" in capsys.readouterr().out
            assert (calls.exports, calls.loads) == (1, 1)
            assert manager.etag == sha256(bare)
            # The cache it left makes the next swap of these bytes free.
            assert cli_main(["swap", str(bare), "--server", server]) == 0
            assert "layout reused" in capsys.readouterr().out
            assert (calls.exports, calls.loads) == (1, 1)

    def test_layout_with_a_foreign_etag_is_re_exported(
        self, artifact, tmp_path
    ):
        other = tmp_path / "other.kbt"
        KBTEstimator().fit(
            small_corpus() + batch_for("new.com", "t0")
        ).save(other)
        # A directory under this artifact's cache name whose manifest
        # speaks for different bytes: tampered with, or stale.
        planted = layout_cache_dir(artifact, artifact_etag(artifact))
        export_layout(other, planted)
        foreign = MmapTrustStore.open(planted)
        assert foreign.score("new.com") is not None
        foreign.close()

        store = MmapTrustStore.open(artifact)
        assert store.layout_state == "exported"
        assert store.etag == sha256(artifact)
        assert store.directory == planted
        assert store.score("new.com") is None
        reference = TrustStore.open(artifact)
        for site in reference.websites():
            assert store.score(site) == reference.score(site)


# ----------------------------------------------------------------------
# Staging directories of killed exports are swept with their generation
# ----------------------------------------------------------------------
class TestStagingLeak:
    def plant(self, artifact, etag="0123456789abcdef"):
        """What ``export_layout`` leaves when it is killed mid-write."""
        target = layout_cache_dir(artifact, etag)
        staging = target.with_name(f".{target.name}.tmp-k1lled")
        staging.mkdir()
        (staging / "site_score.npy").write_bytes(b"torn")
        return staging

    def test_pipeline_gc_sweeps_staging_of_stale_generations(
        self, tmp_path
    ):
        artifact = tmp_path / "model.kbt"
        KBTEstimator().fit(small_corpus()).save(artifact)
        manager = StoreManager(MmapTrustStore.open(artifact))
        pipeline = IngestPipeline(
            FittedKBT.load(artifact),
            tmp_path / "gens",
            publisher=InProcessPublisher(manager),
            keep_generations=1,
        )
        try:
            first = pipeline.process_batch(batch_for("a.com", "t0", n=4))
            stale = self.plant(first)
            second = pipeline.process_batch(batch_for("a.com", "t1", n=4))
            live = self.plant(second)
            assert not stale.exists()
            assert not first.exists()
            # The retained generation is left alone, staging included.
            assert live.exists()
            assert layout_cache_dir(second, sha256(second)).is_dir()
        finally:
            manager.close()

    def test_store_gc_sweeps_staging_of_stale_bytes(self, tmp_path):
        path = tmp_path / "model.kbt"
        KBTEstimator().fit(small_corpus()).save(path)
        stale = self.plant(path)
        in_flight = self.plant(path, etag=sha256(path))
        store = MmapTrustStore.open(path)
        try:
            assert store.layout_state == "exported"
            assert not stale.exists()
            # An export of the *same* bytes may be running in another
            # process: its staging directory is not ours to delete.
            assert in_flight.exists()
        finally:
            store.close()
