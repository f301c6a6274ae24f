"""Fitted state -> served bytes: one aggregation, two feeders.

``serving_columns`` decides what a store serves. It is fed either from
a saved artifact (``export_layout``, ``TrustStore.open`` — decoding only
the sections it reads) or from the process that still holds the fitted
model (``FittedKBT.save``, which writes the layout beside every
artifact it saves). These tests hold the two feeders to the same bytes,
keep the serving side off the observation matrix, keep opening a saved
fit — a published generation's swap included — free of exports and
artifact loads, and keep a swap of an artifact without its layout a
refusal that writes nothing (only ``kbt serve`` exports one).
"""

import errno
import glob
import hashlib
import json
import urllib.request
from pathlib import Path

import pytest

pytest.importorskip("numpy")

import numpy as np

import repro.io.artifact as artifact_module
import repro.io.mmap_layout as layout_module
from repro.cli import main as cli_main
from repro.core.kbt import FittedKBT, KBTEstimator
from repro.core.observation import ObservationMatrix
from repro.core.results import ResultColumns
from repro.ingest import HttpPublisher, IngestPipeline, InProcessPublisher
from repro.io.jsonl import read_records
from repro.io.mmap_layout import (
    LayoutError,
    artifact_etag,
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

from serving_reference import ReferenceStore
from test_artifact import serving_open, with_json_payload
from test_determinism_ladder import (
    CORPUS,
    UPDATES,
    ladder_config,
    split_merge_fit,
)
from test_ingest import batch_for, corpus as small_corpus
from test_observation import records_of


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def arrived_bare(path, name):
    """``path``'s bytes under a fresh ``name`` beside it: an artifact
    that arrives without its layout (copied, or the cache deleted)."""
    copy = Path(path).with_name(name)
    copy.write_bytes(Path(path).read_bytes())
    return copy


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
    """What ``FittedKBT.save`` passes: the model still in memory."""
    return serving_columns(
        fitted.result.columns(),
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


#: The 400 bodies, and the signal routes' 404 / 400 on any artifact.
BAD_REQUESTS = [
    ("/score", {}),
    ("/page", {"site": ["nosuch.example"]}),
    ("/batch", {}),
    ("/top", {"k": ["-1"]}),
    ("/top", {"k": ["many"]}),
    ("/compare", {"a": ["kbt"]}),
    ("/compare", {"a": ["kbt"], "b": ["nope"]}),
    ("/signals", {"site": ["nosuch.example"]}),
]


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
    "split-and-merge": lambda: (split_merge_fit(), {}, {}),
    # Saved with include_observations=False.
    "no-observations": lambda: (fit_golden(5.0), {}, {}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_in_memory_export_equals_from_file_export(case, tmp_path):
    """The layout ``save`` leaves beside the artifact, written from the
    model it holds, is the one ``export_layout`` writes from the file:
    every ``.npy`` and the manifest text, artifact path spelling
    included."""
    fitted, signals, weights = CASES[case]()
    path = fitted.save(
        tmp_path / "model.kbt",
        include_observations=case != "no-observations",
        signals=signals,
        fusion_weights=weights,
    )
    from_memory = layout_cache_dir(path, sha256(path))
    source = path
    if case == "json-payload":
        source = with_json_payload(path, tmp_path / "json.kbt")
    from_file = export_layout(source, tmp_path / "from-file").parent

    names = sorted(p.name for p in from_file.iterdir())
    assert "manifest.json" in names
    assert names == sorted(p.name for p in from_memory.iterdir())
    for name in names:
        if name != "manifest.json" or source == path:
            assert (from_memory / name).read_bytes() == (
                from_file / name
            ).read_bytes(), name
    manifests = [
        json.loads((d / "manifest.json").read_text()) for d in
        (from_file, from_memory)
    ]
    assert manifests[0]["etag"] == sha256(source)
    assert manifests[1]["etag"] == sha256(path)
    if source != path:
        # Another file: only its name, hash and file stamp differ.
        for manifest in manifests:
            del manifest["etag"], manifest["artifact"], manifest["stamp"]
        assert manifests[0] == manifests[1]

    reference = ReferenceStore.open(source)
    assert len(reference) > 0
    stores = [
        MmapTrustStore.open(from_file),
        MmapTrustStore.open(from_memory),
        TrustStore(columns_of(fitted, signals, weights)),
        TrustStore.open(source),
    ]
    for route, params in requests_for(fitted, reference) + BAD_REQUESTS:
        expected = render(reference, route, params)
        for store in stores:
            assert render(store, route, params) == expected, (route, params)
    for store in stores:
        store.close()


def test_save_fails_on_a_full_disk_and_the_next_open_exports(
    tmp_path, monkeypatch
):
    """A layout write that fills the disk fails the save with the
    ``LayoutError``; the artifact, written first and atomically, is
    complete, nothing is left staged, a swap of it is refused, and
    ``kbt serve``'s open exports the layout."""
    fitted = KBTEstimator().fit(small_corpus())
    (tmp_path / "clean").mkdir()
    clean = fitted.save(tmp_path / "clean" / "model.kbt")
    path = tmp_path / "model.kbt"
    save = np.save
    saves = []

    def filling_save(file, values):
        saves.append(file)
        if len(saves) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        save(file, values)

    monkeypatch.setattr(np, "save", filling_save)
    with pytest.raises(LayoutError, match="No space left") as caught:
        fitted.save(path)
    monkeypatch.undo()
    message = str(caught.value)
    assert str(path) in message
    assert "choose a writable directory" in message
    assert "'kbt serve' of it exports the layout" in message

    assert path.read_bytes() == clean.read_bytes()
    assert records_of(FittedKBT.load(path).observations) == records_of(
        fitted.observations
    )
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]
    assert not layout_cache_dir(path, sha256(path)).exists()

    listing = sorted(tmp_path.iterdir())
    with pytest.raises(LayoutError, match="kbt serve"):
        StoreManager(TrustStore(columns_of(fitted))).swap(path)
    assert sorted(tmp_path.iterdir()) == listing

    store = serving_open(path)
    try:
        assert store.directory == layout_cache_dir(path, sha256(path))
        assert store.score("good.com") == fitted.website_scores()["good.com"]
    finally:
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
            "_decode_coords",  # the C layer, the priors, the cells
            "_decode_columns",
            "load_artifact",
        ):
            monkeypatch.setattr(artifact_module, decoder, refuse)
        for view in ("value_posteriors", "extractor_quality"):
            monkeypatch.setattr(ResultColumns, view, refuse)

    def test_every_serving_entry_point(
        self, saved, no_full_decode, tmp_path, capsys
    ):
        fitted, path = saved
        want = fitted.website_scores()["good.com"]

        store = TrustStore.open(path)
        assert store.score("good.com") == want
        export_layout(path, tmp_path / "layout")
        mapped = serving_open(arrived_bare(path, "bare.kbt"))
        assert mapped.score("good.com") == want

        second = arrived_bare(path, "second.kbt")
        manager = StoreManager(mapped)
        try:
            with pytest.raises(LayoutError, match="no serving-layout"):
                manager.swap(second)
            with manager.acquire() as served:
                assert served.score("good.com") == want
        finally:
            manager.close()

        assert cli_main(["query", str(path), "--site", "good.com"]) == 0
        assert json.loads(capsys.readouterr().out)["score"] == want.score
        assert cli_main(["query", str(path), "--breakdown", "good.com"]) == 0

    def test_a_saved_fit_opens_without_decoding(
        self, saved, no_full_decode, tmp_path, monkeypatch
    ):
        """``save`` left the layout, so no way of opening the artifact
        reads it back — not even the serving sections."""
        fitted, path = saved
        second = fitted.save(tmp_path / "second.kbt")
        third = fitted.save(tmp_path / "third.kbt")

        def refuse(*_args, **_kwargs):
            raise AssertionError("an open decoded a saved artifact")

        # Every caller reads it from its defining module at call time.
        monkeypatch.setattr(artifact_module, "load_serving_inputs", refuse)
        want = fitted.website_scores()["good.com"]

        store = MmapTrustStore.open(path)
        assert store.score("good.com") == want
        manager = StoreManager(store)
        try:
            swapped = manager.swap(second)
            assert swapped.score("good.com") == want
            with GatewayThread(manager) as url:
                answer = HttpPublisher(url).publish(third)
            assert answer["etag"] == sha256(third)
            with manager.acquire() as served:
                assert served.directory == layout_cache_dir(
                    third, sha256(third)
                )
        finally:
            manager.close()

    def test_full_load_is_unchanged(self, saved):
        fitted, path = saved
        loaded = FittedKBT.load(path)
        assert records_of(loaded.observations) == records_of(
            fitted.observations
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
        scored = artifact_module.load_serving_inputs(path)[0]
        held = fitted.result.columns()
        assert scored.sources == held.sources
        for name in ("acc_source", "acc_value", "coord_source", "coord_p"):
            assert np.array_equal(getattr(scored, name), getattr(held, name))


# ----------------------------------------------------------------------
# A published generation arrives with its layout
# ----------------------------------------------------------------------
class _Calls:
    """Counts the serving side's trips back to the artifact."""

    def __init__(self, monkeypatch):
        self.exports = 0
        self.loads = 0
        export = layout_module._export

        def counted_export(
            artifact_path, directory, etag, columns=None, stamp=None
        ):
            # An export from the file: the columns are not at hand.
            self.exports += columns is None
            return export(artifact_path, directory, etag, columns, stamp)

        # Every export goes through the one writer, which its callers
        # read from its module at call time.
        monkeypatch.setattr(layout_module, "_export", counted_export)
        # Every caller reads these from repro.io.artifact at call time.
        for name in ("load_artifact", "load_serving_inputs"):
            monkeypatch.setattr(
                artifact_module,
                name,
                self._counted("loads", getattr(artifact_module, name)),
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
                assert status["served_generation"] == number
            assert (calls.exports, calls.loads) == (0, 0)
            with manager.acquire() as store:
                reference = ReferenceStore.open(path)
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
            # A second POST of the same generation maps the same layout.
            assert publisher.publish(path)["etag"] == sha256(path)
            assert (calls.exports, calls.loads) == (0, 0)
            status = json.loads(
                urllib.request.urlopen(f"{url}/ingest/status").read()
            )
            assert status["served_generation"] == 1
            assert status["served_etag"] == sha256(path)

    def test_no_publisher_saves_the_layout(self, artifact, tmp_path):
        pipeline = IngestPipeline(
            FittedKBT.load(artifact), tmp_path / "gens"
        )
        path = pipeline.process_batch(batch_for("fresh.example", "t0"))
        assert sorted(p.name for p in (tmp_path / "gens").iterdir()) == [
            "gen-000001.kbt",
            layout_cache_dir(path, sha256(path)).name,
        ]
        assert pipeline.board.snapshot()["served_generation"] is None

    def test_kbt_swap_of_a_bare_artifact_is_refused(
        self, artifact, tmp_path, monkeypatch, capsys
    ):
        bare = arrived_bare(
            KBTEstimator()
            .fit(small_corpus() + batch_for("new.com", "t0"))
            .save(tmp_path / "fitted.kbt"),
            "bare.kbt",
        )
        manager = StoreManager(MmapTrustStore.open(artifact))
        with GatewayThread(manager) as url:
            calls = _Calls(monkeypatch)
            server = url.removeprefix("http://")
            listing = sorted(tmp_path.iterdir())
            assert cli_main(["swap", str(bare), "--server", server]) == 1
            error = capsys.readouterr().err
            assert "swap failed (400)" in error
            assert "no serving-layout manifest" in error
            assert "kbt serve" in error
            assert (calls.exports, calls.loads) == (0, 0)
            assert manager.etag == sha256(artifact)
            assert sorted(tmp_path.iterdir()) == listing
            # What ``kbt serve`` does before it serves: export, once.
            serving_open(bare).close()
            serving_open(bare).close()
            assert (calls.exports, calls.loads) == (1, 1)
            # The cache it left makes a swap of these bytes free.
            assert cli_main(["swap", str(bare), "--server", server]) == 0
            out = capsys.readouterr().out
            assert out.startswith("swapped: generation 1, ")
            assert out.rstrip().endswith(f"etag {sha256(bare)}")
            assert (calls.exports, calls.loads) == (1, 1)
            assert manager.etag == sha256(bare)

    def test_layout_with_a_foreign_etag_is_re_exported(
        self, artifact, tmp_path
    ):
        other = tmp_path / "other.kbt"
        KBTEstimator().fit(
            small_corpus() + batch_for("new.com", "t0")
        ).save(other)
        artifact = arrived_bare(artifact, "arrived.kbt")
        # A directory under this artifact's cache name whose manifest
        # speaks for different bytes: tampered with, or stale.
        planted = layout_cache_dir(artifact, artifact_etag(artifact))
        export_layout(other, planted)
        foreign = MmapTrustStore.open(planted)
        assert foreign.score("new.com") is not None
        foreign.close()

        # The read side refuses the foreign ETag and leaves it be ...
        with pytest.raises(LayoutError, match="is not the layout of"):
            MmapTrustStore.open(artifact)
        manifest = json.loads((planted / "manifest.json").read_text())
        assert manifest["etag"] == sha256(other)
        # ... and ``kbt serve`` exports over it.
        store = serving_open(artifact)
        assert store.etag == sha256(artifact)
        assert store.directory == planted
        assert store.score("new.com") is None
        reference = ReferenceStore.open(artifact)
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
        path = arrived_bare(
            KBTEstimator().fit(small_corpus()).save(tmp_path / "fitted.kbt"),
            "model.kbt",
        )
        stale = self.plant(path)
        in_flight = self.plant(path, etag=sha256(path))
        # A refused open sweeps nothing; the export ``kbt serve`` makes
        # sweeps the stale bytes' staging.
        with pytest.raises(LayoutError):
            MmapTrustStore.open(path)
        assert stale.exists()
        store = serving_open(path)
        try:
            assert not stale.exists()
            # An export of the *same* bytes may be running in another
            # process: its staging directory is not ours to delete.
            assert in_flight.exists()
        finally:
            store.close()


# ----------------------------------------------------------------------
# Cache garbage collection matches an artifact's name literally
# ----------------------------------------------------------------------
class TestCacheNamesAreLiteral:
    def test_store_gc_keeps_another_artifacts_layout(self, tmp_path):
        plain = tmp_path / "ma.kbt"
        pattern = tmp_path / "m[ab].kbt"  # a glob that matches "ma.kbt"
        KBTEstimator().fit(small_corpus()).save(plain)
        arrived_bare(
            KBTEstimator()
            .fit(small_corpus() + batch_for("new.com", "t0"))
            .save(tmp_path / "fitted.kbt"),
            pattern.name,
        )
        # An artifact whose name starts with the other's cache name.
        longer = tmp_path / "m[ab].kbt.layout-x.kbt"
        longer.write_bytes(plain.read_bytes())
        for path in (plain, longer):
            serving_open(path).close()
        kept = layout_cache_dir(plain, sha256(plain))
        also_kept = layout_cache_dir(longer, sha256(longer))
        stale = layout_cache_dir(pattern, "0" * 64)
        stale.mkdir()
        staging = stale.with_name(f".{stale.name}.tmp-k1lled")
        staging.mkdir()

        store = serving_open(pattern)
        try:
            assert kept.is_dir()  # the parent deleted it
            assert also_kept.is_dir()
            assert not stale.exists() and not staging.exists()
            assert store.directory.is_dir()
        finally:
            store.close()

    def test_pipeline_gc_keeps_the_served_generations_layout(
        self, tmp_path
    ):
        artifact = tmp_path / "model.kbt"
        KBTEstimator().fit(small_corpus()).save(artifact)
        manager = StoreManager(MmapTrustStore.open(artifact))
        generations = tmp_path / "gens"
        pipeline = IngestPipeline(
            FittedKBT.load(artifact),
            generations,
            publisher=InProcessPublisher(manager),
            keep_generations=1,
        )
        # An older artifact whose name, read as a glob, matches every
        # generation's, with a layout of its own.
        stray = generations / "gen-*.kbt"
        stray.write_bytes(artifact.read_bytes())
        stray_store = serving_open(stray)
        stray_layout = stray_store.directory
        stray_store.close()
        try:
            path = pipeline.process_batch(batch_for("a.com", "t0", n=4))
            assert not stray.exists() and not stray_layout.exists()
            assert layout_cache_dir(path, sha256(path)).is_dir()
        finally:
            manager.close()


def glob_cached_layout_dirs(artifact_path, keep=None):
    """The reference: ``cached_layout_dirs`` as four ``Path.glob``
    patterns per artifact name, before it became one ``os.scandir``."""
    artifact_path = Path(artifact_path)
    legacy = glob.escape(artifact_path.name + ".layout")
    found = []
    for exported in (legacy, f"{legacy}-{'?' * 16}"):
        for pattern in (exported, f".{exported}.tmp-*"):
            for candidate in artifact_path.parent.glob(pattern):
                kept = keep is not None and (
                    candidate == keep
                    or candidate.name.startswith(f".{keep.name}.tmp-")
                )
                if candidate.is_dir() and not kept:
                    found.append(candidate)
    return found


ETAG = "0123456789abcdef" * 4
#: (artifact name, directories, files) per case; ``ETAG`` is the bytes
#: whose cache is kept when a case keeps one.
CACHE_LISTINGS = {
    "pattern characters": (
        "m[ab]*?.kbt",
        [
            "m[ab]*?.kbt.layout",
            f"m[ab]*?.kbt.layout-{ETAG[:16]}",
            "m[ab]*?.kbt.layout-fedcba9876543210",
            ".m[ab]*?.kbt.layout.tmp-k1lled",
            "ma*?.kbt.layout",  # what the name matches read as a glob
            "mab?.kbt.layout-fedcba9876543210",
            "mbXY.kbt.layout",
            ".ma.kbt.layout.tmp-x",
        ],
        [],
    ),
    "a longer name sharing the prefix": (
        "model.kbt",
        [
            "model.kbt.layout",
            "model.kbt.layout-x.kbt.layout-fedcba9876543210",
            "model.kbt.layout-x.kbt.layout",
            "model.kbt.layouts",
            "model.kbt.layout-0123456789abcdef0",  # 17 characters
            "model.kbt.layout-0123456789abcde",  # 15
            "model.kbt.layout-",
            "amodel.kbt.layout",
            "model.kbt",
            ".model.kbt.layout-x.kbt.layout.tmp-q",
        ],
        ["model.kbt.layout-x.kbt"],
    ),
    "legacy and ETag-keyed names": (
        "model.kbt",
        [
            "model.kbt.layout",
            f"model.kbt.layout-{ETAG[:16]}",
            "model.kbt.layout-fedcba9876543210",
            "model.kbt.layout-.tmp-abcdefghij",  # any 16 characters
        ],
        ["model.kbt.layout-ffffffffffffffff"],  # a file, not a cache
    ),
    "staging directories": (
        "model.kbt",
        [
            ".model.kbt.layout.tmp-k1lled",
            ".model.kbt.layout.tmp-",
            f".model.kbt.layout-{ETAG[:16]}.tmp-inflight",
            ".model.kbt.layout-fedcba9876543210.tmp-k1lled",
            ".model.kbt.layout-fedcba9876543210.tmp-",
            ".model.kbt.layout-fedcba987654321.tmp-short",
            ".model.kbt.layout-fedcba9876543210.tm-x",
            ".model.kbt.layout.tmp",
            "model.kbt.layout.tmp-unhidden",
        ],
        [".model.kbt.layout.tmp-file"],
    ),
    "an artifact named like a staging directory": (
        ".a.tmp-b.kbt",
        [
            ".a.tmp-b.kbt.layout",
            "..a.tmp-b.kbt.layout.tmp-c",
            f"..a.tmp-b.kbt.layout-{ETAG[:16]}.tmp-c",
            ".a.tmp-b.kbt.layout-fedcba9876543210",
        ],
        [],
    ),
}


@pytest.mark.parametrize("keep", [False, True], ids=["all", "keep"])
@pytest.mark.parametrize("case", sorted(CACHE_LISTINGS))
def test_cached_layout_dirs_lists_what_the_globs_did(
    case, keep, tmp_path, monkeypatch
):
    name, directories, files = CACHE_LISTINGS[case]
    for directory in directories:
        (tmp_path / directory).mkdir()
    for file in files:
        (tmp_path / file).write_bytes(b"")
    (tmp_path / "elsewhere").mkdir()
    (tmp_path / f"{name}.layout-{'e' * 16}").symlink_to("elsewhere")
    (tmp_path / f"{name}.layout-{'d' * 16}").symlink_to("dangling")
    monkeypatch.chdir(tmp_path)
    for artifact in (tmp_path / name, Path(name)):
        kept = layout_cache_dir(artifact, ETAG) if keep else None
        found = layout_module.cached_layout_dirs(artifact, keep=kept)
        reference = glob_cached_layout_dirs(artifact, keep=kept)
        assert sorted(found) == sorted(reference)
        assert len(found) == len(set(found)) >= 2
    missing = tmp_path / "no-such-directory" / name
    assert layout_module.cached_layout_dirs(missing) == []
    assert glob_cached_layout_dirs(missing) == []


# ----------------------------------------------------------------------
# kbt query builds its store in memory and writes nothing
# ----------------------------------------------------------------------
def test_query_in_a_read_only_directory_writes_nothing(tmp_path, capsys):
    fitted, signals, weights = with_two_signals()
    directory = tmp_path / "read-only"
    directory.mkdir()
    path = fitted.save(
        directory / "model.kbt", signals=signals, fusion_weights=weights
    )
    want = fitted.website_scores()["good.com"]
    reference = ReferenceStore.open(path)
    before = sorted(tmp_path.rglob("*"))
    directory.chmod(0o555)
    try:
        store = TrustStore.open(path)
        assert store.etag is None
        for route, params in requests_for(fitted, reference):
            assert render(store, route, params) == render(
                reference, route, params
            ), (route, params)
        for argv in (
            ["query", str(path), "--site", "good.com"],
            ["query", str(path), "--breakdown", "good.com"],
            ["query", str(path), "--top", "3"],
            ["signals", str(path), "--site", "good.com"],
            ["compare", str(path), "--json"],
        ):
            assert cli_main(argv) == 0, argv
        first = capsys.readouterr().out.split("\n}\n")[0] + "\n}"
        assert json.loads(first)["score"] == want.score
    finally:
        directory.chmod(0o755)
    assert sorted(tmp_path.rglob("*")) == before
