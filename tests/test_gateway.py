"""Serving-tier tests: layout export, MmapTrustStore parity, the asyncio
gateway, and zero-downtime hot artifact swap."""

import contextlib
import http.client
import json
import os
import re
import select
import shutil
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
import zipfile
from urllib.parse import parse_qs, urlsplit

import pytest

from repro.cli import main as cli_main
from repro.core.kbt import KBTEstimator
from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    page_source,
)
from repro.io.artifact import _HEADER_MEMBER
from repro.io.mmap_layout import (
    LayoutError,
    ServingLayout,
    artifact_etag,
    export_layout,
)
from repro.serving.gateway import INLINE_ROWS, Gateway, GatewayThread
from repro.serving.manager import StoreManager
from repro.serving.mmap_store import MmapTrustStore
from repro.serving.routes import handle_route, lookup_cost, route_cost
from repro.serving.store import TrustStore
from repro.signals import CorpusContext, SignalSuite, fuse


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


def corpus(extra_site=None):
    records = []
    subjects = [f"s{i}" for i in range(12)]
    sites = ["a.com", "b.com", "c.com", "good.com"]
    if extra_site:
        sites.append(extra_site)
    for i, site in enumerate(sites):
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
def artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("artifacts") / "model.kbt"
    KBTEstimator().fit(corpus()).save(path)
    return path


@pytest.fixture(scope="module")
def artifact_b(tmp_path_factory):
    """A second, different fit: the swap target."""
    path = tmp_path_factory.mktemp("artifacts") / "model_b.kbt"
    KBTEstimator().fit(corpus(extra_site="new.com")).save(path)
    return path


@pytest.fixture(scope="module")
def signal_artifact(tmp_path_factory):
    fitted = KBTEstimator().fit(corpus())
    context = CorpusContext(
        observations=fitted.observations, fitted=fitted
    )
    frame = SignalSuite().run(context, "kbt,pagerank,copydetect")
    gold = {site: site != "bad.com" for site in frame.websites()}
    fusion = fuse(frame, gold_labels=gold)
    path = tmp_path_factory.mktemp("artifacts") / "signals.kbt"
    fitted.save(
        path,
        signals={name: frame.signal(name) for name in frame.names},
        fusion_weights=fusion.weights,
    )
    return path


#: A website with more contributor rows than the gateway answers inline.
WIDE_SITE = "wide.example"
WIDE_PAGES = INLINE_ROWS + 6


@pytest.fixture(scope="module")
def wide_artifact(tmp_path_factory):
    records = corpus()
    for page in range(WIDE_PAGES):
        records.extend(
            page_records(WIDE_SITE, f"{WIDE_SITE}/p{page}", "e0",
                         ["s0", "s1"], lambda s: f"true-{s}")
        )
    path = tmp_path_factory.mktemp("artifacts") / "wide.kbt"
    KBTEstimator().fit(records).save(path)
    return path


#: Every route shape the serving tier answers, including error bodies.
REQUESTS = [
    ("/healthz", {}),
    ("/score", {"site": ["good.com"]}),
    ("/score", {"site": ["nosuch.example"]}),
    ("/score", {}),
    ("/page", {"site": ["good.com"], "page": ["good.com/p"]}),
    ("/page", {"site": ["good.com"], "page": ["nope"]}),
    ("/batch", {"sites": ["good.com,bad.com,nosuch.example"]}),
    ("/top", {"k": ["3"]}),
    ("/top", {"k": ["-1"]}),
    ("/top", {}),
    ("/percentile", {"site": ["bad.com"]}),
    ("/percentile", {"site": ["nosuch"]}),
    ("/breakdown", {"site": ["good.com"]}),
    ("/breakdown", {"site": ["bad.com"]}),
    ("/signals", {}),
    ("/signals", {"site": ["good.com"]}),
    ("/signals", {"site": ["nosuch"]}),
    ("/compare", {"a": ["kbt"], "b": ["pagerank"], "k": ["5"]}),
    ("/compare", {"a": ["kbt"], "b": ["nope"]}),
    ("/nosuchroute", {}),
]


def render(store, path, params):
    status, payload = handle_route(store, path, params)
    return status, json.dumps(payload, ensure_ascii=False).encode("utf-8")


# ----------------------------------------------------------------------
# Serving layout + MmapTrustStore
# ----------------------------------------------------------------------
class TestServingLayout:
    def test_export_writes_manifest_last(self, artifact, tmp_path):
        manifest_path = export_layout(artifact, tmp_path / "layout")
        manifest = json.loads(manifest_path.read_text())
        assert manifest["format"] == "kbt-serving-layout"
        assert manifest["etag"] == artifact_etag(artifact)
        assert manifest["num_sites"] == 5

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(LayoutError, match="re-export"):
            ServingLayout(tmp_path)

    def test_version_mismatch_raises(self, artifact, tmp_path):
        manifest_path = export_layout(artifact, tmp_path / "layout")
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(LayoutError, match="version"):
            ServingLayout(tmp_path / "layout")

    def test_foreign_manifest_raises(self, tmp_path):
        directory = tmp_path / "layout"
        directory.mkdir()
        (directory / "manifest.json").write_text('{"format": "other"}')
        with pytest.raises(LayoutError, match="not a serving-layout"):
            ServingLayout(directory)

    def test_missing_column_raises(self, artifact, tmp_path):
        export_layout(artifact, tmp_path / "layout")
        (tmp_path / "layout" / "site_score.npy").unlink()
        layout = ServingLayout(tmp_path / "layout")
        with pytest.raises(LayoutError, match="re-export"):
            layout.array("site_score")

    def test_export_reuses_identical_existing_layout(self, artifact,
                                                     tmp_path):
        """Re-exporting the same artifact bytes into the same directory
        is a no-op reuse, never a rewrite (the files may be mmapped)."""
        manifest_path = export_layout(artifact, tmp_path / "layout")
        mtime = manifest_path.stat().st_mtime_ns
        again = export_layout(artifact, tmp_path / "layout")
        assert again == manifest_path
        assert manifest_path.stat().st_mtime_ns == mtime

    def test_export_refuses_foreign_existing_directory(
        self, artifact, artifact_b, tmp_path
    ):
        """A directory holding a different artifact's layout (whose
        columns a live store may have mmapped) is never overwritten."""
        export_layout(artifact, tmp_path / "layout")
        before = sorted(
            (p.name, p.stat().st_mtime_ns)
            for p in (tmp_path / "layout").iterdir()
        )
        with pytest.raises(LayoutError, match="refusing to export"):
            export_layout(artifact_b, tmp_path / "layout")
        after = sorted(
            (p.name, p.stat().st_mtime_ns)
            for p in (tmp_path / "layout").iterdir()
        )
        assert after == before  # not a single file touched
        # The refused export left no temp debris behind either.
        assert [p.name for p in tmp_path.iterdir()] == ["layout"]

    def test_export_refuses_torn_existing_directory(self, artifact,
                                                    tmp_path):
        directory = tmp_path / "layout"
        directory.mkdir()
        (directory / "junk").write_text("not a layout")
        with pytest.raises(LayoutError, match="refusing to export"):
            export_layout(artifact, directory)
        assert (directory / "junk").read_text() == "not a layout"


class TestMmapParity:
    @pytest.mark.parametrize("path,params", REQUESTS)
    def test_plain_routes_byte_identical(self, artifact, path, params):
        legacy = TrustStore.open(artifact)
        mmapped = MmapTrustStore.open(artifact)
        assert render(mmapped, path, params) == render(legacy, path, params)

    @pytest.mark.parametrize("path,params", REQUESTS)
    def test_signal_routes_byte_identical(
        self, signal_artifact, path, params
    ):
        legacy = TrustStore.open(signal_artifact)
        mmapped = MmapTrustStore.open(signal_artifact)
        assert render(mmapped, path, params) == render(legacy, path, params)

    def test_open_reuses_cached_layout(self, artifact):
        store = MmapTrustStore.open(artifact)
        manifest = store.directory / "manifest.json"
        mtime = manifest.stat().st_mtime_ns
        again = MmapTrustStore.open(artifact)
        assert manifest.stat().st_mtime_ns == mtime
        assert again.etag == store.etag == artifact_etag(artifact)

    def test_stale_layout_is_reexported(self, tmp_path):
        path = tmp_path / "model.kbt"
        KBTEstimator().fit(corpus()).save(path)
        first = MmapTrustStore.open(path)
        KBTEstimator().fit(corpus(extra_site="fresh.com")).save(path)
        second = MmapTrustStore.open(path)
        assert second.etag != first.etag
        assert second.etag == artifact_etag(path)
        assert "fresh.com" in second

    def test_inplace_refit_never_touches_live_layout(self, tmp_path):
        """An in-place refit (same path, new bytes) exports into a
        *fresh* directory: the columns the live store has mmapped are
        never truncated or rewritten, so it keeps serving the old
        generation byte-for-byte."""
        path = tmp_path / "model.kbt"
        KBTEstimator().fit(corpus()).save(path)
        first = MmapTrustStore.open(path)
        before = render(first, "/top", {"k": ["5"]})
        KBTEstimator().fit(corpus(extra_site="fresh.com")).save(path)
        second = MmapTrustStore.open(path)
        assert second.directory != first.directory
        # The old store's mmaps are intact (POSIX: even if its cache
        # directory was garbage-collected, the mapped inodes survive).
        assert render(first, "/top", {"k": ["5"]}) == before
        assert "fresh.com" in second and "fresh.com" not in first

    def test_legacy_unkeyed_layout_cache_is_reused(self, tmp_path):
        """A pre-existing `<artifact>.layout/` cache (the pre-ETag-keyed
        naming) keeps being served from while its ETag matches."""
        path = tmp_path / "model.kbt"
        KBTEstimator().fit(corpus()).save(path)
        legacy_dir = tmp_path / "model.kbt.layout"
        export_layout(path, legacy_dir)
        store = MmapTrustStore.open(path)
        assert store.directory == legacy_dir


# ----------------------------------------------------------------------
# StoreManager: refcounted swap
# ----------------------------------------------------------------------
class _ClosableStore:
    def __init__(self, etag="e0"):
        self.etag = etag
        self.closed = False

    def close(self):
        self.closed = True


class TestStoreManager:
    def test_swap_defers_close_until_lease_released(self):
        old = _ClosableStore("old")
        new = _ClosableStore("new")
        manager = StoreManager(old, opener=lambda path: new)
        lease = manager.acquire()
        assert manager.swap("whatever") is new
        assert manager.etag == "new"
        # The in-flight request still holds the old store, un-closed.
        assert lease.store is old
        assert not old.closed
        lease.release()
        assert old.closed
        assert not new.closed

    def test_swap_closes_idle_old_store_immediately(self):
        old = _ClosableStore()
        manager = StoreManager(old, opener=lambda path: _ClosableStore())
        manager.swap("whatever")
        assert old.closed

    def test_failed_swap_keeps_current_store(self):
        old = _ClosableStore("old")

        def opener(path):
            raise LayoutError("boom")

        manager = StoreManager(old, opener=opener)
        with pytest.raises(LayoutError):
            manager.swap("whatever")
        assert manager.etag == "old"
        assert not old.closed
        assert manager.generation == 0

    def test_release_is_idempotent(self):
        manager = StoreManager(_ClosableStore())
        lease = manager.acquire()
        lease.release()
        lease.release()
        with pytest.raises(RuntimeError):
            lease.store


# ----------------------------------------------------------------------
# Gateway over HTTP
# ----------------------------------------------------------------------
def http_get(address, path, headers=None):
    connection = http.client.HTTPConnection(*address, timeout=10)
    try:
        connection.request("GET", path, headers=headers or {})
        response = connection.getresponse()
        return response.status, response.read(), dict(response.getheaders())
    finally:
        connection.close()


def http_post(address, path, body, headers=None):
    connection = http.client.HTTPConnection(*address, timeout=10)
    try:
        connection.request(
            "POST", path, body=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class TestGatewayHttp:
    GET_PATHS = [
        "/healthz",
        "/score?site=good.com",
        "/score?site=nosuch.example",
        "/score",
        "/page?site=good.com&page=good.com%2Fp",
        "/batch?sites=good.com,bad.com,nosuch.example",
        "/top?k=3",
        "/top?k=bogus",
        "/percentile?site=bad.com",
        "/breakdown?site=good.com",
        "/signals",
        "/signals?site=good.com",
        "/compare?a=kbt&b=pagerank&k=5",
        "/compare?a=kbt&b=nope",
        "/nosuchroute",
    ]

    def test_byte_parity_with_legacy_server(self, signal_artifact):
        """The reference is the route table over the in-memory
        ``TrustStore``; the gateway over the mmap store must serve the
        same status and bytes for every path."""
        reference = TrustStore.open(signal_artifact)
        manager = StoreManager(MmapTrustStore.open(signal_artifact))
        gateway = GatewayThread(manager).start()
        try:
            for path in self.GET_PATHS:
                url = urlsplit(path)
                expected = render(reference, url.path, parse_qs(url.query))
                status, body, _ = http_get(gateway.address, path)
                assert (status, body) == expected, path
        finally:
            gateway.stop()

    def test_etag_roundtrip_and_304(self, signal_artifact):
        manager = StoreManager(MmapTrustStore.open(signal_artifact))
        gateway = GatewayThread(manager).start()
        try:
            status, body, headers = http_get(
                gateway.address, "/score?site=good.com"
            )
            assert status == 200
            etag = headers["ETag"]
            assert etag == f'"{manager.etag}"'
            status, cached, headers = http_get(
                gateway.address, "/score?site=good.com"
            )
            assert (status, cached) == (200, body)  # LRU hit, same bytes
            status, empty, _ = http_get(
                gateway.address,
                "/score?site=good.com",
                {"If-None-Match": etag},
            )
            assert (status, empty) == (304, b"")
            # A different validator misses and serves the full body.
            status, body2, _ = http_get(
                gateway.address,
                "/score?site=good.com",
                {"If-None-Match": '"deadbeef"'},
            )
            assert (status, body2) == (200, body)
        finally:
            gateway.stop()

    def test_healthz_is_never_cached(self, signal_artifact):
        manager = StoreManager(MmapTrustStore.open(signal_artifact))
        gateway = GatewayThread(manager).start()
        try:
            status, _, headers = http_get(gateway.address, "/healthz")
            assert status == 200
            assert "ETag" not in headers
            status, _, _ = http_get(
                gateway.address,
                "/healthz",
                {"If-None-Match": f'"{manager.etag}"'},
            )
            assert status == 200
        finally:
            gateway.stop()

    def test_post_batch_matches_get_batch(self, signal_artifact):
        manager = StoreManager(MmapTrustStore.open(signal_artifact))
        gateway = GatewayThread(manager).start()
        try:
            sites = ["good.com", "bad.com", "a.com", "zz", "b.com"]
            _, get_body, _ = http_get(
                gateway.address, "/batch?sites=" + ",".join(sites)
            )
            status, post_body = http_post(
                gateway.address, "/batch", {"sites": sites}
            )
            assert status == 200
            assert post_body == get_body

            status, body = http_post(
                gateway.address, "/batch", {"wrong": "shape"}
            )
            assert status == 400
            assert b"sites" in body

            # 304 is a conditional-GET mechanism: a POST carrying a
            # matching If-None-Match is executed unconditionally.
            status, conditional = http_post(
                gateway.address, "/batch", {"sites": sites},
                headers={"If-None-Match": f'"{manager.etag}"'},
            )
            assert (status, conditional) == (200, get_body)
        finally:
            gateway.stop()

    def test_readyz_reports_etag_and_generation(self, signal_artifact):
        manager = StoreManager(MmapTrustStore.open(signal_artifact))
        gateway = GatewayThread(manager).start()
        try:
            status, body, _ = http_get(gateway.address, "/readyz")
            assert status == 200
            payload = json.loads(body)
            assert payload == {
                "status": "ready",
                "etag": manager.etag,
                "generation": 0,
            }
        finally:
            gateway.stop()

    def test_readyz_503_when_draining(self, signal_artifact):
        manager = StoreManager(MmapTrustStore.open(signal_artifact))
        gateway = GatewayThread(manager).start()
        gateway.gateway._draining = True
        try:
            connection = http.client.HTTPConnection(
                *gateway.address, timeout=10
            )
            connection.request("GET", "/readyz")
            response = connection.getresponse()
            assert response.status == 503
            assert json.loads(response.read()) == {
                "error": "server is draining"
            }
            connection.close()
        finally:
            gateway.gateway._draining = False
            gateway.stop()

    def test_method_not_allowed(self, signal_artifact):
        manager = StoreManager(MmapTrustStore.open(signal_artifact))
        gateway = GatewayThread(manager).start()
        try:
            status, body = http_post(
                gateway.address, "/score", {"site": "good.com"}
            )
            assert status == 405
        finally:
            gateway.stop()

    def test_connection_limit_503(self, signal_artifact):
        manager = StoreManager(MmapTrustStore.open(signal_artifact))
        gateway = GatewayThread(manager, max_connections=1).start()
        try:
            held = http.client.HTTPConnection(*gateway.address, timeout=10)
            held.request("GET", "/healthz")
            held.getresponse().read()  # keep-alive: socket stays counted
            status, body, _ = http_get(gateway.address, "/healthz")
            assert status == 503
            assert json.loads(body) == {"error": "connection limit reached"}
            held.close()
        finally:
            gateway.stop()

    def test_request_timeout_504(self):
        class SlowStore:
            def score_json(self, site):
                time.sleep(1.0)
                return {"key": site}

            def close(self):
                pass

        manager = StoreManager(SlowStore())
        gateway = GatewayThread(manager, request_timeout=0.2).start()
        try:
            status, body, _ = http_get(
                gateway.address, "/score?site=good.com"
            )
            assert status == 504
            assert json.loads(body) == {"error": "request timed out"}
        finally:
            gateway.stop()


# ----------------------------------------------------------------------
# What a request costs, and where it is therefore answered
# ----------------------------------------------------------------------
MANY_SITES = ",".join(f"site{i}.example" for i in range(INLINE_ROWS + 1))

#: (path, params, rows) over a store whose lookups are resident.
COSTS = [
    ("/healthz", {}, 1),
    ("/score", {"site": ["good.com"]}, 1),
    ("/score", {"site": ["nosuch.example"]}, 1),
    ("/score", {}, 1),
    ("/page", {"site": ["good.com"], "page": ["good.com/p"]}, 1),
    ("/page", {"site": ["good.com"]}, 1),
    ("/percentile", {"site": ["bad.com"]}, 1),
    ("/percentile", {}, 1),
    ("/nosuchroute", {}, 1),
    ("/batch", {"sites": ["good.com,bad.com,nosuch.example"]}, 3),
    ("/batch", {"sites": [MANY_SITES]}, INLINE_ROWS + 1),
    ("/batch", {"sites": [",,"]}, 1),
    ("/batch", {"sites": [""]}, 1),
    ("/batch", {}, 1),
    ("/top", {}, 10),
    ("/top", {"k": ["3"]}, 3),
    ("/top", {"k": ["0"]}, 1),
    ("/top", {"k": ["bogus"]}, 1),
    ("/top", {"k": ["-1"]}, 1),
    ("/top", {"k": ["1" + "0" * 30]}, 10**30),
    ("/breakdown", {"site": ["good.com"]}, 1),
    ("/breakdown", {"site": [WIDE_SITE]}, WIDE_PAGES),
    ("/breakdown", {"site": ["nosuch.example"]}, 1),
    ("/breakdown", {}, 1),
    ("/signals", {}, None),
    ("/signals", {"site": ["good.com"]}, None),
    ("/compare", {"a": ["kbt"], "b": ["pagerank"], "k": ["5"]}, None),
    ("/compare", {}, None),
]


class TestRouteCost:
    @pytest.mark.parametrize("path,params,rows", COSTS)
    def test_cost_of_every_route(self, wide_artifact, path, params, rows):
        for store in (
            MmapTrustStore.open(wide_artifact),
            TrustStore.open(wide_artifact),
        ):
            assert route_cost(store, path, params) == rows

    @pytest.mark.parametrize("path,params,_rows", COSTS)
    def test_unmarked_store_is_unbounded(self, path, params, _rows):
        """A duck-typed store says nothing about how long its lookups
        block, so nothing about it is bounded — and nothing is called."""
        assert route_cost(object(), path, params) is None

    def test_marker_is_declared_by_the_stores(self, wide_artifact):
        store = MmapTrustStore.open(wide_artifact)
        assert store.resident_lookups and TrustStore.resident_lookups
        assert lookup_cost(store, 0) == 1
        assert lookup_cost(store, 300) == 300
        store.resident_lookups = False
        assert lookup_cost(store, 1) is None
        assert route_cost(store, "/score", {"site": ["good.com"]}) is None

    def test_contributor_rows_is_the_breakdown_length(self, wide_artifact):
        stores = (
            MmapTrustStore.open(wide_artifact),
            TrustStore.open(wide_artifact),
        )
        for store in stores:
            for site in store.websites():
                rows = store.contributor_rows(site)
                assert type(rows) is int
                assert rows == store.breakdown(site)["num_sources"]
            assert store.contributor_rows(WIDE_SITE) == WIDE_PAGES
            assert store.contributor_rows("nosuch.example") == 0


@contextlib.contextmanager
def spied_gateway(store, **kwargs):
    """A running gateway over ``store`` (or a ready ``StoreManager``)
    plus the list of everything its pool was handed:
    ``(GatewayThread, submitted)``."""
    manager = store if isinstance(store, StoreManager) else StoreManager(store)
    gateway = GatewayThread(manager, **kwargs).start()
    pool = gateway.gateway._pool
    submitted = []
    real_submit = pool.submit

    def submit(fn, *args, **kw):
        submitted.append(fn)
        return real_submit(fn, *args, **kw)

    pool.submit = submit
    try:
        yield gateway, submitted
    finally:
        gateway.stop()


class TestInlineOrPool:
    INLINE = [
        "/healthz",
        "/score?site=good.com",
        "/score?site=nosuch.example",
        "/score",
        "/page?site=good.com&page=good.com%2Fp",
        "/percentile?site=bad.com",
        "/nosuchroute",
        "/batch?sites=good.com,bad.com",
        "/batch?sites=" + MANY_SITES.rsplit(",", 1)[0],
        "/top?k=10",
        "/top?k=bogus",
        f"/top?k={INLINE_ROWS}",
        "/breakdown?site=good.com",
    ]
    POOLED = [
        "/signals",
        "/signals?site=good.com",
        "/compare?a=kbt&b=pagerank&k=5",
        "/batch?sites=" + MANY_SITES,
        f"/top?k={INLINE_ROWS + 1}",
        "/top?k=1" + "0" * 30,
        f"/breakdown?site={WIDE_SITE}",
    ]

    def test_bounded_requests_never_reach_the_pool(self, wide_artifact):
        with spied_gateway(MmapTrustStore.open(wide_artifact)) as (
            gateway, submitted,
        ):
            for path in self.INLINE:
                status, _, _ = http_get(gateway.address, path)
                assert status in (200, 400, 404), path
                assert submitted == [], path

    def test_unbounded_requests_run_on_the_pool(self, wide_artifact):
        with spied_gateway(MmapTrustStore.open(wide_artifact)) as (
            gateway, submitted,
        ):
            for path in self.POOLED:
                del submitted[:]
                status, _, _ = http_get(gateway.address, path)
                assert status in (200, 400, 404), path
                assert len(submitted) >= 1, path

    def test_post_batch_on_either_side_of_the_bound(self, wide_artifact):
        sites = MANY_SITES.split(",")
        with spied_gateway(MmapTrustStore.open(wide_artifact)) as (
            gateway, submitted,
        ):
            for keys in (["good.com"], sites[:INLINE_ROWS], []):
                status, _ = http_post(
                    gateway.address, "/batch", {"sites": keys}
                )
                assert status == 200 and submitted == []
            status, _ = http_post(gateway.address, "/batch", {"sites": sites})
            assert status == 200 and len(submitted) == 1

    def test_unmarked_store_always_runs_on_the_pool(self, wide_artifact):
        store = MmapTrustStore.open(wide_artifact)
        store.resident_lookups = False
        with spied_gateway(store) as (gateway, submitted):
            for count, path in enumerate(self.INLINE, start=1):
                http_get(gateway.address, path)
                assert len(submitted) == count, path
            http_post(gateway.address, "/batch", {"sites": ["good.com"]})
            assert len(submitted) == len(self.INLINE) + 1

    def test_inline_and_pooled_answers_are_byte_identical(
        self, signal_artifact
    ):
        """Same store, marker on and off: status, ETag and body agree
        with each other and with ``handle_route`` over ``TrustStore``."""
        reference = TrustStore.open(signal_artifact)
        pooled_store = MmapTrustStore.open(signal_artifact)
        pooled_store.resident_lookups = False
        sites = ["good.com", "bad.com", "a.com", "zz", "b.com"]
        with spied_gateway(MmapTrustStore.open(signal_artifact)) as (
            inline, inline_submitted,
        ), spied_gateway(pooled_store) as (pooled, pooled_submitted):
            for path in TestGatewayHttp.GET_PATHS:
                url = urlsplit(path)
                expected = render(reference, url.path, parse_qs(url.query))
                answers = [
                    http_get(gateway.address, path)
                    for gateway in (inline, pooled)
                ]
                for status, body, headers in answers:
                    assert (status, body) == expected, path
                assert answers[0][2].get("ETag") == answers[1][2].get(
                    "ETag"
                ), path
            assert len(pooled_submitted) == len(TestGatewayHttp.GET_PATHS)
            # Only the signal routes left the inline gateway's loop.
            assert len(inline_submitted) == sum(
                path.startswith(("/signals", "/compare"))
                for path in TestGatewayHttp.GET_PATHS
            )
            posts = [
                http_post(gateway.address, "/batch", {"sites": sites})
                for gateway in (inline, pooled)
            ]
            assert posts[0] == posts[1] == render(
                reference, "/batch", {"sites": [",".join(sites)]}
            )

    def test_pooled_post_batch_runs_like_a_get(self, signal_artifact):
        """Past the bound a POST is one pool job: the GET's bytes in the
        posted order, its 500 for a store that raises, its 504 for one
        that is slow — and the lease comes back every time."""
        sites = ["good.com", "zz", "bad.com"] * INLINE_ROWS
        store = MmapTrustStore.open(signal_artifact)
        manager = StoreManager(store)
        real_batch = store.batch_json
        with spied_gateway(manager, request_timeout=0.5) as (
            gateway, submitted,
        ):
            def post():
                return http_post(gateway.address, "/batch", {"sites": sites})

            expected = http_get(
                gateway.address, "/batch?sites=" + ",".join(sites)
            )
            assert post() == expected[:2]
            assert len(submitted) == 2

            def broken(keys):
                raise RuntimeError("boom")

            store.batch_json = broken
            status, body = post()
            assert status == 500
            assert json.loads(body) == {
                "error": "internal error: RuntimeError: boom"
            }

            def slow(keys):
                time.sleep(1.0)
                return real_batch(keys)

            store.batch_json = slow
            status, body = post()
            assert status == 504
            assert json.loads(body) == {"error": "request timed out"}
            store.batch_json = real_batch
            assert post() == expected[:2]
            deadline = time.monotonic() + 5.0
            while manager._current.leases and time.monotonic() < deadline:
                time.sleep(0.05)
            assert manager._current.leases == 0

    def test_slow_unbounded_route_of_a_resident_store_504(
        self, signal_artifact
    ):
        """The deadline still covers what the loop does not answer: a
        resident store's ``/compare`` is pooled, so a slow one is a 504
        — and the point lookups beside it are untouched."""
        store = MmapTrustStore.open(signal_artifact)

        def slow_compare(a, b, k=10):
            time.sleep(1.0)
            return {}

        store.compare = slow_compare
        gateway = GatewayThread(
            StoreManager(store), request_timeout=0.2
        ).start()
        try:
            status, body, _ = http_get(
                gateway.address, "/compare?a=kbt&b=pagerank"
            )
            assert status == 504
            assert json.loads(body) == {"error": "request timed out"}
            status, _, _ = http_get(gateway.address, "/score?site=good.com")
            assert status == 200
        finally:
            gateway.stop()


# ----------------------------------------------------------------------
# Request framing: the boundary that takes outside bytes
# ----------------------------------------------------------------------
def parse_responses(data: bytes):
    """Split ``Content-Length``-framed responses off the front of
    ``data``: the ``(status, head, body)`` list and the bytes left."""
    responses = []
    at = 0
    while True:
        end = data.find(b"\r\n\r\n", at)
        if end < 0:
            break
        head = data[at:end].decode("latin-1")
        match = re.search(r"content-length: (\d+)", head, re.I)
        stop = end + 4 + (int(match.group(1)) if match else 0)
        if len(data) < stop:
            break
        responses.append((int(head[9:12]), head, data[end + 4 : stop]))
        at = stop
    return responses, data[at:]


def read_responses(sock, limit=None):
    """Read ``sock`` until ``limit`` responses arrived or the peer
    closed; returns them and whatever bytes followed the last one."""
    responses, data = [], b""
    while limit is None or len(responses) < limit:
        chunk = sock.recv(1 << 16)
        if not chunk:
            break
        more, data = parse_responses(data + chunk)
        responses += more
    return responses, data


class TestRequestFraming:
    def test_chunked_body_is_one_501_and_a_close(self, artifact):
        """A body the gateway cannot frame is refused once; its bytes
        are never parsed as a second request."""
        gateway = GatewayThread(
            StoreManager(MmapTrustStore.open(artifact))
        ).start()
        try:
            chunk = b'{"sites": ["good.com"]}'
            with socket.create_connection(gateway.address, timeout=10) as sock:
                sock.sendall(
                    b"POST /batch HTTP/1.1\r\nHost: x\r\n"
                    b"Transfer-Encoding: chunked\r\n\r\n"
                    + f"{len(chunk):x}\r\n".encode() + chunk
                    + b"\r\n0\r\n\r\n"
                )
                responses, rest = read_responses(sock)
            assert rest == b""
            ((status, head, body),) = responses
            assert status == 501
            assert "Connection: close" in head
            assert "transfer-encoding" in json.loads(body)["error"]
            status, _, _ = http_get(gateway.address, "/healthz")
            assert status == 200
        finally:
            gateway.stop()

    def test_expect_100_continue_gets_the_interim_response(self, artifact):
        """curl sends ``Expect: 100-continue`` with a large body and
        waits a second for the go-ahead before sending it anyway."""
        gateway = GatewayThread(
            StoreManager(MmapTrustStore.open(artifact))
        ).start()
        try:
            sites = ["good.com", "bad.com", "nosuch.example"]
            body = json.dumps({"sites": sites}).encode("utf-8")
            with socket.create_connection(gateway.address, timeout=5) as sock:
                sock.sendall(
                    b"POST /batch HTTP/1.1\r\nHost: x\r\n"
                    b"Expect: 100-continue\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                )
                # Nothing of the body is on the wire yet.
                interim = b""
                while not interim.endswith(b"\r\n\r\n"):
                    interim += sock.recv(1)
                assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
                sock.sendall(body)
                ((status, _head, answer),), _ = read_responses(sock, 1)
            assert status == 200
            _, expected, _ = http_get(
                gateway.address, "/batch?sites=" + ",".join(sites)
            )
            assert answer == expected
        finally:
            gateway.stop()

    def test_oversized_expect_is_refused_without_a_go_ahead(self, artifact):
        gateway = GatewayThread(
            StoreManager(MmapTrustStore.open(artifact))
        ).start()
        try:
            with socket.create_connection(gateway.address, timeout=5) as sock:
                sock.sendall(
                    b"POST /batch HTTP/1.1\r\nHost: x\r\n"
                    b"Expect: 100-continue\r\n"
                    b"Content-Length: 99999999999\r\n\r\n"
                )
                ((status, _head, _body),), rest = read_responses(sock)
            assert (status, rest) == (413, b"")
        finally:
            gateway.stop()

    def test_http_1_0_closes_after_the_response(self, artifact):
        """An HTTP/1.0 client reads to EOF; keeping its socket open
        would hang it until its own timeout."""
        gateway = GatewayThread(
            StoreManager(MmapTrustStore.open(artifact))
        ).start()
        try:
            with socket.create_connection(gateway.address, timeout=5) as sock:
                sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
                responses, rest = read_responses(sock)  # until EOF
            assert [r[0] for r in responses] == [200] and rest == b""
            # ...unless it asks for keep-alive, as 1.0 clients may.
            with socket.create_connection(gateway.address, timeout=5) as sock:
                request = (
                    b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
                )
                for _ in range(2):
                    sock.sendall(request)
                    ((status, _head, _body),), _ = read_responses(sock, 1)
                    assert status == 200
        finally:
            gateway.stop()


# ----------------------------------------------------------------------
# Hot swap
# ----------------------------------------------------------------------
class TestHotSwap:
    def test_swap_under_concurrent_load(self, artifact, artifact_b):
        """Clients hammering the gateway across repeated swaps see only
        complete responses from exactly one artifact generation — never
        an error, never a torn or mixed body."""
        probes = ["/score?site=good.com", "/top?k=5", "/healthz",
                  "/breakdown?site=bad.com"]
        allowed: dict[str, set[bytes]] = {}
        for art in (artifact, artifact_b):
            store = MmapTrustStore.open(art)
            for probe in probes:
                path, _, query = probe.partition("?")
                params = {
                    k: [v]
                    for k, v in (
                        pair.split("=") for pair in query.split("&") if pair
                    )
                }
                _, body = render(store, path, params)
                allowed.setdefault(probe, set()).add(body)

        manager = StoreManager(MmapTrustStore.open(artifact))
        gateway = GatewayThread(manager, workers=8).start()
        failures: list[str] = []
        stop = threading.Event()

        def client(worker: int) -> None:
            connection = http.client.HTTPConnection(
                *gateway.address, timeout=10
            )
            try:
                n = 0
                while not stop.is_set() or n < 20:
                    probe = probes[n % len(probes)]
                    n += 1
                    connection.request("GET", probe)
                    response = connection.getresponse()
                    body = response.read()
                    if response.status != 200:
                        failures.append(
                            f"{probe}: status {response.status}"
                        )
                    elif body not in allowed[probe]:
                        failures.append(f"{probe}: torn body {body!r}")
                    if stop.is_set() and n >= 20:
                        break
            except Exception as err:  # noqa: BLE001 - recorded as failure
                failures.append(f"client {worker}: {type(err).__name__}: {err}")
            finally:
                connection.close()

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(6)
        ]
        try:
            for thread in threads:
                thread.start()
            for target in (artifact_b, artifact, artifact_b):
                time.sleep(0.05)
                manager.swap(target)
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            stop.set()
            gateway.stop()
        assert not failures, failures[:5]
        assert manager.generation == 3

    def test_swap_after_inplace_refit_under_load(self, tmp_path):
        """The production flow the layout cache must survive: the
        artifact is refit IN PLACE (same path, new bytes) while a
        gateway serves it, then swapped via the admin endpoint. The
        re-export must land in a fresh directory — readers of the old
        generation keep getting complete, untorn bodies throughout."""
        live = tmp_path / "live.kbt"
        KBTEstimator().fit(corpus()).save(live)
        probes = ["/score?site=good.com", "/top?k=5",
                  "/breakdown?site=bad.com"]
        allowed: dict[str, set[bytes]] = {probe: set() for probe in probes}

        def record(store):
            for probe in probes:
                path, _, query = probe.partition("?")
                params = {
                    k: [v]
                    for k, v in (
                        pair.split("=") for pair in query.split("&") if pair
                    )
                }
                _, body = render(store, path, params)
                allowed[probe].add(body)

        store_a = MmapTrustStore.open(live)
        record(store_a)
        manager = StoreManager(store_a)
        gateway = GatewayThread(manager, workers=4).start()
        failures: list[str] = []
        stop = threading.Event()

        def client(worker: int) -> None:
            connection = http.client.HTTPConnection(
                *gateway.address, timeout=10
            )
            try:
                n = 0
                while not stop.is_set() or n < 10:
                    probe = probes[n % len(probes)]
                    n += 1
                    connection.request("GET", probe)
                    response = connection.getresponse()
                    body = response.read()
                    if response.status != 200:
                        failures.append(
                            f"{probe}: status {response.status}"
                        )
                    elif body not in allowed[probe]:
                        failures.append(f"{probe}: torn body {body!r}")
                    if stop.is_set() and n >= 10:
                        break
            except Exception as err:  # noqa: BLE001 - recorded as failure
                failures.append(
                    f"client {worker}: {type(err).__name__}: {err}"
                )
            finally:
                connection.close()

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(4)
        ]
        old_etag = manager.etag
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.05)
            # Refit in place: same path, new bytes, new ETag. Opening
            # exports the new layout (and may GC the old directory's
            # entries) while store_a's mmaps are still serving.
            KBTEstimator().fit(corpus(extra_site="refit.example")).save(live)
            record(MmapTrustStore.open(live))
            status, body = http_post(
                gateway.address, "/admin/swap", {"artifact": str(live)}
            )
            assert status == 200, body
            time.sleep(0.05)
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            stop.set()
            gateway.stop()
        assert not failures, failures[:5]
        assert manager.etag == artifact_etag(live) != old_etag
        assert manager.generation == 1

    def test_corrupt_swap_rejected_old_store_serves(
        self, artifact, tmp_path
    ):
        manager = StoreManager(MmapTrustStore.open(artifact))
        gateway = GatewayThread(manager).start()
        corrupt = tmp_path / "corrupt.kbt"
        corrupt.write_bytes(b"this is not a zip archive")
        try:
            before = http_get(gateway.address, "/score?site=good.com")
            status, body = http_post(
                gateway.address, "/admin/swap", {"artifact": str(corrupt)}
            )
            assert status == 400
            assert b"swap rejected" in body
            after = http_get(gateway.address, "/score?site=good.com")
            assert after[:2] == before[:2]
            assert manager.generation == 0
        finally:
            gateway.stop()

    def test_version_mismatch_swap_rejected(self, artifact, tmp_path):
        """An artifact stamped with a future format version is refused
        at swap time; the old store keeps serving."""
        future = tmp_path / "future.kbt"
        with zipfile.ZipFile(artifact) as source:
            members = {
                name: source.read(name) for name in source.namelist()
            }
        header = json.loads(members[_HEADER_MEMBER])
        header["format_version"] = 99
        members[_HEADER_MEMBER] = json.dumps(header).encode("utf-8")
        with zipfile.ZipFile(future, "w") as out:
            for name, data in members.items():
                out.writestr(name, data)

        manager = StoreManager(MmapTrustStore.open(artifact))
        gateway = GatewayThread(manager).start()
        try:
            status, body = http_post(
                gateway.address, "/admin/swap", {"artifact": str(future)}
            )
            assert status == 400
            assert b"swap rejected" in body
            assert b"99" in body
            status, _, _ = http_get(gateway.address, "/score?site=good.com")
            assert status == 200
            assert manager.generation == 0
        finally:
            gateway.stop()

    def test_swap_bad_body_400(self, artifact):
        manager = StoreManager(MmapTrustStore.open(artifact))
        gateway = GatewayThread(manager).start()
        try:
            status, body = http_post(
                gateway.address, "/admin/swap", {"nope": 1}
            )
            assert status == 400
        finally:
            gateway.stop()

    def test_kbt_swap_cli(self, artifact, artifact_b, capsys):
        manager = StoreManager(MmapTrustStore.open(artifact))
        gateway = GatewayThread(manager).start()
        try:
            host, port = gateway.address
            exit_code = cli_main(
                ["swap", str(artifact_b), "--server", f"{host}:{port}"]
            )
            assert exit_code == 0
            out = capsys.readouterr().out
            assert "generation 1" in out
            assert manager.etag == artifact_etag(artifact_b)

            exit_code = cli_main(
                ["swap", "/nonexistent.kbt", "--server", f"{host}:{port}"]
            )
            assert exit_code == 1
            assert "swap failed" in capsys.readouterr().err
        finally:
            gateway.stop()

    def test_kbt_swap_accepts_the_url_the_gateway_prints(
        self, artifact, artifact_b, capsys
    ):
        """``--server`` takes ``gateway.url`` (what ``kbt serve`` prints
        and ``kbt ingest --gateway`` takes) as well as ``HOST:PORT``; the
        three outcome lines are the same for both forms."""
        manager = StoreManager(MmapTrustStore.open(artifact))
        gateway = GatewayThread(manager).start()
        try:
            assert gateway.url.startswith("http://")
            assert cli_main(
                ["swap", str(artifact_b), "--server", gateway.url]
            ) == 0
            with manager.acquire() as store:
                websites = len(store)
            assert capsys.readouterr().out in [
                f"swapped: generation 1, {websites} websites, "
                f"etag {artifact_etag(artifact_b)}, layout {layout}\n"
                for layout in ("exported", "reused")
            ]
            assert cli_main(
                ["swap", "/nonexistent.kbt", "--server", gateway.url + "/"]
            ) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: swap failed (400): ")
            assert "{" not in err  # the decoded "error" field, not JSON
        finally:
            gateway.stop()
        assert cli_main(
            ["swap", str(artifact), "--server", "http://127.0.0.1:9"]
        ) == 1
        assert capsys.readouterr().err.startswith(
            "error: cannot reach gateway at http://127.0.0.1:9: [Errno "
        )

    def test_kbt_swap_unreachable_server(self, artifact, capsys):
        exit_code = cli_main(
            ["swap", str(artifact), "--server", "127.0.0.1:9"]
        )
        assert exit_code == 1
        assert "cannot reach gateway" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Inline answers share the loop: fairness, draining, swaps
# ----------------------------------------------------------------------
class TestInlineFairness:
    BURST = 20_000

    def burst(self):
        """Pipelined inline requests, every one distinguishable: each
        odd request is a never-cached 404 that names its position."""
        return b"".join(
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            if i % 2 == 0
            else f"GET /score?site=burst-{i} HTTP/1.1\r\nHost: x\r\n\r\n"
            .encode()
            for i in range(self.BURST)
        )

    def test_a_pipelined_burst_does_not_starve_other_connections(
        self, artifact
    ):
        """An inline answer never suspends its connection's task, so
        the gateway yields between them: while 20 000 pipelined
        requests are outstanding on one connection, a second one keeps
        being served — and the burst still arrives whole and in order."""
        with spied_gateway(MmapTrustStore.open(artifact)) as (
            gateway, submitted,
        ):
            _, healthz, _ = http_get(gateway.address, "/healthz")
            burst = socket.create_connection(gateway.address, timeout=60)
            other = http.client.HTTPConnection(*gateway.address, timeout=60)
            other.request("GET", "/healthz")
            other.getresponse().read()  # connected before the burst
            sender = threading.Thread(
                target=burst.sendall, args=(self.burst(),)
            )
            answered: list = []
            finished = threading.Event()

            def collect():
                try:
                    answered.extend(read_responses(burst, self.BURST))
                finally:
                    finished.set()

            collector = threading.Thread(target=collect)
            exchanges = 0
            try:
                collector.start()
                sender.start()
                while not finished.is_set():
                    other.request("GET", "/healthz")
                    response = other.getresponse()
                    assert (response.status, response.read()) == (
                        200, healthz,
                    )
                    if not finished.is_set():
                        exchanges += 1
                sender.join(timeout=60)
                collector.join(timeout=60)
                assert not sender.is_alive() and not collector.is_alive()
            finally:
                burst.close()
                other.close()
            responses, _rest = answered
            assert len(responses) == self.BURST
            for i, (status, _head, body) in enumerate(responses):
                if i % 2 == 0:
                    assert (status, body) == (200, healthz), i
                else:
                    assert status == 404 and json.loads(body) == {
                        "error": f"no score for website: burst-{i}"
                    }, i
            assert submitted == []  # the whole burst was inline
            assert exchanges >= 20, exchanges

    def test_swaps_under_inline_only_readers(self, artifact, artifact_b):
        """Readers whose every request is answered on the loop (no
        response cache, no pool) across three swaps: only whole bodies
        of one generation, and every retired store closed exactly once,
        after its last reader."""
        probes = ["/score?site=good.com", "/top?k=5", "/healthz",
                  "/breakdown?site=bad.com", "/batch?sites=good.com,new.com"]
        allowed: dict[str, set[bytes]] = {}
        for art in (artifact, artifact_b):
            store = MmapTrustStore.open(art)
            for probe in probes:
                url = urlsplit(probe)
                _, body = render(store, url.path, parse_qs(url.query))
                allowed.setdefault(probe, set()).add(body)

        opened: list = []
        closes: dict[int, int] = {}

        def opener(path):
            store = MmapTrustStore.open(path)
            real_close = store.close

            def close():
                closes[id(store)] = closes.get(id(store), 0) + 1
                real_close()

            store.close = close
            opened.append(store)
            return store

        manager = StoreManager(opener(artifact), opener=opener)
        failures: list[str] = []
        stop = threading.Event()

        def client(worker: int) -> None:
            connection = http.client.HTTPConnection(
                *gateway.address, timeout=10
            )
            try:
                n = 0
                while not stop.is_set() or n < 20:
                    probe = probes[n % len(probes)]
                    n += 1
                    connection.request("GET", probe)
                    response = connection.getresponse()
                    body = response.read()
                    if response.status != 200:
                        failures.append(f"{probe}: status {response.status}")
                    elif body not in allowed[probe]:
                        failures.append(f"{probe}: torn body {body!r}")
            except Exception as err:  # noqa: BLE001 - recorded as failure
                failures.append(f"client {worker}: {type(err).__name__}: {err}")
            finally:
                connection.close()

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(4)
        ]
        with spied_gateway(manager, cache_size=0) as (gateway, submitted):
            try:
                for thread in threads:
                    thread.start()
                for target in (artifact_b, artifact, artifact_b):
                    time.sleep(0.05)
                    manager.swap(target)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            # The three retired generations are closed, the live one not.
            assert [closes.get(id(s), 0) for s in opened] == [1, 1, 1, 0]
        assert not failures, failures[:5]
        assert submitted == []
        assert manager.generation == 3
        assert [closes.get(id(s), 0) for s in opened] == [1, 1, 1, 1]


# ----------------------------------------------------------------------
# Admin endpoint authentication
# ----------------------------------------------------------------------
class TestAdminAuth:
    def test_configured_token_gates_swap(self, artifact, artifact_b):
        manager = StoreManager(MmapTrustStore.open(artifact))
        gateway = GatewayThread(manager, admin_token="sekrit").start()
        try:
            swap_body = {"artifact": str(artifact_b)}
            status, body = http_post(
                gateway.address, "/admin/swap", swap_body
            )
            assert status == 403
            assert b"X-Admin-Token" in body
            status, _ = http_post(
                gateway.address, "/admin/swap", swap_body,
                headers={"X-Admin-Token": "wrong"},
            )
            assert status == 403
            assert manager.generation == 0
            # Ordinary read traffic is never token-gated.
            status, _, _ = http_get(gateway.address, "/score?site=good.com")
            assert status == 200
            status, body = http_post(
                gateway.address, "/admin/swap", swap_body,
                headers={"X-Admin-Token": "sekrit"},
            )
            assert status == 200, body
            assert manager.generation == 1
            assert manager.etag == artifact_etag(artifact_b)
        finally:
            gateway.stop()

    def test_kbt_swap_sends_token(self, artifact, artifact_b, capsys,
                                  monkeypatch):
        manager = StoreManager(MmapTrustStore.open(artifact))
        gateway = GatewayThread(manager, admin_token="sekrit").start()
        try:
            host, port = gateway.address
            exit_code = cli_main(
                ["swap", str(artifact_b), "--server", f"{host}:{port}"]
            )
            assert exit_code == 1
            assert "403" in capsys.readouterr().err
            exit_code = cli_main(
                ["swap", str(artifact_b), "--server", f"{host}:{port}",
                 "--token", "sekrit"]
            )
            assert exit_code == 0
            assert manager.generation == 1
            # The env var is the flagless default for both CLI ends.
            monkeypatch.setenv("KBT_ADMIN_TOKEN", "sekrit")
            exit_code = cli_main(
                ["swap", str(artifact), "--server", f"{host}:{port}"]
            )
            assert exit_code == 0
            assert manager.generation == 2
        finally:
            gateway.stop()

    def test_admin_allowed_matrix(self, artifact):
        manager = StoreManager(MmapTrustStore.open(artifact))
        gateway = Gateway(manager)
        try:
            # No token configured: loopback peers only.
            assert gateway._admin_allowed({}, ("127.0.0.1", 40000))
            assert gateway._admin_allowed({}, ("::1", 40000, 0, 0))
            assert not gateway._admin_allowed({}, ("203.0.113.9", 40000))
            assert not gateway._admin_allowed({}, None)
            assert not gateway._admin_allowed({}, ("not-an-ip", 1))
            # Token configured: the token decides, loopback included.
            gateway.admin_token = "sekrit"
            assert not gateway._admin_allowed({}, ("127.0.0.1", 40000))
            assert gateway._admin_allowed(
                {"x-admin-token": "sekrit"}, ("203.0.113.9", 40000)
            )
        finally:
            gateway._pool.shutdown(wait=False)
            manager.close()


# ----------------------------------------------------------------------
# ``kbt serve``: the process, its start-up line, its failure modes
# ----------------------------------------------------------------------
def spawn_serve(*args):
    """``kbt serve ARGS`` as a subprocess, once it has printed its
    start-up line; returns ``(popen, line, (host, port))``."""
    src_dir = os.path.dirname(
        os.path.dirname(os.path.abspath(__import__("repro").__file__))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", *map(str, args)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        # A test runner started with SIGINT ignored would hand that
        # down, and Python then never installs its Ctrl-C handler.
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    ready, _, _ = select.select([proc.stdout], [], [], 60)
    line = proc.stdout.readline() if ready else ""
    match = re.search(r" on http://([\d.]+):(\d+) ", line)
    if match is None:
        proc.kill()
        raise AssertionError(f"no start-up line: {proc.communicate()}")
    return proc, line, (match.group(1), int(match.group(2)))


def finish(proc, signum=signal.SIGTERM):
    """Signal a ``spawn_serve`` process; returns (exit code, stderr)."""
    proc.send_signal(signum)
    try:
        _, err = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise
    return proc.returncode, err


class TestKbtServe:
    def test_gateway_flag_selects_nothing(self, artifact):
        """``--gateway`` is accepted and ignored: same start-up line,
        same frontend."""
        procs = [
            spawn_serve(artifact, "--port", 0),
            spawn_serve(artifact, "--gateway", "--port", 0),
        ]
        try:
            lines = set()
            for _proc, line, address in procs:
                lines.add(line.replace(f":{address[1]} ", ":PORT "))
                status, body, _ = http_get(address, "/readyz")
                assert status == 200
                assert json.loads(body)["etag"] == artifact_etag(artifact)
            assert len(lines) == 1 and lines.pop().startswith(
                "gateway serving "
            )
        finally:
            for proc, _line, _address in procs:
                assert finish(proc) == (0, "")

    def test_gateway_flag_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["serve", "--help"])
        out = capsys.readouterr().out
        assert "--gateway" not in out and "gateway only" not in out
        assert "--max-connections" in out

    def test_port_in_use_is_one_error_line(
        self, artifact, monkeypatch, capsys
    ):
        closed = []
        real_close = MmapTrustStore.close

        def recording_close(store):
            closed.append(store)
            real_close(store)

        monkeypatch.setattr(MmapTrustStore, "close", recording_close)
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            code = cli_main(["serve", str(artifact), "--port", str(port)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: cannot listen on 127.0.0.1:{port}: ")
        assert "in use" in line
        assert len(closed) == 1

    def test_unwritable_artifact_directory_is_one_error_line(
        self, artifact, tmp_path, monkeypatch, capsys
    ):
        """No layout cache can be written next to the artifact: a
        ``LayoutError`` naming the directory and the way out, not a
        traceback out of ``tempfile``."""
        copy = tmp_path / "model.kbt"
        shutil.copy(artifact, copy)

        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied", str(tmp_path))

        monkeypatch.setattr(tempfile, "mkdtemp", denied)
        with pytest.raises(LayoutError, match="make that directory writable"):
            export_layout(copy, tmp_path / "layout")
        assert cli_main(["serve", str(copy), "--port", "0"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: cannot create the serving layout")
        assert str(tmp_path) in line and "kbt serve DIR" in line
        monkeypatch.undo()
        # The remedy the message names works: a layout exported
        # elsewhere opens as a store by its directory.
        export_layout(copy, tmp_path / "elsewhere")
        store = MmapTrustStore.open(tmp_path / "elsewhere")
        assert store.etag == artifact_etag(copy)
        store.close()


# ----------------------------------------------------------------------
# Regressions first fixed in the deleted http.server frontend, held
# against the gateway since it became the only one
# ----------------------------------------------------------------------
class TestLegacyServerFixes:
    def test_serve_closes_socket_on_keyboard_interrupt(self, artifact):
        """Ctrl-C (and SIGTERM) end ``kbt serve`` with exit 0, nothing
        on stderr, and the port free for an immediate restart."""
        for signum in (signal.SIGINT, signal.SIGTERM):
            proc, _line, address = spawn_serve(artifact, "--port", 0)
            assert finish(proc, signum) == (0, ""), signum
            with socket.socket() as again:
                # What a restarted gateway sets (asyncio's default).
                again.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                again.bind(address)

    def test_shutdown_before_thread_runs_does_not_hang(self, artifact):
        """start() then stop() with no request in between returns, and
        the listening socket is closed."""
        gateway = GatewayThread(
            StoreManager(MmapTrustStore.open(artifact))
        ).start()
        address = gateway.address
        stopper = threading.Thread(target=gateway.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=30)
        assert not stopper.is_alive()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=5).close()

    def test_send_swallows_broken_pipe(self, artifact, caplog, capfd):
        """A client that resets the connection with responses still
        owed is that client's business: no log line, no traceback, and
        the next client is served."""
        manager = StoreManager(MmapTrustStore.open(artifact))
        gateway = GatewayThread(manager).start()
        try:
            rude = socket.create_connection(gateway.address, timeout=10)
            rude.sendall(b"GET /top?k=5 HTTP/1.1\r\nHost: x\r\n\r\n" * 200)
            # SO_LINGER with a zero timeout: close() sends RST, not FIN.
            rude.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            rude.close()
            status, body, _ = http_get(gateway.address, "/score?site=good.com")
            assert status == 200 and json.loads(body)["key"] == "good.com"
        finally:
            gateway.stop()
        assert [record.getMessage() for record in caplog.records] == []
        assert capfd.readouterr().err == ""
