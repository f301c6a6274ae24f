"""Unit tests for the TrustStore facade and the routes served over it."""

import json
import urllib.error
import urllib.request

import pytest

from repro.core.kbt import KBTEstimator
from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    page_source,
)
from repro.io.mmap_layout import serving_columns
from repro.serving.gateway import GatewayThread
from repro.serving.manager import StoreManager
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


def in_memory_store(fitted):
    """A store over the fit's serving columns, built without a file."""
    return TrustStore(
        serving_columns(fitted.result.columns(), fitted.min_triples, {}, {})
    )


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    path = tmp_path_factory.mktemp("artifacts") / "model.kbt"
    KBTEstimator().fit(corpus()).save(path)
    return TrustStore.open(path)


@pytest.fixture(scope="module")
def signal_store(tmp_path_factory):
    """A store over an artifact fitted with three trust signals."""
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
    return TrustStore.open(path)


class TestStoreQueries:
    def test_score_matches_report(self, store):
        fitted_scores = KBTEstimator().fit(corpus()).website_scores()
        for site, expected in fitted_scores.items():
            assert store.score(site) == expected

    def test_unknown_site_is_none(self, store):
        assert store.score("nosuch.example") is None
        assert store.percentile("nosuch.example") is None
        assert store.breakdown("nosuch.example") is None

    def test_score_page(self, store):
        assert store.score_page("good.com", "good.com/p") is not None
        assert store.score_page("good.com", "nosuch.html") is None

    def test_batch_mixes_hits_and_misses(self, store):
        result = store.batch(["good.com", "nosuch.example", "bad.com"])
        assert result["good.com"].score > result["bad.com"].score
        assert result["nosuch.example"] is None

    def test_top_is_ranked_descending(self, store):
        top = store.top(len(store) + 5)
        assert len(top) == len(store)
        scores = [score.score for score in top]
        assert scores == sorted(scores, reverse=True)
        assert top[0].key != "bad.com"

    def test_top_zero_and_negative(self, store):
        assert store.top(0) == []
        with pytest.raises(ValueError):
            store.top(-1)

    def test_percentile_bounds(self, store):
        best = store.top(1)[0]
        assert store.percentile(best.key) == 100.0
        for site in store.websites():
            assert 0.0 < store.percentile(site) <= 100.0

    def test_breakdown_explains_score(self, store):
        breakdown = store.breakdown("good.com")
        assert breakdown["key"] == "good.com"
        assert breakdown["num_sources"] == len(breakdown["sources"])
        assert breakdown["num_sources"] >= 1
        # Support-weighted average of the contributors is the score.
        numer = sum(
            s["accuracy"] * s["support"] for s in breakdown["sources"]
        )
        denom = sum(s["support"] for s in breakdown["sources"])
        assert breakdown["score"] == pytest.approx(numer / denom)
        assert breakdown["support"] == pytest.approx(denom)

    def test_contains_and_len(self, store):
        assert "good.com" in store
        assert "nosuch.example" not in store
        assert len(store) == len(list(store.websites()))

    def test_no_signals_without_artifact_signals(self, store):
        assert store.signal_names() == []
        assert store.stats_json()["signals"] == []
        assert store.fused_score("good.com") is None
        assert store.signal_breakdown("good.com") is None


class TestStoreEdgeCases:
    """percentile/top corner cases: tiny stores, ties, absent keys."""

    @pytest.fixture(scope="class")
    def single_site_store(self):
        fitted = KBTEstimator(min_triples=0.0).fit(
            page_records("only.com", "only.com/p", "e0",
                         [f"s{i}" for i in range(8)], lambda s: f"v-{s}")
        )
        return in_memory_store(fitted)

    @pytest.fixture(scope="class")
    def tied_store(self):
        """Three websites with byte-identical claim sets (tied scores)."""
        records = []
        for site in ("beta.com", "alpha.com", "gamma.com"):
            records.extend(
                page_records(site, f"{site}/p", "e0",
                             [f"s{i}" for i in range(8)],
                             lambda s: f"true-{s}")
            )
        fitted = KBTEstimator(min_triples=0.0).fit(records)
        return in_memory_store(fitted)

    def test_single_site_percentile_and_top(self, single_site_store):
        store = single_site_store
        assert len(store) == 1
        assert store.percentile("only.com") == 100.0
        assert [s.key for s in store.top(5)] == ["only.com"]
        assert store.top(0) == []

    def test_tied_scores_break_on_key(self, tied_store):
        top = tied_store.top(3)
        scores = {s.score for s in top}
        assert len(scores) == 1  # genuinely tied
        assert [s.key for s in top] == [
            "alpha.com", "beta.com", "gamma.com"
        ]

    def test_tied_scores_share_percentile(self, tied_store):
        percentiles = {
            site: tied_store.percentile(site)
            for site in ("alpha.com", "beta.com", "gamma.com")
        }
        assert len(set(percentiles.values())) == 1
        assert set(percentiles.values()) == {100.0}

    def test_absent_key_everywhere(self, tied_store):
        assert tied_store.score("absent.example") is None
        assert tied_store.percentile("absent.example") is None
        assert tied_store.breakdown("absent.example") is None
        assert tied_store.batch(["absent.example"]) == {
            "absent.example": None
        }


class TestStoreSignals:
    def test_signal_surface(self, signal_store):
        assert signal_store.signal_names() == [
            "kbt", "pagerank", "copydetect"
        ]
        assert set(signal_store.fusion_weights) == {
            "kbt", "pagerank", "copydetect"
        }
        assert signal_store.stats_json()["signals"] == [
            "kbt", "pagerank", "copydetect"
        ]

    def test_fused_score_separates_good_from_bad(self, signal_store):
        good = signal_store.fused_score("good.com")
        bad = signal_store.fused_score("bad.com")
        assert good is not None and bad is not None
        assert good > bad
        assert signal_store.fused_score("nosuch.example") is None

    def test_signal_breakdown_fields(self, signal_store):
        payload = signal_store.signal_breakdown("good.com")
        assert payload["key"] == "good.com"
        assert set(payload["signals"]) == {
            "kbt", "pagerank", "copydetect"
        }
        entry = payload["signals"]["kbt"]
        assert entry["score"] == signal_store.score("good.com").score
        assert entry["rank"] >= 1
        assert 0.0 <= entry["percentile"] <= 100.0
        assert entry["weight"] == signal_store.fusion_weights["kbt"]
        assert payload["fused"] == signal_store.fused_score("good.com")

    def test_signal_breakdown_absent_site(self, signal_store):
        assert signal_store.signal_breakdown("nosuch.example") is None

    def test_compare_view(self, signal_store):
        payload = signal_store.compare("kbt", "pagerank", k=3)
        assert payload["a"] == "kbt" and payload["b"] == "pagerank"
        assert payload["websites_compared"] >= 1
        for entry in payload["high_a_low_b"]:
            assert entry["kbt_percentile"] > entry["pagerank_percentile"]

    def test_compare_unknown_signal(self, signal_store):
        from repro.signals import SignalError

        with pytest.raises(SignalError, match="unknown signal"):
            signal_store.compare("kbt", "nosuch")


def serving(store):
    """A gateway on its own thread over ``store``; has ``.url``."""
    return GatewayThread(StoreManager(store))


class TestHttpEndpoint:
    @pytest.fixture(scope="class")
    def server(self, store):
        running = serving(store).start()
        yield running
        running.stop()

    def get(self, server, path):
        with urllib.request.urlopen(server.url + path, timeout=5) as resp:
            return resp.status, json.loads(resp.read())

    def get_error(self, server, path):
        try:
            urllib.request.urlopen(server.url + path, timeout=5)
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())
        raise AssertionError(f"{path} unexpectedly succeeded")

    def test_healthz(self, server, store):
        status, payload = self.get(server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["websites"] == len(store)

    def test_score_lookup(self, server, store):
        status, payload = self.get(server, "/score?site=good.com")
        assert status == 200
        assert payload["key"] == "good.com"
        assert payload["score"] == store.score("good.com").score

    def test_page_lookup(self, server):
        status, payload = self.get(
            server, "/page?site=good.com&page=good.com/p"
        )
        assert status == 200
        assert payload["key"] == ["good.com", "good.com/p"]

    def test_batch_lookup(self, server):
        status, payload = self.get(server, "/batch?sites=good.com,nosuch")
        assert status == 200
        assert payload["nosuch"] is None
        assert payload["good.com"]["score"] > 0.5

    def test_top(self, server, store):
        status, payload = self.get(server, "/top?k=3")
        assert status == 200
        assert [entry["key"] for entry in payload] == [
            score.key for score in store.top(3)
        ]

    def test_percentile_and_breakdown(self, server, store):
        status, payload = self.get(server, "/percentile?site=good.com")
        assert status == 200
        assert payload["percentile"] == store.percentile("good.com")
        status, payload = self.get(server, "/breakdown?site=good.com")
        assert status == 200
        assert payload["num_sources"] >= 1

    def test_unknown_site_404(self, server):
        code, payload = self.get_error(server, "/score?site=nosuch")
        assert code == 404
        assert "no score" in payload["error"]

    def test_missing_param_400(self, server):
        code, payload = self.get_error(server, "/score")
        assert code == 400
        assert "site" in payload["error"]

    def test_bad_k_400(self, server):
        code, _ = self.get_error(server, "/top?k=banana")
        assert code == 400

    def test_unknown_route_404(self, server):
        code, payload = self.get_error(server, "/nope")
        assert code == 404
        assert "unknown route" in payload["error"]

    def test_signals_listing_empty_without_signals(self, server):
        status, payload = self.get(server, "/signals")
        assert status == 200
        assert payload["signals"] == []

    def test_missing_page_param_400(self, server):
        code, payload = self.get_error(server, "/page?site=good.com")
        assert code == 400
        assert "page" in payload["error"]

    def test_missing_batch_param_400(self, server):
        code, payload = self.get_error(server, "/batch")
        assert code == 400
        assert "sites" in payload["error"]

    def test_negative_k_400(self, server):
        code, payload = self.get_error(server, "/top?k=-2")
        assert code == 400
        assert "non-negative" in payload["error"]

    def test_unknown_page_404(self, server):
        code, payload = self.get_error(
            server, "/page?site=good.com&page=nosuch.html"
        )
        assert code == 404
        assert "no score" in payload["error"]

    def test_internal_error_returns_json_500(self, store):
        import copy

        broken = copy.copy(store)
        # Its own, empty body memo: the copy would otherwise share the
        # bodies the class's server already rendered, and answer from
        # them without calling the broken score_json.
        broken._bodies = {}
        broken.score_json = lambda site: (_ for _ in ()).throw(
            RuntimeError("boom")
        )
        server = serving(broken).start()
        try:
            code, payload = self.get_error(server, "/score?site=good.com")
        finally:
            server.stop()
        assert code == 500
        assert "internal error" in payload["error"]
        assert "boom" in payload["error"]


class TestHttpSignalEndpoints:
    @pytest.fixture(scope="class")
    def server(self, signal_store):
        running = serving(signal_store).start()
        yield running
        running.stop()

    get = TestHttpEndpoint.get
    get_error = TestHttpEndpoint.get_error

    def test_signals_listing(self, server, signal_store):
        status, payload = self.get(server, "/signals")
        assert status == 200
        names = [entry["name"] for entry in payload["signals"]]
        assert names == signal_store.signal_names()
        for entry in payload["signals"]:
            assert entry["websites"] >= 1
            assert entry["weight"] == pytest.approx(
                signal_store.fusion_weights[entry["name"]]
            )

    def test_signals_per_site(self, server, signal_store):
        status, payload = self.get(server, "/signals?site=good.com")
        assert status == 200
        assert payload == signal_store.signal_breakdown("good.com")

    def test_signals_unknown_site_404(self, server):
        code, payload = self.get_error(server, "/signals?site=nosuch")
        assert code == 404
        assert "no signal scores" in payload["error"]

    def test_compare(self, server, signal_store):
        status, payload = self.get(
            server, "/compare?a=kbt&b=pagerank&k=3"
        )
        assert status == 200
        assert payload == signal_store.compare("kbt", "pagerank", k=3)

    def test_compare_missing_param_400(self, server):
        code, payload = self.get_error(server, "/compare?a=kbt")
        assert code == 400
        assert "b" in payload["error"]

    def test_compare_unknown_signal_400(self, server):
        code, payload = self.get_error(server, "/compare?a=kbt&b=nosuch")
        assert code == 400
        assert "unknown signal" in payload["error"]

    def test_compare_bad_k_400(self, server):
        code, _ = self.get_error(
            server, "/compare?a=kbt&b=pagerank&k=banana"
        )
        assert code == 400
