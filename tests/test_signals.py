"""Unit tests for the unified trust-signal API (repro.signals)."""

import json
import zipfile

import pytest

from repro.core.kbt import KBTEstimator
from repro.core.observation import ObservationMatrix
from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    page_source,
)
from repro.io.artifact import (
    FORMAT_VERSION,
    ArtifactError,
    load_artifact,
)
from repro.signals import (
    CorpusContext,
    SignalError,
    SignalFrame,
    SignalScores,
    SignalSuite,
    TrustSignal,
    calibrate_weights,
    co_claim_graph,
    fuse,
)
from repro.signals.providers import (
    CopyAdjustedSignal,
    KBTSignal,
    PageRankSignal,
    SingleLayerSignal,
)
from repro.web.graph import WebGraph
from test_observation import cells_of


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


SUBJECTS = [f"s{i}" for i in range(12)]
TRUE_SITES = ("a.com", "b.com", "c.com", "good.com")


def corpus(with_copier=False):
    """Four truthful sites, one liar; optionally a scraper of the liar."""
    records = []
    for i, site in enumerate(TRUE_SITES):
        records.extend(
            page_records(site, f"{site}/p", f"e{i % 2}", SUBJECTS,
                         lambda s: f"true-{s}")
        )
    records.extend(
        page_records("bad.com", "bad.com/p", "e0", SUBJECTS,
                     lambda s: f"false-{s}")
    )
    if with_copier:
        records.extend(
            page_records("copy.com", "copy.com/p", "e1", SUBJECTS,
                         lambda s: f"false-{s}")
        )
    return records


@pytest.fixture(scope="module")
def context():
    return CorpusContext(
        observations=ObservationMatrix.from_records(corpus())
    )


@pytest.fixture(scope="module")
def frame(context):
    return SignalSuite().run(context)


GOLD = {site: True for site in TRUE_SITES} | {"bad.com": False}


class TestProviders:
    def test_protocol_conformance(self):
        for provider in SignalSuite().names:
            assert isinstance(
                SignalSuite().provider(provider), TrustSignal
            )

    def test_kbt_matches_estimator(self, context, frame):
        expected = KBTEstimator().fit(corpus()).website_scores()
        scores = frame.signal("kbt")
        assert scores.scores == {
            site: s.score for site, s in expected.items()
        }
        assert scores.support == {
            site: s.support for site, s in expected.items()
        }

    def test_single_layer_separates_good_from_bad(self, frame):
        for name in ("accu", "popaccu"):
            scores = frame.signal(name)
            assert scores.get("good.com") > scores.get("bad.com")
            assert scores.metadata["false_value_model"] == name

    def test_pagerank_uses_supplied_graph(self):
        graph = WebGraph(["a.com", "b.com", "hub.com"])
        graph.add_edge("a.com", "hub.com")
        graph.add_edge("b.com", "hub.com")
        context = CorpusContext(
            observations=ObservationMatrix.from_records(corpus()),
            graph=graph,
        )
        scores = PageRankSignal().fit(context)
        assert scores.get("hub.com") == 1.0
        assert scores.metadata["graph"] == "hyperlink"

    def test_pagerank_falls_back_to_co_claim_proxy(self, context, frame):
        scores = frame.signal("pagerank")
        assert scores.metadata["graph"] == "co-claim-proxy"
        assert set(scores.scores) == set(TRUE_SITES) | {"bad.com"}
        assert max(scores.scores.values()) == 1.0

    def test_copydetect_discounts_the_copier(self):
        context = CorpusContext(
            observations=ObservationMatrix.from_records(
                corpus(with_copier=True)
            ),
            min_triples=0.0,
        )
        kbt = KBTSignal().fit(context)
        adjusted = CopyAdjustedSignal().fit(context)
        # One of the two false-content sites is flagged as the copier and
        # loses trust relative to its raw KBT score; independent truthful
        # sites keep their KBT score unchanged.
        assert adjusted.metadata["verdicts"] >= 1
        assert adjusted.metadata["flagged_websites"] >= 1
        flagged = [
            site for site in ("bad.com", "copy.com")
            if adjusted.get(site) < kbt.get(site)
        ]
        assert flagged
        for site in TRUE_SITES:
            assert adjusted.get(site) == kbt.get(site)

    def test_shared_fit_is_reused(self, context):
        # The context fits KBT once; both KBT-derived providers see it.
        assert context.fitted is not None
        fitted = context.fitted
        KBTSignal().fit(context)
        CopyAdjustedSignal().fit(context)
        assert context.fitted is fitted


class TestCoClaimGraph:
    def test_links_sites_sharing_items(self):
        graph = co_claim_graph(
            ObservationMatrix.from_records(corpus())
        )
        assert set(graph.nodes) == set(TRUE_SITES) | {"bad.com"}
        # every site shares the 12 items with every other site
        for node in graph.nodes:
            assert graph.in_degree(node) == len(graph.nodes) - 1

    def test_singleton_items_add_no_edges(self):
        records = page_records(
            "solo.com", "solo.com/p", "e0", SUBJECTS, lambda s: f"v-{s}"
        )
        graph = co_claim_graph(ObservationMatrix.from_records(records))
        assert graph.nodes == ["solo.com"]
        assert graph.num_edges == 0


class TestSuite:
    def test_runs_all_by_default(self, frame):
        assert frame.names == [
            "kbt", "accu", "popaccu", "pagerank", "copydetect"
        ]

    def test_selection_string_and_order(self, context):
        suite = SignalSuite()
        assert suite.resolve("pagerank, kbt") == ["pagerank", "kbt"]
        frame = suite.run(context, "kbt,pagerank")
        assert frame.names == ["kbt", "pagerank"]

    def test_all_keyword(self, context):
        assert SignalSuite().resolve("all") == SignalSuite().names

    def test_unknown_signal_rejected(self, context):
        with pytest.raises(SignalError, match="unknown signal"):
            SignalSuite().run(context, "kbt,nosuch")

    def test_empty_selection_rejected(self):
        with pytest.raises(SignalError, match="no signal selected"):
            SignalSuite().resolve(",")

    def test_duplicate_provider_rejected(self):
        suite = SignalSuite()
        with pytest.raises(SignalError, match="duplicate"):
            suite.register(KBTSignal())

    def test_custom_provider(self, context):
        class Constant:
            name = "constant"

            def fit(self, ctx):
                return SignalScores(
                    name="constant",
                    scores={site: 0.5 for site in ("a.com", "x.com")},
                )

        suite = SignalSuite([KBTSignal(), Constant()])
        frame = suite.run(context)
        assert frame.names == ["kbt", "constant"]
        assert frame.value("constant", "x.com") == 0.5

    def test_sequential_matches_concurrent(self, context):
        suite = SignalSuite()
        concurrent = suite.run(context, "kbt,accu,pagerank")
        sequential = suite.run(
            context, "kbt,accu,pagerank", max_workers=1
        )
        for name in concurrent.names:
            assert (
                concurrent.signal(name).scores
                == sequential.signal(name).scores
            )


class TestFrame:
    def test_websites_is_union(self, frame):
        assert frame.websites() == sorted(
            set(TRUE_SITES) | {"bad.com"}
        )
        assert len(frame) == 5
        assert "good.com" in frame
        assert "nosuch.example" not in frame

    def test_row_marks_missing_signals(self, frame):
        # bad.com misses KBT (below the 5-triple reporting threshold it
        # still clears here) but pagerank covers everything.
        row = frame.row("bad.com")
        assert set(row) == set(frame.names)
        assert row["pagerank"] is not None

    def test_ranks_dense_and_deterministic(self):
        frame = SignalFrame([
            SignalScores(
                name="x",
                scores={"b": 0.5, "a": 0.5, "c": 0.9, "d": 0.1},
            )
        ])
        assert frame.ranks("x") == {"c": 1, "a": 2, "b": 2, "d": 3}

    def test_percentile_matches_store_convention(self):
        frame = SignalFrame([
            SignalScores(name="x", scores={"a": 1.0, "b": 0.5, "c": 0.0})
        ])
        # share of sites at-or-below, as in TrustStore.percentile
        assert frame.percentile("x", "a") == 100.0
        assert frame.percentile("x", "b") == pytest.approx(200.0 / 3)
        assert frame.percentile("x", "nosuch") is None

    def test_percentile_agrees_with_trust_store(self, frame):
        from repro.io.mmap_layout import serving_columns
        from repro.serving.store import TrustStore

        fitted = KBTEstimator().fit(corpus())
        store = TrustStore(
            serving_columns(
                fitted.result.columns(),
                fitted.min_triples,
                {"kbt": frame.signal("kbt")},
                {},
            )
        )
        for site in store.websites():
            assert store.signal_breakdown(site)["signals"]["kbt"][
                "percentile"
            ] == pytest.approx(store.percentile(site))

    def test_unknown_signal_raises(self, frame):
        with pytest.raises(SignalError, match="unknown signal"):
            frame.signal("nosuch")

    def test_duplicate_names_rejected(self):
        scores = SignalScores(name="x", scores={"a": 1.0})
        with pytest.raises(SignalError, match="duplicate"):
            SignalFrame([scores, scores])

    def test_compare_quadrants(self):
        frame = SignalFrame([
            SignalScores(
                name="trust",
                scores={"tail": 0.95, "mid": 0.5, "gossip": 0.1},
            ),
            SignalScores(
                name="popularity",
                scores={"tail": 0.1, "mid": 0.5, "gossip": 0.95},
            ),
        ])
        result = frame.compare("trust", "popularity", k=2)
        assert result["websites_compared"] == 3
        assert result["correlation"] < 0
        assert [e["website"] for e in result["high_a_low_b"]] == ["tail"]
        assert [e["website"] for e in result["high_b_low_a"]] == ["gossip"]

    def test_compare_negative_k_rejected(self, frame):
        with pytest.raises(SignalError, match="k must be"):
            frame.compare("kbt", "pagerank", k=-1)


class TestFusion:
    def test_uniform_without_gold(self, frame):
        result = fuse(frame)
        assert not result.calibrated
        assert result.weights == pytest.approx(
            {name: 1.0 / len(frame.names) for name in frame.names}
        )
        assert set(result.scores) == set(frame.websites())

    def test_calibration_downweights_uninformative_signal(self, frame):
        weights, deviations = calibrate_weights(frame, GOLD)
        # PageRank over the co-claim proxy says nothing about accuracy:
        # its calibration deviation must dominate, its weight collapse.
        assert deviations["pagerank"] == max(deviations.values())
        assert weights["pagerank"] == min(weights.values())
        assert weights["kbt"] > weights["pagerank"]
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_signal_without_gold_overlap_not_trusted(self):
        # A signal scoring only unlabelled sites has zero calibration
        # evidence; it must get the worst deviation (1.0), not a vacuous
        # perfect 0.0 that would hand it the dominant fusion weight.
        frame = SignalFrame([
            SignalScores(name="good", scores={"x": 1.0, "y": 0.0}),
            SignalScores(name="nolabel", scores={"other": 1.0}),
        ])
        weights, deviations = calibrate_weights(
            frame, {"x": True, "y": False}
        )
        assert deviations["nolabel"] == 1.0
        assert weights["good"] > weights["nolabel"]

    def test_fused_orders_good_above_bad(self, frame):
        result = fuse(frame, gold_labels=GOLD)
        assert result.calibrated
        assert result.scores["good.com"] > result.scores["bad.com"]

    def test_missing_signals_renormalise(self):
        frame = SignalFrame([
            SignalScores(name="x", scores={"a": 1.0, "b": 0.0}),
            SignalScores(name="y", scores={"a": 0.0}),
        ])
        result = fuse(frame, weights={"x": 0.5, "y": 0.5})
        assert result.scores["a"] == pytest.approx(0.5)
        # b is only scored by x: fused over x alone.
        assert result.scores["b"] == pytest.approx(0.0)

    def test_explicit_weights_validated(self, frame):
        with pytest.raises(SignalError, match="unknown signals"):
            fuse(frame, weights={"nosuch": 1.0})
        with pytest.raises(SignalError, match="> 0"):
            fuse(frame, weights={"kbt": 0.0})

    def test_empty_frame_fuses_to_nothing(self):
        result = fuse(SignalFrame([]))
        assert result.scores == {} and result.weights == {}


class TestArtifactV2:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        fitted = KBTEstimator().fit(corpus())
        context = CorpusContext(
            observations=fitted.observations, fitted=fitted
        )
        frame = SignalSuite().run(context, "kbt,pagerank,copydetect")
        fusion = fuse(frame, gold_labels=GOLD)
        signals = {name: frame.signal(name) for name in frame.names}
        path = tmp_path_factory.mktemp("artifacts") / "signals.kbt"
        fitted.save(path, signals=signals, fusion_weights=fusion.weights)
        return path, signals, fusion.weights

    @pytest.mark.parametrize("payload", ["npz", "json"])
    def test_round_trip_bit_for_bit(self, saved, tmp_path, payload):
        path, signals, weights = saved
        from repro.io.artifact import save_artifact
        from test_artifact import with_json_payload

        rewritten = save_artifact(
            load_artifact(path), tmp_path / "rewritten.kbt"
        )
        if payload == "json":
            rewritten = with_json_payload(
                rewritten, tmp_path / "json.kbt"
            )
        loaded = load_artifact(rewritten)
        assert list(loaded.signals) == list(signals)
        for name, scores in signals.items():
            reloaded = loaded.signals[name]
            # exact float equality and preserved dict order
            assert reloaded.scores == scores.scores
            assert list(reloaded.scores) == list(scores.scores)
            assert reloaded.support == scores.support
            assert reloaded.metadata == scores.metadata
        assert loaded.fusion_weights == weights

    def test_header_declares_version_4(self, saved):
        path, _signals, _weights = saved
        with zipfile.ZipFile(path) as archive:
            header = json.loads(archive.read("header.json"))
        assert header["format_version"] == FORMAT_VERSION == 4
        assert [s["name"] for s in header["signals"]] == [
            "kbt", "pagerank", "copydetect"
        ]

    def test_v2_artifact_loads(self, saved, tmp_path):
        path, signals, weights = saved
        from test_artifact import as_v2

        v2 = load_artifact(as_v2(path, tmp_path / "v2.kbt"))
        v3 = load_artifact(path)
        assert v2.signals == v3.signals == signals
        assert v2.fusion_weights == weights
        assert cells_of(v2.observations) == cells_of(v3.observations)
        assert v2.result.source_accuracy == v3.result.source_accuracy

    def test_v1_artifact_loads_with_empty_signals(self, saved, tmp_path):
        path, _signals, _weights = saved
        from test_artifact import as_v2

        # Versions 1 and 2 share the payload layout.
        path = as_v2(path, tmp_path / "v2.kbt")
        v1_path = tmp_path / "v1.kbt"
        with zipfile.ZipFile(path) as archive:
            members = {
                name: archive.read(name) for name in archive.namelist()
            }
        header = json.loads(members["header.json"])
        header["format_version"] = 1
        # A real v1 header has none of the signal-era keys.
        for key in ("websites", "signals", "fusion_weights"):
            header.pop(key)
        members["header.json"] = json.dumps(header)
        with zipfile.ZipFile(v1_path, "w") as archive:
            for name, data in members.items():
                archive.writestr(name, data)
        artifact = load_artifact(v1_path)
        assert artifact.signals == {}
        assert artifact.fusion_weights == {}
        # and it still serves KBT-only responses
        from repro.serving.store import TrustStore

        store = TrustStore.open(v1_path)
        assert store.signal_names() == []
        assert store.signals_json()["signals"] == []
        assert store.signal_breakdown("good.com") is None
        assert store.fused_score("good.com") is None
        assert store.score("good.com") is not None

    def test_future_version_still_rejected(self, saved, tmp_path):
        path, _signals, _weights = saved
        future = tmp_path / "future.kbt"
        with zipfile.ZipFile(path) as archive:
            members = {
                name: archive.read(name) for name in archive.namelist()
            }
        header = json.loads(members["header.json"])
        header["format_version"] = FORMAT_VERSION + 1
        members["header.json"] = json.dumps(header)
        with zipfile.ZipFile(future, "w") as archive:
            for name, data in members.items():
                archive.writestr(name, data)
        with pytest.raises(ArtifactError, match="format version"):
            load_artifact(future)

    def test_mismatched_signal_name_rejected(self, tmp_path):
        fitted = KBTEstimator().fit(corpus())
        with pytest.raises(ArtifactError, match="named"):
            fitted.save(
                tmp_path / "bad.kbt",
                signals={
                    "renamed": SignalScores(name="kbt", scores={"a": 1.0})
                },
            )

    def test_composite_metadata_rejected(self, tmp_path):
        fitted = KBTEstimator().fit(corpus())
        with pytest.raises(ArtifactError, match="JSON scalars"):
            fitted.save(
                tmp_path / "bad.kbt",
                signals={
                    "kbt": SignalScores(
                        name="kbt",
                        scores={"a": 1.0},
                        metadata={"nested": {"no": "good"}},
                    )
                },
            )
