"""The column merge of a warm-start update against its dict reference
(``reference_merge_delta`` in ``tests/result_reference.py``).

``FittedKBT.update`` folds the delta re-fit into the fitted result as
columns (``merge_columns``). Every merge below runs the reference's dict
merge beside the library's, on the same two results, and checks that:

* every view equals the reference's, value types and float bits
  included: ``value_posteriors`` in the key order a save → load round
  trip of the reference gives (a result lists its filled items, then its
  empty ones), every other view in the reference's order;
* the library's save of the merged result and the reference writer's
  save of the reference merge are byte-equal, and a reload re-saves to
  the same bytes;
* each merged key table starts with the keys its columns name, in the
  order they first name them.

Also pinned: a serving-only re-save of a reloaded fit equals the fit's
own serving-only save (a table key only the matrix's cells name never
reaches the header), and an updated model holds no per-coordinate dict
until a view is read, and its save interns nothing.

CI runs this file under three hash seeds.
"""

import dataclasses
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kbt import FittedKBT, KBTEstimator
from repro.core.observation import ObservationMatrix
from repro.core.quality import ExtractorQuality
from repro.core.results import MultiLayerResult
from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    SourceKey,
    page_source,
)
from repro.io.artifact import TrustArtifact, load_artifact, save_artifact
import result_reference
from result_reference import (
    reference_expected_triples_by_source,
    reference_load_result,
    reference_merge_delta,
    reference_save_artifact,
    result_from_views,
)
from test_result_parity import (
    VALUES,
    VIEWS,
    assert_first_seen,
    config,
    exact,
    record_lists,
    rebuilt,
)

PER_COORDINATE = ("value_posteriors", "extraction_posteriors", "priors")


class MergeRecorder:
    """Runs the reference merge beside the library's on every update."""

    def __init__(self):
        self.merges = []

    def __enter__(self):
        library = FittedKBT._merge_delta

        def merge(fitted, delta, combined_obs):
            got = library(fitted, delta, combined_obs)
            want = reference_merge_delta(fitted, delta, combined_obs)
            self.merges.append((got, want, combined_obs))
            return got

        self._patch = mock.patch.object(FittedKBT, "_merge_delta", merge)
        self._patch.__enter__()
        return self

    def __exit__(self, *exc):
        return self._patch.__exit__(*exc)


def check_merge(got, want, observations, directory: Path) -> None:
    """``got`` (the library's merge) against ``want`` (the reference's)."""
    assert_first_seen(got.columns())
    written = []
    for name, result, save in (
        ("library", got, save_artifact),
        ("reference", want, reference_save_artifact),
    ):
        artifact = TrustArtifact(
            result=result,
            config=config("accu"),
            min_triples=0.0,
            observations=observations,
        )
        written.append(save(artifact, directory / f"{name}.kbt"))
    assert written[0].read_bytes() == written[1].read_bytes()
    again = save_artifact(load_artifact(written[0]), directory / "again.kbt")
    assert again.read_bytes() == written[0].read_bytes()

    order = reference_load_result(written[1]).value_posteriors
    assert exact(got.value_posteriors) == exact(
        {item: want.value_posteriors[item] for item in order}
    )
    for name in VIEWS:
        if name != "value_posteriors":
            assert exact(getattr(got, name)) == exact(getattr(want, name))
    assert got.num_triples_total == want.num_triples_total
    assert got.history == want.history
    assert exact(got.expected_triples_by_source()) == exact(
        reference_expected_triples_by_source(want)
    )


def check_all(recorder: MergeRecorder, directory: Path) -> None:
    for k, (got, want, observations) in enumerate(recorder.merges):
        sub = directory / str(k)
        sub.mkdir()
        check_merge(got, want, observations, sub)


def records(rows) -> list[ExtractionRecord]:
    return [
        ExtractionRecord(
            ExtractorKey((e,)),
            page_source(w, "p", f"{w}/a"),
            DataItem(s, "p"),
            v,
            c,
        )
        for e, w, s, v, c in rows
    ]


class TestUpdate:
    @given(
        record_lists(max_size=30),
        record_lists(max_size=12),
        st.sampled_from(["accu", "no-priors", "popaccu", "threshold"]),
        st.sampled_from(["fit", "loaded", "dicts"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_the_dict_merge(self, base, delta, config_name, old):
        fitted = KBTEstimator(config(config_name), min_triples=0).fit(base)
        with tempfile.TemporaryDirectory() as tmp, MergeRecorder() as rec:
            tmp = Path(tmp)
            if old == "loaded":
                fitted = FittedKBT.load(fitted.save(tmp / "base.kbt"))
            elif old == "dicts":
                fitted = FittedKBT(
                    rebuilt(fitted.result),
                    fitted.observations,
                    fitted.config,
                    min_triples=0,
                )
            fitted.update(delta)
            check_all(rec, tmp)

    @given(
        record_lists(max_size=24),
        st.lists(record_lists(max_size=10), min_size=3, max_size=3),
    )
    @settings(max_examples=20, deadline=None)
    def test_three_chained_updates(self, base, deltas):
        fitted = KBTEstimator(config("accu"), min_triples=0).fit(base)
        with MergeRecorder() as rec:
            for delta in deltas:
                fitted = fitted.update(delta)
        with tempfile.TemporaryDirectory() as tmp:
            check_all(rec, Path(tmp))

    def test_equal_values_split_across_old_and_delta(self, tmp_path):
        # The fit scores True first; the delta claims 1 and 1.0 on the
        # same item and 1 on a new one. The table keeps True; the
        # touched item's posterior keeps the delta's own values.
        base = records(
            (e, w, "s0", True, 1.0)
            for e in ("e0", "e1")
            for w in ("w0.com", "w1.com")
        )
        delta = records(
            [
                ("e0", "w2.com", "s0", 1, 1.0),
                ("e1", "w2.com", "s0", 1.0, 1.0),
                ("e0", "w2.com", "s1", 1, 1.0),
                ("e1", "w0.com", "s2", 1.0, 1.0),
            ]
        )
        fitted = KBTEstimator(config("accu"), min_triples=0).fit(base)
        with MergeRecorder() as rec:
            updated = fitted.update(delta)
        check_all(rec, tmp_path)
        assert updated.result.columns().values[:1] == [True]
        assert [type(v) for v in updated.result.columns().values] == [bool]

    def test_loaded_table_key_only_the_delta_names(self, tmp_path):
        # A loaded fit's value table keeps ``1`` from its matrix, though
        # no column names it (the threshold drops the weak claim). The
        # delta names the equal ``True``: the merge writes ``True``, as
        # the dict merge does.
        base = records([("e0", "w0.com", "s0", "a", 0.2),
                        ("e0", "w0.com", "s0", 1, 0.2)])
        delta = records([("e0", "w0.com", "s0", "a", 0.2),
                         ("e0", "w0.com", "s1", True, 0.9)])
        fitted = KBTEstimator(config("threshold"), min_triples=0).fit(base)
        loaded = FittedKBT.load(fitted.save(tmp_path / "base.kbt"))
        assert 1 in loaded.result.columns().values
        with MergeRecorder() as rec:
            updated = loaded.update(delta)
        (tmp_path / "merge").mkdir()
        check_all(rec, tmp_path / "merge")
        assert [type(v) for v in updated.result.columns().values] == [bool]


# ----------------------------------------------------------------------
# Merges of results built from dicts: empty items, priors that are not
# the C layer's tuples, estimable keys with no accuracy
# ----------------------------------------------------------------------
TIED = [SourceKey(("a, b",)), SourceKey(("a", "b"))]  # both "<a, b>"
SOURCES = [*TIED, SourceKey(("w0.com",)), SourceKey(("w1.com",))]
#: Estimable, with no accuracy: they join the table in ``str`` order.
UNSCORED = [SourceKey(("z.com",)), SourceKey(("y.com",))]
EXTRACTORS = [
    ExtractorKey(("x, y",)), ExtractorKey(("x", "y")), ExtractorKey(("e",))
]
ITEMS = [DataItem(f"s{k}", "p") for k in range(5)]
P = st.floats(0.0, 1.0)
Q = st.floats(0.01, 0.99)


@st.composite
def dict_results(draw) -> MultiLayerResult:
    """A result as an engine would build it: the V layer names the values
    its item's coordinates name, the priors sit on scored coordinates
    (some as equal but distinct tuples), filled items come before empty
    ones."""
    coords = draw(
        st.lists(
            st.tuples(
                st.sampled_from(SOURCES),
                st.sampled_from(ITEMS),
                st.sampled_from(VALUES),
            ),
            max_size=10,
        )
    )
    scored = {}
    for coord in coords:
        scored.setdefault(coord, draw(P))
    by_item: dict = {}
    for _source, item, value in scored:
        by_item.setdefault(item, {}).setdefault(value, draw(P))
    filled = {item: p for item, p in by_item.items() if draw(st.booleans())}
    empty = {
        item: {}
        for item in ITEMS
        if item not in filled and draw(st.booleans())
    }
    priors = {}
    if draw(st.booleans()):
        for coord in scored:
            if draw(st.booleans()):
                key = coord if draw(st.booleans()) else tuple(list(coord))
                priors[key] = draw(P)
    accuracy = {
        source: draw(P)
        for source in draw(st.lists(st.sampled_from(SOURCES), unique=True))
    }
    quality = {
        extractor: ExtractorQuality(draw(Q), draw(Q), draw(Q))
        for extractor in draw(
            st.lists(st.sampled_from(EXTRACTORS), unique=True)
        )
    }
    extra = set(draw(st.lists(st.sampled_from(UNSCORED), unique=True)))
    return result_from_views(
        value_posteriors={**filled, **empty},
        extraction_posteriors=scored,
        source_accuracy=accuracy,
        extractor_quality=quality,
        estimable_sources={s for s in accuracy if draw(st.booleans())}
        | extra,
        estimable_extractors={e for e in quality if draw(st.booleans())},
        num_triples_total=len(scored),
        history=[],
        priors=priors,
    )


class TestDictBuiltMerge:
    @given(dict_results(), dict_results())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_dict_merge(self, old, delta):
        fitted = FittedKBT(old, None, config("accu"), min_triples=0)
        combined = ObservationMatrix.from_records([])
        got = fitted._merge_delta(delta, combined)
        want = reference_merge_delta(fitted, delta, combined)
        with tempfile.TemporaryDirectory() as tmp:
            check_merge(got, want, None, Path(tmp))

    def test_touched_items_flip_between_empty_and_filled(self, tmp_path):
        s = SOURCES[2]
        d0, d1, d2, d3 = ITEMS[:4]

        def result(value_posteriors):
            scored = {
                (s, item, value): 0.5
                for item, posterior in value_posteriors.items()
                for value in posterior
            }
            return result_from_views(
                value_posteriors=value_posteriors,
                extraction_posteriors=scored,
                source_accuracy={s: 0.9},
                extractor_quality={},
                estimable_sources={s},
                estimable_extractors=set(),
                num_triples_total=len(scored),
                history=[],
            )

        # d0 and d1 filled, d2 and d3 empty; the delta empties d0, fills
        # d2 and adds d4, filled.
        old = result({d0: {"a": 0.7}, d1: {"b": 0.6}, d2: {}, d3: {}})
        delta = result({d0: {}, d2: {"c": 0.4}, ITEMS[4]: {1: 0.3}})
        fitted = FittedKBT(old, None, config("accu"), min_triples=0)
        combined = ObservationMatrix.from_records([])
        got = fitted._merge_delta(delta, combined)
        check_merge(
            got, reference_merge_delta(fitted, delta, combined), None, tmp_path
        )
        assert list(got.value_posteriors) == [d1, d2, ITEMS[4], d0, d3]
        assert got.value_posteriors[d0] == {}
        assert got.value_posteriors[d2] == {"c": 0.4}


    def test_unscored_estimable_keys_join_in_str_order(self, tmp_path):
        # z.com joins the old table first; the merged one lists y.com
        # first, as the artifact sorts an estimable set.
        z, y = UNSCORED

        def result(estimable):
            return result_from_views(
                value_posteriors={},
                extraction_posteriors={},
                source_accuracy={SOURCES[2]: 0.5},
                extractor_quality={},
                estimable_sources=estimable,
                estimable_extractors=set(),
                num_triples_total=0,
                history=[],
            )

        old, delta = result({z}), result({y, z})
        fitted = FittedKBT(old, None, config("accu"), min_triples=0)
        combined = ObservationMatrix.from_records([])
        got = fitted._merge_delta(delta, combined)
        check_merge(
            got, reference_merge_delta(fitted, delta, combined), None, tmp_path
        )
        assert got.columns().sources == [SOURCES[2], y, z]


# ----------------------------------------------------------------------
# The writer's table cut, and what an updated model holds
# ----------------------------------------------------------------------
def thresholded_records() -> list[ExtractionRecord]:
    """Records whose ``u*`` items are claimed only below the confidence
    threshold of ``config("threshold")``: in the matrix's cells, never
    in the fitted result."""
    rows = [
        (e, w, f"s{k}", f"v{(k + j) % 2}", 1.0)
        for e in ("e0", "e1")
        for j, w in enumerate(("w0.com", "w1.com", "w2.com"))
        for k in range(4)
    ]
    rows += [("e0", "w0.com", f"u{k}", f"low{k}", 0.1) for k in range(3)]
    return records(rows)


def test_serving_only_resave_of_a_reloaded_fit(tmp_path):
    fitted = KBTEstimator(config("threshold"), min_triples=0).fit(
        thresholded_records()
    )
    original = fitted.save(tmp_path / "serving.kbt", include_observations=False)
    loaded = load_artifact(fitted.save(tmp_path / "full.kbt"))
    items = loaded.result.columns().items
    assert DataItem("u0", "p") in items, "fixture: cell-only items"
    resaved = save_artifact(
        dataclasses.replace(loaded, observations=None),
        tmp_path / "resaved.kbt",
    )
    assert resaved.read_bytes() == original.read_bytes()


def test_an_updated_model_holds_columns_and_its_save_interns_nothing(
    tmp_path, monkeypatch
):
    fitted = KBTEstimator(config("accu"), min_triples=0).fit(
        thresholded_records()
    )
    delta = [("e0", "w3.com", "s0", "v0", 1.0), ("e1", "w3.com", "n", 2, 1.0)]
    updated = FittedKBT.load(fitted.save(tmp_path / "base.kbt")).update(
        records(delta)
    )
    updated.website_scores()
    assert not set(PER_COORDINATE) & set(updated.result._views)

    calls = 0
    add = result_reference._Interner.add

    def counting_add(self, key):
        nonlocal calls
        calls += 1
        return add(self, key)

    monkeypatch.setattr(result_reference._Interner, "add", counting_add)
    updated.save(tmp_path / "updated.kbt")
    assert calls == 0
