"""The column-backed result against its dict-built reference
(``tests/result_reference.py``).

A numpy fit's result holds columns from the EM loop to the artifact
file, and its dict views are decoded on first read. Every fit below
runs the library's ``assemble_result`` and the reference's side by side
on the same final arrays, and checks that:

* every view equals the reference's, key order, value types (``1``,
  ``True`` and ``1.0`` are equal but not the same value) and float bits
  included, and so does every view of a loaded artifact;
* three saves write the same bytes: the column-backed result, the same
  result rebuilt from its dicts (``result_from_views(**views)``, which
  interns its keys), and the reference writer on the reference result;
* every key table, of a fit, of an interned result and of a loaded
  one, starts with the keys its id columns name, in the order they
  first name them;
* the per-source support (a ``bincount`` over the C layer) equals the
  reference's dict loop, bit for bit and in order;
* the views are read-only, and a column-built result saves its columns.

CI runs this file under three hash seeds.
"""

import dataclasses
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.exec.driver as driver_module
from repro.core.config import (
    AbsenceScope,
    ConvergenceConfig,
    FalseValueModel,
    GranularityConfig,
    MultiLayerConfig,
)
from repro.core.engine_numpy import assemble_result
from repro.core.indexing import compile_problem
from repro.core.kbt import FittedKBT, KBTEstimator, aggregate_scores
from repro.core.observation import ObservationMatrix
from repro.core.quality import ExtractorQuality
from repro.core.results import (
    MultiLayerResult,
    ResultColumns,
    first_seen,
    keyed,
    source_support,
)
from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    SourceKey,
    page_source,
)
from repro.exec.driver import fit_sharded
from repro.io.artifact import TrustArtifact, load_artifact, save_artifact
from repro.io.mmap_layout import ScoredSources
from repro.signals.base import SignalScores
from serving_reference import aggregate_scores as dict_aggregate
from serving_reference import webpage_of, website_of
from result_reference import (
    reference_assemble_result,
    reference_expected_triples_by_source,
    reference_load_result,
    reference_save_artifact,
    result_from_views,
)

VALUES = ["a", "b", 1, True, 1.0, None, 0, 2.5]

VIEWS = (
    "value_posteriors",
    "extraction_posteriors",
    "source_accuracy",
    "extractor_quality",
    "priors",
    "estimable_sources",
    "estimable_extractors",
)


def exact(x):
    """``x`` with every scalar tagged by its type and every float by
    its bits; dicts keep their order, sets compare as sets."""
    if isinstance(x, float):
        return ("float", x.hex())
    if isinstance(x, ExtractorQuality):
        return ("quality", exact(x.precision), exact(x.recall), exact(x.q))
    if isinstance(x, tuple):
        return tuple(exact(part) for part in x)
    if isinstance(x, list):
        return [exact(part) for part in x]
    if isinstance(x, dict):
        return [(exact(k), exact(v)) for k, v in x.items()]
    if isinstance(x, (set, frozenset)):
        return sorted(repr(exact(k)) for k in x)
    return (type(x).__name__, x)


def assert_same_views(got: MultiLayerResult, want: MultiLayerResult):
    for name in VIEWS:
        assert exact(getattr(got, name)) == exact(getattr(want, name)), name
    assert got.num_triples_total == want.num_triples_total
    assert got.history == want.history
    assert exact(got.expected_triples_by_source()) == exact(
        reference_expected_triples_by_source(want)
    )


#: Each key table's id columns, section by section in payload order.
TABLE_COLUMNS = {
    "sources": ("acc_source", "est_source", "coord_source", "prior_source"),
    "extractors": ("eq_extractor", "est_extractor"),
    "items": ("coord_item", "prior_item", "vp_item", "vp_empty_item"),
    "values": ("coord_value", "prior_value", "vp_value"),
}


def assert_first_seen(columns: ResultColumns):
    """Each table starts with the keys its id columns name, in the order
    they first name them (a mask names its keys in table order); a
    loaded table goes on with the keys only its matrix's cells name."""
    for table, names in TABLE_COLUMNS.items():
        ids = [getattr(columns, name) for name in names]
        ids = [np.flatnonzero(c) if c.dtype == bool else c for c in ids]
        size = len(getattr(columns, table))
        order = first_seen(np.concatenate(ids, dtype=np.intp), size)[0]
        assert order.tolist() == list(range(len(order))), table


def rebuilt(result: MultiLayerResult) -> MultiLayerResult:
    """The same result built from its dict views."""
    return result_from_views(
        **{name: getattr(result, name) for name in VIEWS},
        num_triples_total=result.num_triples_total,
        history=result.history,
    )


class Recorder:
    """Runs the reference assembly beside the library's on every fit
    the driver finishes, over the same arrays."""

    def __init__(self):
        self.pairs = []

    def __call__(self, prob, observations, p_correct, posterior, params,
                 priors, history):
        # The reference reads each extractor's starting quality from a
        # dict, as the engine's parameters held it.
        held = dataclasses.replace(
            params,
            quality_init=dict(
                zip(
                    prob.extractors,
                    map(ExtractorQuality, *params.quality_init.T.tolist()),
                )
            ),
        )
        want = reference_assemble_result(
            prob, observations, p_correct, posterior, held, priors, history
        )
        got = assemble_result(
            prob, observations, p_correct, posterior, params, priors, history
        )
        self.pairs.append((got, want))
        return got

    def __enter__(self):
        self._patch = mock.patch.object(
            driver_module, "assemble_result", self
        )
        self._patch.__enter__()
        return self

    def __exit__(self, *exc):
        return self._patch.__exit__(*exc)


@st.composite
def record_lists(draw, max_size=40):
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["e0", "e1", "e2", "e3"]),
                st.sampled_from(["w0.com", "w1.com", "w2.com"]),
                st.sampled_from(["p0", "p1"]),
                st.sampled_from(["s0", "s1", "s2", "s3"]),
                st.sampled_from(VALUES),
                st.sampled_from([0.2, 0.5, 0.9, 1.0]),
            ),
            max_size=max_size,
        )
    )
    return [
        ExtractionRecord(
            ExtractorKey((e,)),
            page_source(w, "p", f"{w}/{page}"),
            DataItem(s, "p"),
            v,
            c,
        )
        for e, w, page, s, v, c in rows
    ]


CONFIGS = {
    "accu": dict(),
    "no-priors": dict(update_prior=False),
    "threshold": dict(confidence_threshold=0.5),
    "popaccu": dict(
        false_value_model=FalseValueModel.POPACCU, use_weighted_vcv=False
    ),
    "scope-all": dict(absence_scope=AbsenceScope.ALL),
    "support": dict(min_source_support=2, min_extractor_support=3),
}


def config(name: str) -> MultiLayerConfig:
    fields = dict(
        engine="numpy",
        absence_scope=AbsenceScope.ACTIVE,
        convergence=ConvergenceConfig(max_iterations=3, tolerance=0.0),
    )
    fields.update(CONFIGS[name])
    return MultiLayerConfig(**fields)


def signals_for(result: MultiLayerResult) -> dict:
    sites = sorted({source.website for source in result.source_accuracy})
    return {
        "kbt": SignalScores(
            name="kbt",
            scores={site: 0.5 for site in sites},
            support={site: 1.0 for site in sites[::2]},
            metadata={"flag": True},
        )
    }


def three_saves(
    got: MultiLayerResult,
    want: MultiLayerResult,
    observations: ObservationMatrix | None,
    directory: Path,
    signals: dict | None = None,
) -> None:
    """Three saves, asserted byte-equal."""
    assert_first_seen(got.columns())
    assert_first_seen(rebuilt(got).columns())
    written = []
    for name, result, save in (
        ("columns", got, save_artifact),
        ("dicts", rebuilt(got), save_artifact),
        ("reference", want, reference_save_artifact),
    ):
        artifact = TrustArtifact(
            result=result,
            config=config("accu"),
            min_triples=0.0,
            observations=observations,
            signals=signals or {},
            fusion_weights={"kbt": 1.0} if signals else {},
        )
        path = directory / f"{name}.kbt"
        save(artifact, path)
        written.append(path.read_bytes())
    assert written[0] == written[1], "columns vs result_from_views(**dicts)"
    assert written[0] == written[2], "columns vs the reference writer"


def check_load(path: Path) -> None:
    """A loaded artifact's views equal the reference loader's, and it
    re-saves to the same bytes."""
    loaded = load_artifact(path)
    assert_first_seen(loaded.result.columns())
    want = reference_load_result(path)
    assert_same_views(loaded.result, want)
    again = path.with_suffix(".again")
    save_artifact(loaded, again)
    reference_save_artifact(
        dataclasses.replace(loaded, result=want), path.with_suffix(".ref")
    )
    assert again.read_bytes() == path.read_bytes()
    assert path.with_suffix(".ref").read_bytes() == path.read_bytes()


class TestFit:
    @given(
        record_lists(),
        st.sampled_from(sorted(CONFIGS)),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_views_and_bytes(
        self, records, config_name, include_observations, with_signals
    ):
        observations = ObservationMatrix.from_records(records)
        with Recorder() as recorder:
            fitted = KBTEstimator(config(config_name), min_triples=0).fit(
                observations
            )
        ((got, want),) = recorder.pairs
        assert got is fitted.result
        assert_same_views(got, want)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            three_saves(
                got,
                want,
                observations if include_observations else None,
                tmp,
                signals_for(got) if with_signals else None,
            )
            check_load(tmp / "columns.kbt")

    @given(record_lists(max_size=30), record_lists(max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_warm_start_update(self, records, delta):
        with Recorder() as recorder:
            fitted = KBTEstimator(config("accu"), min_triples=0).fit(records)
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "base.kbt"
                fitted.save(path)
                updated = FittedKBT.load(path).update(delta)
        for got, want in recorder.pairs:
            assert_same_views(got, want)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            # The merged result's reference save is the reference writer
            # on its views (tests/test_merge_parity.py holds the merge
            # itself to the dict merge it replaced).
            three_saves(
                updated.result, updated.result, updated.observations, tmp
            )
            check_load(tmp / "columns.kbt")

    @given(record_lists(max_size=60))
    @settings(max_examples=25, deadline=None)
    def test_granularity_relabel(self, records):
        with Recorder() as recorder:
            fitted = KBTEstimator(
                config("accu"),
                granularity=GranularityConfig(min_size=2, max_size=3),
                min_triples=0,
            ).fit(records)
        ((got, want),) = recorder.pairs
        assert_same_views(got, want)
        with tempfile.TemporaryDirectory() as tmp:
            three_saves(got, want, fitted.observations, Path(tmp))

    @given(record_lists())
    @settings(max_examples=25, deadline=None)
    def test_released_matrix(self, records):
        observations = ObservationMatrix.from_records(records)
        cfg = config("accu")
        problem = compile_problem(observations, cfg)
        observations.release()
        with Recorder() as recorder:
            fit_sharded(cfg, observations, problem=problem)
        ((got, want),) = recorder.pairs
        assert_same_views(got, want)
        with tempfile.TemporaryDirectory() as tmp:
            three_saves(got, want, None, Path(tmp))

    def test_empty_corpus(self, tmp_path):
        with Recorder() as recorder:
            fitted = KBTEstimator(config("accu"), min_triples=0).fit([])
        ((got, want),) = recorder.pairs
        assert_same_views(got, want)
        three_saves(got, want, fitted.observations, tmp_path)
        check_load(tmp_path / "columns.kbt")

    def test_equal_values_keep_their_own_type(self, tmp_path):
        # ``True`` is scored first, so the value table writes it; the
        # fitted views keep each coordinate's and each triple's own
        # value, as the dict-built result did.
        records = [
            ExtractionRecord(
                ExtractorKey((e,)),
                page_source(w, "p", f"{w}/a"),
                DataItem(s, "p"),
                v,
            )
            for e in ("e0", "e1")
            for w in ("w0.com", "w1.com")
            for s, v in (("s0", True), ("s1", 1), ("s2", 1.0))
        ]
        with Recorder() as recorder:
            fitted = KBTEstimator(config("accu"), min_triples=0).fit(records)
        ((got, want),) = recorder.pairs
        assert_same_views(got, want)
        types = [
            type(value)
            for posterior in got.value_posteriors.values()
            for value in posterior
        ]
        assert types == [bool, int, float]
        three_saves(got, want, fitted.observations, tmp_path)
        check_load(tmp_path / "columns.kbt")


class TestSourceSupport:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5),
                st.floats(0.0, 1.0, allow_subnormal=True),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_bincount_is_the_dict_loop_bit_for_bit(self, rows):
        sources = [page_source(f"w{k}.com", "p", "x") for k in range(6)]
        result = result_from_views(
            value_posteriors={},
            extraction_posteriors={
                (sources[s], DataItem(f"s{row}", "p"), "v"): p
                for row, (s, p) in enumerate(rows)
            },
            source_accuracy={},
            extractor_quality={},
            estimable_sources=set(),
            estimable_extractors=set(),
            num_triples_total=0,
            history=[],
        )
        want = reference_expected_triples_by_source(result)
        assert exact(result.expected_triples_by_source()) == exact(want)
        assert exact(
            source_support(
                sources,
                np.array([s for s, _p in rows], dtype=np.intp),
                np.array([p for _s, p in rows], dtype=np.float64),
            )
        ) == exact(want)



#: Sources at every level, two sharing a website and one a webpage.
AGGREGATED = [
    SourceKey(("w0.com",)),
    SourceKey(("w0.com", "p")),
    page_source("w0.com", "p", "w0.com/a"),
    page_source("w1.com", "p", "w1.com/a"),
    page_source("w1.com", "q", "w1.com/a"),
    SourceKey(("w1.com", "p", "w1.com/b"), bucket=1),
    page_source("w2.com", "p", "w2.com/a"),
]


class TestAggregation:
    """``aggregate_scores`` sums over columns; the dict loop it replaced
    (``tests/serving_reference.py``) is the reference, bit for bit and
    in order."""

    @given(
        st.permutations(range(len(AGGREGATED))),
        st.lists(st.floats(0.0, 1.0), min_size=len(AGGREGATED),
                 max_size=len(AGGREGATED)),
        st.lists(
            st.tuples(
                st.integers(0, len(AGGREGATED) - 1),
                st.floats(0.0, 1.0, allow_subnormal=True),
            ),
            max_size=40,
        ),
        st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_columns_are_the_dict_loop_bit_for_bit(
        self, order, accuracy, coords, min_triples
    ):
        scored = ScoredSources(
            AGGREGATED,
            np.array(order, dtype=np.intp),
            np.array(accuracy, dtype=np.float64),
            np.array([s for s, _p in coords], dtype=np.intp),
            np.array([p for _s, p in coords], dtype=np.float64),
        )
        got = aggregate_scores(scored, min_triples)
        source_accuracy = keyed(AGGREGATED, scored.acc_source, accuracy)
        support = source_support(
            AGGREGATED, scored.coord_source, scored.coord_p
        )
        for groups, group_of in (
            (got.websites, website_of), (got.webpages, webpage_of)
        ):
            want = dict_aggregate(
                source_accuracy, support, min_triples, group_of
            )
            assert exact(groups.scores()) == exact(want)


def small_fit() -> FittedKBT:
    records = [
        ExtractionRecord(
            ExtractorKey((e,)),
            page_source(w, "p", f"{w}/a"),
            DataItem(s, "p"),
            v,
        )
        for e in ("e0", "e1")
        for w in ("w0.com", "w1.com", "w2.com")
        for s, v in (("s0", "a"), ("s1", w), ("s2", "b"))
    ]
    return KBTEstimator(config("accu"), min_triples=0).fit(records)


class TestReadOnlyViews:
    def test_assigning_a_view_is_refused(self):
        result = small_fit().result
        for held in (result, rebuilt(result)):
            for name in VIEWS:
                with pytest.raises(AttributeError):
                    setattr(held, name, {})

    def test_a_column_built_result_saves_its_columns(self, tmp_path):
        # Its views are snapshots decoded from the columns: an edited
        # view is not what a save writes.
        fitted = small_fit()
        before = fitted.save(tmp_path / "before.kbt").read_bytes()
        source = next(iter(fitted.result.source_accuracy))
        fitted.result.source_accuracy[source] = 0.125
        fitted.result.priors.clear()
        after = fitted.save(tmp_path / "after.kbt").read_bytes()
        assert after == before
