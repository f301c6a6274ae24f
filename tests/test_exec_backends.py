"""Parity and unit tests for the sharded execution API (repro.exec).

The contract under test: for every backend (serial / threads / processes)
and every shard count, ``fit_sharded`` matches the unsharded numpy engine
to <= 1e-9 on all posteriors, qualities and priors — and, because the
reduce runs over globally re-assembled arrays in the engine's order, it
actually matches bit for bit. The hypothesis suite drives randomized
corpora over the configuration axes; the process backend (expensive to
spawn per example) is exercised on deterministic corpora across the same
axes and shard counts, including ``num_shards == n_items`` and more
shards than items.
"""

from __future__ import annotations

import dataclasses

import pytest

pytest.importorskip("numpy")

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    AbsenceScope,
    ConvergenceConfig,
    FalseValueModel,
    MultiLayerConfig,
)
from repro.core.indexing import compile_problem
from repro.core.multi_layer import MultiLayerModel
from repro.core.observation import ObservationMatrix
from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    SourceKey,
)
from repro.exec.plan import ShardPlan, _contiguous_cuts

TOLERANCE = 1e-9

SOURCES = [SourceKey((f"w{i}",)) for i in range(5)]
EXTRACTORS = [ExtractorKey((f"e{i}",)) for i in range(4)]
ITEMS = [DataItem(f"s{i}", "p") for i in range(4)]
VALUES = ["a", "b", "c"]


def records_strategy(max_records: int = 60):
    record = st.builds(
        ExtractionRecord,
        extractor=st.sampled_from(EXTRACTORS),
        source=st.sampled_from(SOURCES),
        item=st.sampled_from(ITEMS),
        value=st.sampled_from(VALUES),
        confidence=st.floats(
            min_value=0.05, max_value=1.0, allow_nan=False
        ),
    )
    return st.lists(record, max_size=max_records)


CONFIG_AXES = {
    "defaults": MultiLayerConfig(engine="numpy"),
    "active-scope": MultiLayerConfig(
        engine="numpy", absence_scope=AbsenceScope.ACTIVE
    ),
    "map-vstep": MultiLayerConfig(engine="numpy", use_weighted_vcv=False),
    "popaccu": MultiLayerConfig(
        engine="numpy",
        false_value_model=FalseValueModel.POPACCU,
        use_weighted_vcv=False,
    ),
    "threshold-0.5-active": MultiLayerConfig(
        engine="numpy",
        confidence_threshold=0.5,
        absence_scope=AbsenceScope.ACTIVE,
    ),
    "damped-late-prior": MultiLayerConfig(
        engine="numpy",
        quality_damping=0.5,
        prior_update_start_iteration=4,
    ),
    "supports": MultiLayerConfig(
        engine="numpy", min_source_support=2, min_extractor_support=2
    ),
    "frozen-quality": MultiLayerConfig(
        engine="numpy", freeze_extractor_quality=True
    ),
}


def shard_counts(observations: ObservationMatrix) -> list[int]:
    """The satellite's shard-count axis: 1, 2, 7, and one per item."""
    n_items = max(1, observations.num_items)
    return sorted({1, 2, 7, n_items})


def assert_parity(reference, sharded, exact: bool = False):
    """Full-result comparison; ``exact`` additionally demands bitwise."""

    def close(a: float, b: float) -> bool:
        return a == b if exact else a == pytest.approx(b, abs=TOLERANCE)

    assert reference.iterations_run == sharded.iterations_run
    assert reference.estimable_sources == sharded.estimable_sources
    assert reference.estimable_extractors == sharded.estimable_extractors

    assert set(reference.value_posteriors) == set(sharded.value_posteriors)
    for item, values in reference.value_posteriors.items():
        assert set(values) == set(sharded.value_posteriors[item])
        for value, prob in values.items():
            assert close(sharded.value_posteriors[item][value], prob)

    assert set(reference.extraction_posteriors) == set(
        sharded.extraction_posteriors
    )
    for coord, prob in reference.extraction_posteriors.items():
        assert close(sharded.extraction_posteriors[coord], prob)

    for source, accuracy in reference.source_accuracy.items():
        assert close(sharded.source_accuracy[source], accuracy)

    for extractor, quality in reference.extractor_quality.items():
        other = sharded.extractor_quality[extractor]
        assert close(other.precision, quality.precision)
        assert close(other.recall, quality.recall)
        assert close(other.q, quality.q)

    assert set(reference.priors) == set(sharded.priors)
    for coord, prior in reference.priors.items():
        assert close(sharded.priors[coord], prior)

    for snap_ref, snap_sh in zip(reference.history, sharded.history):
        assert close(snap_sh.max_accuracy_delta, snap_ref.max_accuracy_delta)
        assert close(
            snap_sh.max_extractor_delta, snap_ref.max_extractor_delta
        )


def fit_pair(config, observations, backend, num_shards, **fit_kwargs):
    reference = MultiLayerModel(config).fit(observations, **fit_kwargs)
    sharded = MultiLayerModel(
        dataclasses.replace(
            config, backend=backend, num_shards=num_shards
        )
    ).fit(observations, **fit_kwargs)
    return reference, sharded


# ----------------------------------------------------------------------
# Hypothesis parity: serial / threads over randomized corpora
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config", CONFIG_AXES.values(), ids=CONFIG_AXES)
@settings(max_examples=8, deadline=None)
@given(records=records_strategy(), shards=st.sampled_from([1, 2, 7, -1]))
def test_randomized_backend_parity(config, records, shards):
    observations = ObservationMatrix.from_records(records)
    num_shards = (
        max(1, observations.num_items) if shards == -1 else shards
    )
    reference, sharded = fit_pair(
        config, observations, "serial", num_shards
    )
    assert_parity(reference, sharded, exact=True)


@pytest.mark.parametrize(
    "config",
    [
        CONFIG_AXES["defaults"],
        CONFIG_AXES["active-scope"],
        CONFIG_AXES["popaccu"],
    ],
    ids=["defaults", "active-scope", "popaccu"],
)
@settings(max_examples=6, deadline=None)
@given(records=records_strategy(), shards=st.sampled_from([1, 2, 7, -1]))
def test_randomized_threads_parity(config, records, shards):
    observations = ObservationMatrix.from_records(records)
    num_shards = (
        max(1, observations.num_items) if shards == -1 else shards
    )
    reference, sharded = fit_pair(
        config, observations, "threads", num_shards
    )
    assert_parity(reference, sharded, exact=True)


@settings(max_examples=8, deadline=None)
@given(
    records=records_strategy(),
    accuracies=st.dictionaries(
        st.sampled_from(SOURCES),
        st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
        max_size=len(SOURCES),
    ),
)
def test_randomized_parity_with_initial_accuracy(records, accuracies):
    observations = ObservationMatrix.from_records(records)
    reference, sharded = fit_pair(
        MultiLayerConfig(engine="numpy"),
        observations,
        "serial",
        3,
        initial_source_accuracy=accuracies,
    )
    assert_parity(reference, sharded, exact=True)


# ----------------------------------------------------------------------
# Process backend: deterministic corpora across the same axes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config", CONFIG_AXES.values(), ids=CONFIG_AXES)
def test_process_backend_parity_across_axes(config, synthetic_matrix):
    reference, sharded = fit_pair(
        config, synthetic_matrix, "processes", 3
    )
    assert_parity(reference, sharded, exact=True)


@pytest.mark.parametrize("shards", [1, 2, 7, "n_items", "n_items+5"])
def test_process_backend_parity_across_shard_counts(shards, synthetic_matrix):
    observations = synthetic_matrix
    n_items = max(1, observations.num_items)
    num_shards = (
        n_items
        if shards == "n_items"
        else n_items + 5 if shards == "n_items+5" else shards
    )
    reference, sharded = fit_pair(
        MultiLayerConfig(
            engine="numpy", absence_scope=AbsenceScope.ACTIVE
        ),
        observations,
        "processes",
        num_shards,
    )
    assert_parity(reference, sharded, exact=True)


def test_backend_on_empty_corpus():
    for backend in ("serial", "threads", "processes"):
        reference, sharded = fit_pair(
            MultiLayerConfig(engine="numpy"),
            ObservationMatrix.from_records([]),
            backend,
            4,
        )
        assert_parity(reference, sharded, exact=True)
        assert sharded.value_posteriors == {}


def test_backend_with_frozen_sets(kv_small):
    """Warm-start fit params (frozen sources/extractors) shard cleanly."""
    observations = kv_small.observation()
    config = MultiLayerConfig(
        engine="numpy", absence_scope=AbsenceScope.ACTIVE
    )
    base = MultiLayerModel(config).fit(observations)
    frozen_sources = set(list(base.source_accuracy)[:10])
    frozen_extractors = set(list(base.extractor_quality)[:5])
    reference, sharded = fit_pair(
        config,
        observations,
        "threads",
        5,
        initial_source_accuracy=base.source_accuracy,
        initial_extractor_quality=base.extractor_quality,
        frozen_sources=frozen_sources,
        frozen_extractors=frozen_extractors,
    )
    assert_parity(reference, sharded, exact=True)


# ----------------------------------------------------------------------
# FittedKBT.update under a parallel backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_fitted_update_under_parallel_backend(backend, kv_small):
    from repro.core.kbt import KBTEstimator

    records = list(kv_small.campaign.records)
    held_site = records[-1].source.website
    base = [r for r in records if r.source.website != held_site]
    new = [r for r in records if r.source.website == held_site]
    assert new, "need a held-out website"

    fitted = KBTEstimator(engine="numpy", min_triples=0.0).fit(base)
    plain = fitted.update(new, sweeps=2)
    sharded = fitted.update(new, sweeps=2, backend=backend, num_shards=4)

    assert plain.result.source_accuracy == sharded.result.source_accuracy
    assert plain.result.value_posteriors == sharded.result.value_posteriors
    assert (
        plain.result.extraction_posteriors
        == sharded.result.extraction_posteriors
    )
    plain_scores = plain.website_scores()
    sharded_scores = sharded.website_scores()
    assert set(plain_scores) == set(sharded_scores)
    for site, score in plain_scores.items():
        assert sharded_scores[site].score == score.score


def test_estimator_backend_propagates_to_config():
    from repro.core.kbt import KBTEstimator

    estimator = KBTEstimator(backend="threads", num_shards=3)
    assert estimator._config.backend == "threads"
    assert estimator._config.num_shards == 3
    # Sharded execution runs on the numpy engine, which is the default.
    assert estimator._config.engine == "numpy"


def test_estimator_explicit_python_engine_with_backend_rejected():
    from repro.core.kbt import KBTEstimator

    with pytest.raises(ValueError, match="numpy"):
        KBTEstimator(engine="python", backend="threads")


def test_corpus_context_backend_reaches_shared_fit(kv_small, monkeypatch):
    from repro.exec import driver
    from repro.signals import CorpusContext

    context = CorpusContext(
        observations=kv_small.observation(),
        backend="serial",
        num_shards=2,
        min_triples=0.0,
    )
    seen = []

    class Recording(driver.BACKENDS["serial"]):
        def open(self, source, cfg):
            seen.append(cfg.backend)
            return super().open(source, cfg)

    monkeypatch.setitem(driver.BACKENDS, "serial", Recording)
    fitted = context.fitted_kbt()
    # The shared fit ran where the context said; the fitted model does
    # not remember it.
    assert seen == ["serial"]
    assert fitted.config.backend is None
    assert fitted.config.num_shards is None
    assert fitted.website_scores()


# ----------------------------------------------------------------------
# Shard plan unit tests
# ----------------------------------------------------------------------
def plan_for(observations, cfg, num_shards):
    prob = compile_problem(observations, cfg)
    return prob, ShardPlan.from_problem(prob, cfg, num_shards)


def test_plan_partitions_coords_and_triples(synthetic_matrix):
    cfg = MultiLayerConfig(engine="numpy")
    prob, plan = plan_for(synthetic_matrix, cfg, 4)
    seen_coords = np.concatenate(
        [shard.coord_idx for shard in plan.shards]
    )
    assert sorted(seen_coords.tolist()) == list(range(prob.num_coords))
    spans = sorted(
        (shard.triple_lo, shard.triple_hi) for shard in plan.shards
    )
    covered = 0
    for lo, hi in spans:
        assert lo == covered
        covered = hi
    assert covered == prob.num_triples
    # Claims stay with their item's shard and reference local coords.
    for shard in plan.shards:
        assert shard.claim_coord.size == shard.claim_triple.size
        if shard.claim_coord.size:
            assert shard.claim_coord.max() < shard.num_coords
            assert shard.claim_triple.max() < shard.num_triples


def test_plan_more_shards_than_items():
    records = [
        ExtractionRecord(
            extractor=EXTRACTORS[0],
            source=SOURCES[i % 2],
            item=ITEMS[0],
            value=VALUES[i % 2],
        )
        for i in range(4)
    ]
    observations = ObservationMatrix.from_records(records)
    cfg = MultiLayerConfig(engine="numpy")
    prob, plan = plan_for(observations, cfg, 6)
    assert plan.num_shards == 6
    assert sum(shard.num_items for shard in plan.shards) == prob.num_items
    assert sum(shard.num_coords for shard in plan.shards) == prob.num_coords


def test_plan_stage_stats_match_problem_structure(synthetic_matrix):
    cfg = MultiLayerConfig(engine="numpy")
    prob, plan = plan_for(synthetic_matrix, cfg, 2)
    stats = plan.stage_stats
    assert stats["ext_corr"].num_mapped == len(prob.entry_coord)
    assert sum(stats["ext_corr"].group_sizes) == len(prob.entry_coord)
    assert stats["triple_pr"].num_mapped == prob.num_coords
    assert sum(stats["triple_pr"].group_sizes) == len(prob.claim_coord)
    assert stats["src_accu"].num_mapped == prob.num_coords
    assert sum(stats["src_accu"].group_sizes) == prob.num_coords
    assert stats["ext_quality"].num_mapped == len(prob.entry_coord)
    assert sum(stats["ext_quality"].group_sizes) == len(prob.entry_coord)


def test_contiguous_cuts_cover_and_balance():
    weight = np.ones(10)
    cuts = _contiguous_cuts(weight, 5)
    assert cuts.tolist() == [0, 2, 4, 6, 8, 10]
    skew = np.array([100.0] + [1.0] * 9)
    cuts = _contiguous_cuts(skew, 2)
    assert cuts[0] == 0 and cuts[-1] == 10
    assert (np.diff(cuts) >= 0).all()
    assert _contiguous_cuts(np.zeros(0), 3).tolist() == [0, 0, 0, 0]


def test_plan_rejects_bad_shard_count(synthetic_matrix):
    cfg = MultiLayerConfig(engine="numpy")
    prob = compile_problem(synthetic_matrix, cfg)
    with pytest.raises(ValueError, match="num_shards"):
        ShardPlan.from_problem(prob, cfg, 0)


# ----------------------------------------------------------------------
# The map task is a pure function
# ----------------------------------------------------------------------
def _run(shard, cfg, params):
    """One map task; the outputs are copied because a float32 task
    returns workspace buffers the packet's next call overwrites."""
    from repro.exec.worker import run_shard_iteration

    p_correct, posterior = run_shard_iteration(
        shard, cfg, params, params.priors_for(shard)
    )
    return p_correct.copy(), posterior.copy()


def _run_round(plan, cfg, params, schedule):
    """The global vectors after running ``schedule``'s tasks in order."""
    p_correct = np.zeros(plan.num_coords)
    posterior = np.zeros(plan.num_triples)
    for index in schedule:
        shard = plan.get_shard(index)
        p_correct[shard.coord_idx], posterior[
            shard.triple_lo : shard.triple_hi
        ] = _run(shard, cfg, params)
    return p_correct.tobytes(), posterior.tobytes()


def _input_bytes(params):
    return [
        np.asarray(value).tobytes()
        for value in dataclasses.astuple(params)
        if value is not None
    ]


@pytest.mark.parametrize("precision", ["float64", "float32"])
@settings(max_examples=15, deadline=None)
@given(
    records=records_strategy(),
    num_shards=st.sampled_from([3, 4]),
    data=st.data(),
)
def test_map_task_is_pure(precision, records, num_shards, data):
    from repro.core.engine_numpy import (
        init_params,
        iteration_inputs,
        update_parameters,
    )
    from repro.exec.driver import prior_update, residual_mass
    from repro.exec.plan import num_unobserved
    from repro.exec.worker import IterationParams

    cfg = MultiLayerConfig(
        precision=precision, absence_scope=AbsenceScope.ACTIVE
    )
    prob, veteran = plan_for(
        ObservationMatrix.from_records(records), cfg, num_shards
    )
    in_order = range(num_shards)

    # Round 1 (initial priors), then a real M step and Eq. 26 make round
    # 2's inputs, so both the None and the vector prior path are driven.
    theta = init_params(cfg, prob)
    first = IterationParams(False, None, *iteration_inputs(cfg, prob, theta))
    p_correct, posterior = (
        np.frombuffer(raw) for raw in _run_round(veteran, cfg, first, in_order)
    )
    update_parameters(cfg, prob, theta, p_correct, posterior)
    residual = residual_mass(
        prob, posterior, num_unobserved(cfg, prob.item_num_values)
    )
    second = IterationParams(
        False,
        prior_update(cfg, prob, posterior, residual, theta.accuracy),
        *iteration_inputs(cfg, prob, theta),
    )

    for params in (first, second):
        before = _input_bytes(params)
        expected = _run_round(veteran, cfg, params, in_order)
        # The same task twice: equal bytes, inputs untouched.
        shard = veteran.get_shard(data.draw(st.sampled_from(in_order)))
        once, again = _run(shard, cfg, params), _run(shard, cfg, params)
        assert once[0].tobytes() == again[0].tobytes()
        assert once[1].tobytes() == again[1].tobytes()
        assert _input_bytes(params) == before
        # Any order, interleaved (A, B, A), with repeated attempts.
        order = data.draw(st.permutations(in_order))
        repeats = data.draw(st.lists(st.sampled_from(in_order), max_size=4))
        schedule = [order[0], order[1], order[0], *order[2:], *repeats]
        assert _run_round(veteran, cfg, params, schedule) == expected

    # A worker that has never seen a shard (fresh packets, no scratch)
    # produces the bytes of the one that ran every earlier round.
    novice = ShardPlan.from_problem(prob, cfg, num_shards)
    assert _run_round(novice, cfg, second, in_order) == expected


# ----------------------------------------------------------------------
# Engine / backend names + config validation
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_names(self):
        """The names the config validates are the names dispatch knows."""
        from repro.core import config, multi_layer
        from repro.exec import driver

        assert config.ENGINES == ("python", "numpy")
        assert config.BACKENDS == (
            "serial",
            "threads",
            "processes",
            "remote",
        )
        assert tuple(multi_layer.ENGINE_FITS) == config.ENGINES
        assert tuple(driver.BACKENDS) == config.BACKENDS

    def test_unknown_engine_message_lists_choices(self):
        with pytest.raises(
            ValueError, match=r"valid engines are python, numpy"
        ):
            MultiLayerConfig(engine="fortran")

    def test_unknown_backend_message_lists_choices(self):
        with pytest.raises(
            ValueError,
            match=r"valid backends are serial, threads, processes, remote",
        ):
            MultiLayerConfig(engine="numpy", backend="gpu")

    def test_python_engine_with_backend_rejected(self):
        with pytest.raises(ValueError, match='engine="numpy"'):
            MultiLayerConfig(engine="python", backend="serial")

    def test_num_shards_requires_backend(self, synthetic_matrix):
        """It no longer does: the driver runs ``backend=None`` as
        ``serial``, bit-identically to one shard."""
        assert_parity(
            MultiLayerModel(MultiLayerConfig(engine="numpy")).fit(
                synthetic_matrix
            ),
            MultiLayerModel(
                MultiLayerConfig(engine="numpy", num_shards=4)
            ).fit(synthetic_matrix),
            exact=True,
        )
        with pytest.raises(ValueError, match='num_shards.*engine="numpy"'):
            MultiLayerConfig(engine="python", num_shards=4)
        with pytest.raises(ValueError, match="num_shards"):
            MultiLayerConfig(
                engine="numpy", backend="serial", num_shards=0
            )

    def test_resolve_backend_returns_factory(self):
        from repro.exec import driver
        from repro.exec.backends import SerialBackend

        assert driver.BACKENDS["serial"] is SerialBackend


def test_config_with_backend_roundtrips_through_artifact(tmp_path):
    """Sharded-execution settings survive save/load like any config."""
    from repro.io.artifact import config_from_dict, config_to_dict

    config = MultiLayerConfig(
        engine="numpy", backend="processes", num_shards=8
    )
    restored = config_from_dict(config_to_dict(config))
    assert restored == config
