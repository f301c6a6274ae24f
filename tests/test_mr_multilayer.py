"""The MR dataflow must be numerically equivalent to the in-memory model."""

import pytest

from repro.core.config import (
    AbsenceScope,
    ConvergenceConfig,
    FalseValueModel,
    MultiLayerConfig,
)
from repro.core.indexing import compile_problem
from repro.core.multi_layer import MultiLayerModel
from repro.core.observation import ObservationMatrix
from repro.datasets.motivating import motivating_example
from repro.mapreduce.cluster import ClusterCostModel
from repro.mapreduce.mr_multilayer import (
    MRMultiLayerRunner,
    _stage_stats,
    preparation_time,
)


def exact_config(**kwargs):
    """Run exactly 5 iterations so both implementations stay in lockstep."""
    kwargs.setdefault(
        "convergence", ConvergenceConfig(max_iterations=5, tolerance=0.0)
    )
    return MultiLayerConfig(**kwargs)


def assert_equivalent(obs, cfg):
    mem = MultiLayerModel(cfg).fit(obs)
    report = MRMultiLayerRunner(cfg, ClusterCostModel(num_workers=4)).run(obs)
    mr = report.result
    for coord, p in mem.extraction_posteriors.items():
        assert mr.extraction_posteriors[coord] == pytest.approx(p, abs=1e-9)
    for source, a in mem.source_accuracy.items():
        assert mr.source_accuracy[source] == pytest.approx(a, abs=1e-9)
    for item, values in mem.value_posteriors.items():
        for value, p in values.items():
            assert mr.value_posteriors[item][value] == pytest.approx(
                p, abs=1e-9
            )
    for extractor, q in mem.extractor_quality.items():
        assert mr.extractor_quality[extractor].precision == pytest.approx(
            q.precision, abs=1e-9
        )
        assert mr.extractor_quality[extractor].recall == pytest.approx(
            q.recall, abs=1e-9
        )
    return report


class TestEquivalence:
    def test_default_config(self, synthetic_matrix):
        assert_equivalent(synthetic_matrix, exact_config())

    def test_active_scope(self, synthetic_matrix):
        assert_equivalent(
            synthetic_matrix,
            exact_config(absence_scope=AbsenceScope.ACTIVE),
        )

    def test_map_estimator(self, synthetic_matrix):
        assert_equivalent(
            synthetic_matrix, exact_config(use_weighted_vcv=False)
        )

    def test_no_prior_update(self, synthetic_matrix):
        assert_equivalent(synthetic_matrix, exact_config(update_prior=False))

    def test_confidence_threshold(self, synthetic_matrix):
        assert_equivalent(
            synthetic_matrix, exact_config(confidence_threshold=0.0)
        )

    def test_support_filtering(self, synthetic_matrix):
        assert_equivalent(
            synthetic_matrix,
            exact_config(min_extractor_support=3, min_source_support=2),
        )

    def test_motivating_example(self):
        obs = ObservationMatrix.from_records(motivating_example().records)
        assert_equivalent(obs, exact_config())


class TestRunnerBehaviour:
    def test_popaccu_rejected(self):
        with pytest.raises((NotImplementedError, ValueError)):
            MRMultiLayerRunner(
                exact_config(
                    false_value_model=FalseValueModel.POPACCU,
                    use_weighted_vcv=False,
                )
            )

    def test_timings_positive_per_iteration(self, synthetic_matrix):
        report = assert_equivalent(synthetic_matrix, exact_config())
        assert len(report.iteration_timings) == 5
        for timing in report.iteration_timings:
            assert timing.ext_corr > 0
            assert timing.triple_pr > 0
            assert timing.src_accu > 0
            assert timing.ext_quality > 0
            assert timing.total == pytest.approx(
                timing.ext_corr + timing.triple_pr + timing.src_accu
                + timing.ext_quality
            )

    def test_average_iteration(self, synthetic_matrix):
        report = MRMultiLayerRunner(
            exact_config(), ClusterCostModel(num_workers=4)
        ).run(synthetic_matrix)
        avg = report.average_iteration()
        assert avg.total == pytest.approx(
            report.total_iteration_time / len(report.iteration_timings)
        )


def test_stage_stats_match_problem_structure(synthetic_matrix):
    prob = compile_problem(synthetic_matrix, MultiLayerConfig(engine="numpy"))
    stats = _stage_stats(prob)
    assert stats["ext_corr"].num_mapped == len(prob.entry_coord)
    assert sum(stats["ext_corr"].group_sizes) == len(prob.entry_coord)
    assert stats["triple_pr"].num_mapped == prob.num_coords
    assert sum(stats["triple_pr"].group_sizes) == len(prob.claim_coord)
    assert stats["src_accu"].num_mapped == prob.num_coords
    assert sum(stats["src_accu"].group_sizes) == prob.num_coords
    assert stats["ext_quality"].num_mapped == len(prob.entry_coord)
    assert sum(stats["ext_quality"].group_sizes) == len(prob.entry_coord)


class TestPreparationTime:
    def test_costs_two_maps_plus_rounds(self):
        model = ClusterCostModel(num_workers=10, per_task_overhead=0.0)
        time = preparation_time(((10, 20), (5,)), num_records=100,
                                cost_model=model)
        expected = (
            model.map_time(100) * 2
            + model.reduce_time([10, 20])
            + model.reduce_time([5])
        )
        assert time == pytest.approx(expected)

    def test_no_rounds_is_just_the_maps(self):
        model = ClusterCostModel(num_workers=10)
        assert preparation_time((), 50, model) == pytest.approx(
            2 * model.map_time(50)
        )
