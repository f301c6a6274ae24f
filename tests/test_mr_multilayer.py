"""Table 7's stage statistics and their price under the cost model."""

import dataclasses

import pytest

from repro.core.config import ConvergenceConfig, MultiLayerConfig
from repro.core.indexing import compile_problem
from repro.mapreduce.cluster import ClusterCostModel
from repro.mapreduce.mr_multilayer import (
    IterationTiming,
    _stage_stats,
    iteration_timing,
    preparation_time,
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


def test_iteration_timing_prices_the_stage_stats(synthetic_matrix):
    """Each stage is ``stage_time`` over its statistics, to the bit, and
    a config that changes only what the EM loop does with the compiled
    problem prices the same."""
    model = ClusterCostModel(num_workers=4)
    base = MultiLayerConfig()
    prob = compile_problem(synthetic_matrix, base)
    timing = iteration_timing(prob, model)
    stats = _stage_stats(prob)
    for field in dataclasses.fields(IterationTiming):
        stage = stats[field.name]
        priced = model.stage_time(stage.num_mapped, stage.group_sizes)
        assert getattr(timing, field.name).hex() == priced.hex()
        assert priced > 0
    assert timing.total == (
        timing.ext_corr + timing.triple_pr + timing.src_accu
        + timing.ext_quality
    )

    for variant in (
        dataclasses.replace(base, use_weighted_vcv=False),
        dataclasses.replace(base, update_prior=False),
        dataclasses.replace(
            base, convergence=ConvergenceConfig(max_iterations=1)
        ),
    ):
        assert iteration_timing(
            compile_problem(synthetic_matrix, variant), model
        ) == timing


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
