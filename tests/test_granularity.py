"""Unit tests for SPLITANDMERGE (Algorithm 2), including Example 4.2."""

from collections import Counter

import numpy as np
import pytest

from repro.core.config import GranularityConfig
from repro.core.granularity import SplitAndMerge
from repro.core.observation import ObservationMatrix
from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    SourceKey,
)

from reader_reference import ReferenceSplitAndMerge
from test_observation import cells_of, records_of


def refs_for(key, count, tag="t"):
    """``count`` distinct triple refs owned by ``key``, as the reference
    planner takes them."""
    return [
        (key, DataItem(f"{tag}{i}", "p"), f"v{i}") for i in range(count)
    ]


def plan_sizes(planner, sizes):
    """Plan ``sizes`` (key -> number of refs; the refs are numbered key
    by key): the plan, and each ref's final key."""
    keys = list(sizes)
    group_of = np.repeat(np.arange(len(keys)), list(sizes.values()))
    plan = planner.plan(keys, group_of)
    return plan, [plan.keys[final] for final in plan.ids.tolist()]


def final_sizes(plan):
    """Number of refs assigned to each final key."""
    return Counter(plan.keys[final] for final in plan.ids.tolist())


class TestPlanBasics:
    def test_in_range_keys_unchanged(self):
        key = SourceKey(("site", "p", "u"))
        _plan, finals = plan_sizes(
            SplitAndMerge(GranularityConfig(2, 10)), {key: 5}
        )
        assert set(finals) == {key}

    def test_oversized_key_split_into_buckets(self):
        key = SourceKey(("site",))
        plan, finals = plan_sizes(
            SplitAndMerge(GranularityConfig(2, 10)), {key: 25}
        )
        assert len(set(finals)) == 3  # ceil(25 / 10)
        assert all(f.bucket is not None for f in finals)
        assert sorted(final_sizes(plan).values()) == [8, 8, 9]

    def test_split_partitions_all_triples(self):
        key = SourceKey(("site",))
        plan, _finals = plan_sizes(
            SplitAndMerge(GranularityConfig(2, 10)), {key: 25}
        )
        assert len(plan.ids) == 25
        assert sorted(set(plan.ids.tolist())) == list(range(len(plan.keys)))

    def test_small_keys_merge_to_parent(self):
        keys = [SourceKey(("site", f"p{i}")) for i in range(3)]
        plan, finals = plan_sizes(
            SplitAndMerge(GranularityConfig(5, 100)), dict.fromkeys(keys, 2)
        )
        # Example 4.1: three 2-triple sources merge into <site> with 6.
        assert set(finals) == {SourceKey(("site",))}
        assert final_sizes(plan)[SourceKey(("site",))] == 6

    def test_top_level_small_key_kept(self):
        key = SourceKey(("site",))
        _plan, finals = plan_sizes(
            SplitAndMerge(GranularityConfig(5, 100)), {key: 2}
        )
        assert set(finals) == {key}

    def test_merge_small_disabled_keeps_small_keys(self):
        keys = [SourceKey(("site", f"p{i}")) for i in range(3)]
        _plan, finals = plan_sizes(
            SplitAndMerge(GranularityConfig(5, 100), merge_small=False),
            dict.fromkeys(keys, 2),
        )
        assert set(finals) == set(keys)

    @pytest.mark.parametrize("kind", [SourceKey, ExtractorKey])
    def test_oversized_bucket_kept(self, kind):
        """A bucket is not split again: an oversized one is kept as it
        is, like an undersized key at the top of its hierarchy."""
        key = kind(("site", "p"), bucket=0)
        plan, finals = plan_sizes(
            SplitAndMerge(GranularityConfig(1, 2)), {key: 4}
        )
        assert finals == [key] * 4
        assert plan.rounds == ((4,),)

    def test_key_without_refs_enters_the_first_round(self):
        """Every key of the table is in the worklist, empty or not, as
        in the per-triple reference planner: an empty key merges into
        its parent too, and the rounds show it."""
        keys = [SourceKey(("site", "p")), SourceKey(("site", "q"))]
        planner = SplitAndMerge(GranularityConfig(5, 100))
        plan, finals = plan_sizes(planner, {keys[0]: 3, keys[1]: 0})
        want = ReferenceSplitAndMerge(GranularityConfig(5, 100)).plan(
            {keys[0]: refs_for(keys[0], 3), keys[1]: []}
        )
        assert plan.rounds == want.rounds == ((3, 0), (3,))
        assert finals == [SourceKey(("site",))] * 3
        # A key that ends up owning nothing is not a final key.
        top = [SourceKey(("a",)), SourceKey(("b",))]
        plan, _finals = plan_sizes(planner, {top[0]: 3, top[1]: 0})
        assert plan.keys == top[:1]


class TestExample42:
    def test_three_stage_cascade(self):
        """1000 sources <W, Pi, URLi> with one triple each, bounds [5, 500]:
        merge to <W, Pi>, merge again to <W>, split into 2x500."""
        keys = [SourceKey(("W", f"p{i}", f"url{i}")) for i in range(1000)]
        plan, finals = plan_sizes(
            SplitAndMerge(GranularityConfig(5, 500)), dict.fromkeys(keys, 1)
        )
        assert len(set(finals)) == 2
        assert {f.features for f in finals} == {("W",)}
        assert sorted(final_sizes(plan).values()) == [500, 500]
        # Three worklist rounds: finest, <W, Pi>, <W>.
        assert len(plan.rounds) == 3

    def test_merge_can_cascade_then_stop_in_range(self):
        keys = [SourceKey(("W", f"p{i}", f"url{i}")) for i in range(20)]
        _plan, finals = plan_sizes(
            SplitAndMerge(GranularityConfig(5, 500)), dict.fromkeys(keys, 1)
        )
        # 20 triples end up in <W>, within [5, 500]: no split needed.
        assert set(finals) == {SourceKey(("W",))}


class TestDeterminism:
    def test_same_seed_same_plan(self):
        sizes = {SourceKey(("site",)): 50}
        _p1, f1 = plan_sizes(
            SplitAndMerge(GranularityConfig(2, 10), seed=5), sizes
        )
        _p2, f2 = plan_sizes(
            SplitAndMerge(GranularityConfig(2, 10), seed=5), sizes
        )
        assert f1 == f2

    def test_different_seed_different_split(self):
        sizes = {SourceKey(("site",)): 50}
        _p1, f1 = plan_sizes(
            SplitAndMerge(GranularityConfig(2, 10), seed=1), sizes
        )
        _p2, f2 = plan_sizes(
            SplitAndMerge(GranularityConfig(2, 10), seed=2), sizes
        )
        assert f1 != f2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_split_draws_as_the_per_triple_planner(self, seed):
        """The seeded shuffle and the round-robin deal send every ref to
        the bucket the per-triple reference planner sends it to."""
        key = SourceKey(("site",))
        config = GranularityConfig(2, 10)
        _plan, finals = plan_sizes(SplitAndMerge(config, seed=seed), {key: 25})
        refs = refs_for(key, 25)
        want = ReferenceSplitAndMerge(config, seed=seed).plan({key: refs})
        assert finals == [want.mapping[ref] for ref in refs]


class TestMatrixIntegration:
    @staticmethod
    def skewed_matrix():
        records = []
        # One mega-source with 30 triples; many 1-triple sources.
        for i in range(30):
            records.append(
                ExtractionRecord(
                    extractor=ExtractorKey(("e", "pat", "p", "big.com")),
                    source=SourceKey(("big.com", "p", "big.com/page")),
                    item=DataItem(f"s{i}", "p"),
                    value=f"v{i}",
                )
            )
        for i in range(8):
            records.append(
                ExtractionRecord(
                    extractor=ExtractorKey(("e", "pat", "p", f"tiny{i}.com")),
                    source=SourceKey((f"tiny{i}.com", "p", f"tiny{i}.com/x")),
                    item=DataItem(f"t{i}", "p"),
                    value="v",
                )
            )
        return ObservationMatrix.from_records(records)

    def test_apply_rewrites_sources_and_extractors(self):
        matrix = self.skewed_matrix()
        out = SplitAndMerge(GranularityConfig(2, 10)).apply(matrix)
        sizes = out.source_sizes()
        # The mega source was split into buckets of <= 10.
        assert max(sizes.values()) <= 10
        assert out.num_triples == matrix.num_triples

    def test_apply_only_sources(self):
        matrix = self.skewed_matrix()
        plan = SplitAndMerge(GranularityConfig(2, 10)).plan_sources(matrix)
        out = matrix.relabel(plan)
        assert set(out.extractors()) == set(matrix.extractors())

    def test_plan_sources_respects_bounds_where_possible(self):
        matrix = self.skewed_matrix()
        plan = SplitAndMerge(GranularityConfig(2, 10)).plan_sources(matrix)
        assert len(plan.ids) == matrix.num_cells
        for size in final_sizes(plan).values():
            assert size <= 10

    def test_unplanned_keys_map_to_themselves(self):
        """A side ``relabel`` gets no plan for keeps every key."""
        matrix = self.skewed_matrix()
        planner = SplitAndMerge(GranularityConfig(2, 10))
        out = matrix.relabel(extractors=planner.plan_extractors(matrix))
        assert list(out.sources()) == list(matrix.sources())
        assert out.columns().coords == matrix.columns().coords
        empty = planner.plan([], np.zeros(0, dtype=np.int64))
        assert (empty.keys, len(empty.ids), empty.rounds) == ([], 0, ())

    def test_bucketed_matrix_keys_are_kept(self):
        """A matrix whose keys are already split buckets (records read
        with ``source_bucket`` / ``extractor_bucket``) plans and applies:
        the oversized buckets are kept, not split again."""
        source = SourceKey(("w.example", "pred"), bucket=0)
        extractor = ExtractorKey(("e", "pat"), bucket=1)
        matrix = ObservationMatrix.from_records(
            ExtractionRecord(extractor, source, DataItem(f"s{i}", "p"), "v")
            for i in range(4)
        )
        out = SplitAndMerge(GranularityConfig(1, 2)).apply(matrix)
        assert out.source_sizes() == {source: 4}
        assert out.extractor_sizes() == {extractor: 4}

    def test_split_is_a_function_of_the_matrix(self, kv_small, tmp_path):
        """The same cells split alike however the matrix came to be.

        The planners list each key's triples in cell order, so a matrix
        rebuilt from its own records — which is what an artifact reload
        does — hands the seeded shuffle the same list. (Bucket *sizes*
        are round-robin and equal either way: compare the cells.)
        """
        from repro.core.kbt import FittedKBT, KBTEstimator

        matrix = ObservationMatrix.from_records(kv_small.campaign.records)
        cfg = GranularityConfig(min_size=5, max_size=20)
        assert max(matrix.extractor_sizes().values()) > cfg.max_size

        def relabelled(observations):
            out = SplitAndMerge(cfg, seed=0).apply(observations)
            return {(coord, frozenset(cell)) for coord, cell in cells_of(out)}

        path = KBTEstimator().fit(matrix).save(
            tmp_path / "model.kbt"
        )
        expected = relabelled(matrix)
        assert expected == relabelled(
            ObservationMatrix.from_records(records_of(matrix))
        )
        assert expected == relabelled(FittedKBT.load(path).observations)
