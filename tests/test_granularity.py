"""Unit tests for SPLITANDMERGE (Algorithm 2), including Example 4.2."""

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


def refs_for(key, count, tag="t"):
    """``count`` distinct triple refs owned by ``key``."""
    return [
        (key, DataItem(f"{tag}{i}", "p"), f"v{i}") for i in range(count)
    ]


class TestPlanBasics:
    def test_in_range_keys_unchanged(self):
        key = SourceKey(("site", "p", "u"))
        plan = SplitAndMerge(GranularityConfig(2, 10)).plan(
            {key: refs_for(key, 5)}
        )
        assert set(plan.mapping.values()) == {key}

    def test_oversized_key_split_into_buckets(self):
        key = SourceKey(("site",))
        plan = SplitAndMerge(GranularityConfig(2, 10)).plan(
            {key: refs_for(key, 25)}
        )
        finals = set(plan.mapping.values())
        assert len(finals) == 3  # ceil(25 / 10)
        assert all(f.bucket is not None for f in finals)
        sizes = plan.final_sizes()
        assert sorted(sizes.values()) == [8, 8, 9]

    def test_split_partitions_all_triples(self):
        key = SourceKey(("site",))
        refs = refs_for(key, 25)
        plan = SplitAndMerge(GranularityConfig(2, 10)).plan({key: refs})
        assert len(plan.mapping) == 25

    def test_small_keys_merge_to_parent(self):
        keys = [SourceKey(("site", f"p{i}")) for i in range(3)]
        groups = {key: refs_for(key, 2, tag=f"k{i}")
                  for i, key in enumerate(keys)}
        plan = SplitAndMerge(GranularityConfig(5, 100)).plan(groups)
        # Example 4.1: three 2-triple sources merge into <site> with 6.
        assert set(plan.mapping.values()) == {SourceKey(("site",))}
        assert plan.final_sizes()[SourceKey(("site",))] == 6

    def test_top_level_small_key_kept(self):
        key = SourceKey(("site",))
        plan = SplitAndMerge(GranularityConfig(5, 100)).plan(
            {key: refs_for(key, 2)}
        )
        assert set(plan.mapping.values()) == {key}

    def test_merge_small_disabled_keeps_small_keys(self):
        keys = [SourceKey(("site", f"p{i}")) for i in range(3)]
        groups = {key: refs_for(key, 2, tag=f"k{i}")
                  for i, key in enumerate(keys)}
        plan = SplitAndMerge(
            GranularityConfig(5, 100), merge_small=False
        ).plan(groups)
        assert set(plan.mapping.values()) == set(keys)


class TestExample42:
    def test_three_stage_cascade(self):
        """1000 sources <W, Pi, URLi> with one triple each, bounds [5, 500]:
        merge to <W, Pi>, merge again to <W>, split into 2x500."""
        groups = {}
        for i in range(1000):
            key = SourceKey(("W", f"p{i}", f"url{i}"))
            groups[key] = [(key, DataItem(f"s{i}", f"p{i}"), "v")]
        plan = SplitAndMerge(GranularityConfig(5, 500)).plan(groups)
        finals = set(plan.mapping.values())
        assert len(finals) == 2
        assert {f.features for f in finals} == {("W",)}
        assert sorted(plan.final_sizes().values()) == [500, 500]
        # Three worklist rounds: finest, <W, Pi>, <W>.
        assert len(plan.rounds) == 3

    def test_merge_can_cascade_then_stop_in_range(self):
        groups = {}
        for i in range(20):
            key = SourceKey(("W", f"p{i}", f"url{i}"))
            groups[key] = [(key, DataItem(f"s{i}", f"p{i}"), "v")]
        plan = SplitAndMerge(GranularityConfig(5, 500)).plan(groups)
        # 20 triples end up in <W>, within [5, 500]: no split needed.
        assert set(plan.mapping.values()) == {SourceKey(("W",))}


class TestDeterminism:
    def test_same_seed_same_plan(self):
        key = SourceKey(("site",))
        groups = {key: refs_for(key, 50)}
        p1 = SplitAndMerge(GranularityConfig(2, 10), seed=5).plan(groups)
        p2 = SplitAndMerge(GranularityConfig(2, 10), seed=5).plan(groups)
        assert p1.mapping == p2.mapping

    def test_different_seed_different_split(self):
        key = SourceKey(("site",))
        groups = {key: refs_for(key, 50)}
        p1 = SplitAndMerge(GranularityConfig(2, 10), seed=1).plan(groups)
        p2 = SplitAndMerge(GranularityConfig(2, 10), seed=2).plan(groups)
        assert p1.mapping != p2.mapping


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
        out = SplitAndMerge(GranularityConfig(2, 10)).apply(
            matrix, split_extractors=False
        )
        assert set(out.extractors()) == set(matrix.extractors())

    def test_plan_sources_respects_bounds_where_possible(self):
        matrix = self.skewed_matrix()
        plan = SplitAndMerge(GranularityConfig(2, 10)).plan_sources(matrix)
        for size in plan.final_sizes().values():
            assert size <= 10

    def test_unplanned_keys_map_to_themselves(self):
        plan = SplitAndMerge(GranularityConfig(2, 10)).plan({})
        ghost = SourceKey(("ghost",))
        assert plan(ghost, DataItem("s", "p"), "v") == ghost

    def test_split_is_a_function_of_the_matrix(self, kv_small, tmp_path):
        """The same cells split alike however the matrix came to be.

        ``extractor_cells`` lists coordinates in cell order, so a matrix
        rebuilt from its own records — which is what an artifact reload
        does — hands the seeded shuffle the same list. (Bucket *sizes*
        are round-robin and equal either way: compare the cells.)
        """
        from repro.core.kbt import FittedKBT, KBTEstimator

        matrix = ObservationMatrix.from_records(kv_small.campaign.records)
        for extractor in matrix.extractors():
            assert list(matrix.extractor_cells(extractor)) == [
                coord for coord, cell in matrix.cells() if extractor in cell
            ]
        cfg = GranularityConfig(min_size=5, max_size=20)
        assert max(matrix.extractor_sizes().values()) > cfg.max_size

        def relabelled(observations):
            out = SplitAndMerge(cfg, seed=0).apply(observations)
            return {(coord, frozenset(cell)) for coord, cell in out.cells()}

        path = KBTEstimator(engine="numpy").fit(matrix).save(
            tmp_path / "model.kbt"
        )
        expected = relabelled(matrix)
        assert expected == relabelled(
            ObservationMatrix.from_records(matrix.iter_records())
        )
        assert expected == relabelled(FittedKBT.load(path).observations)
