"""Property-based tests of SPLITANDMERGE invariants."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GranularityConfig
from repro.core.granularity import SplitAndMerge
from repro.core.types import SourceKey
from test_granularity import final_sizes, plan_sizes


@st.composite
def source_groups(draw):
    """Random finest-granularity sources with their numbers of triples."""
    num_sites = draw(st.integers(1, 4))
    groups = {}
    for s in range(num_sites):
        num_keys = draw(st.integers(1, 6))
        for k in range(num_keys):
            key = SourceKey((f"site{s}", f"p{k % 3}", f"url{k}"))
            groups[key] = draw(st.integers(1, 40))
    return groups


@st.composite
def bounds(draw):
    m = draw(st.integers(1, 6))
    big = draw(st.integers(m * 2, m * 2 + 50))
    return GranularityConfig(min_size=m, max_size=big)


class TestPlanInvariants:
    @given(source_groups(), bounds())
    @settings(max_examples=60, deadline=None)
    def test_every_triple_assigned_exactly_once(self, groups, config):
        plan, _finals = plan_sizes(SplitAndMerge(config), groups)
        assert len(plan.ids) == sum(groups.values())
        assert sorted(set(plan.ids.tolist())) == list(range(len(plan.keys)))

    @given(source_groups(), bounds())
    @settings(max_examples=60, deadline=None)
    def test_no_final_key_exceeds_max(self, groups, config):
        plan, _finals = plan_sizes(SplitAndMerge(config), groups)
        for size in final_sizes(plan).values():
            assert size <= config.max_size

    @given(source_groups(), bounds())
    @settings(max_examples=60, deadline=None)
    def test_small_final_keys_only_at_hierarchy_top_or_after_split(
        self, groups, config
    ):
        """A final key below min_size must be a website-level key (merging
        exhausted the hierarchy) or a split bucket (splits go straight to
        the output)."""
        plan, _finals = plan_sizes(SplitAndMerge(config), groups)
        for key, size in final_sizes(plan).items():
            if size < config.min_size:
                assert key.level == 1 or key.bucket is not None

    @given(source_groups(), bounds())
    @settings(max_examples=60, deadline=None)
    def test_final_keys_are_ancestors_or_buckets(self, groups, config):
        """Every triple's final key must lie on its original key's ancestry
        chain (possibly as a split bucket of an ancestor)."""
        _plan, finals = plan_sizes(SplitAndMerge(config), groups)
        originals = [key for key, size in groups.items() for _ in range(size)]
        for original, final in zip(originals, finals):
            ancestors = []
            probe = original
            while probe is not None:
                ancestors.append(probe.features)
                probe = probe.parent()
            assert final.features in ancestors

    @given(source_groups(), bounds())
    @settings(max_examples=30, deadline=None)
    def test_idempotent_on_own_output(self, groups, config):
        """Re-planning the final grouping must not change it further,
        except for splitting freshly merged oversized keys (which the
        first pass already handled) — i.e. a fixed point."""
        _plan, finals = plan_sizes(SplitAndMerge(config), groups)
        regrouped = Counter(key for key in finals if key.bucket is None)
        _second, refinals = plan_sizes(SplitAndMerge(config), regrouped)
        for size in Counter(refinals).values():
            assert size <= config.max_size
