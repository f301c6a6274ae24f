"""Table 7: relative running time of Normal / Split / Split&Merge.

The multi-layer EM iteration is priced as the four MapReduce jobs of the
paper (I ExtCorr, II TriplePr, III SrcAccu, IV ExtQuality) over a
simulated cluster; a stage's wall clock is the LPT makespan of its reduce
groups, so a mega extractor's group dominates stage IV until splitting
breaks it up. The jobs' record counts and group sizes come from the
compiled problem, so no fit runs: every iteration costs the same.
Times are normalised to one Normal iteration = 1, as in the paper.

Paper values: one iteration of Normal = 1.0 with stage IV at 0.700;
Split cuts the iteration to ~0.34 (stage IV to 0.082, a ~8.8x speedup);
Split&Merge adds preparation overhead but keeps iterations at ~0.33.

Below the table, the preparation this process really ran: the wall time
of each variant's two plans and its relabel (not gated; it varies with
the host, so the saved text does too).
"""

import time

import pytest
from conftest import MULTI_LAYER_CONFIG, save_result

from repro.core.config import GranularityConfig
from repro.core.granularity import SplitAndMerge
from repro.core.indexing import compile_problem
from repro.datasets.kv import KVConfig, generate_kv
from repro.mapreduce.cluster import ClusterCostModel
from repro.mapreduce.mr_multilayer import iteration_timing, preparation_time
from repro.util.tables import format_table

#: A large simulated cluster: stragglers only matter when per-key groups
#: dwarf the balanced per-worker load, which is the paper's regime (mega
#: URLs with >50K triples, patterns with >1M).
COST_MODEL = ClusterCostModel(num_workers=500, per_task_overhead=5.0)
GRANULARITY = GranularityConfig(min_size=5, max_size=300)

#: A corpus with genuine data skew: directory-style sites whose huge pages
#: concentrate thousands of triples into single source / extractor keys.
SKEWED_KV_CONFIG = KVConfig(
    num_websites=80,
    items_per_predicate=500,
    num_systems=8,
    pages_zipf_exponent=0.85,
    claims_zipf_exponent=0.7,
    max_pages_per_site=25,
    max_claims_per_page=2_000,
    seed=7,
)


@pytest.fixture(scope="module")
def skewed_corpus():
    return generate_kv(SKEWED_KV_CONFIG)


def _run_variant(observations, planner):
    """Plan and relabel with ``planner`` (None: Normal), then price one
    MR iteration; returns (iteration timing, prep time, prep wall ms)."""
    prep = 0.0
    obs = observations
    start = time.perf_counter()
    if planner is not None:
        plans = (
            planner.plan_sources(observations),
            planner.plan_extractors(observations),
        )
        obs = observations.relabel(*plans)
        for plan in plans:
            prep += preparation_time(
                plan.rounds, observations.num_records, COST_MODEL
            )
    wall_ms = 1000 * (time.perf_counter() - start)
    prob = compile_problem(obs, MULTI_LAYER_CONFIG)
    return iteration_timing(prob, COST_MODEL), prep, wall_ms


def run_table7(kv_corpus) -> tuple[str, dict]:
    observations = kv_corpus.observation()

    variants = {
        "Normal": None,
        "Split": SplitAndMerge(GRANULARITY, seed=0, merge_small=False),
        "Split&Merge": SplitAndMerge(GRANULARITY, seed=0, merge_small=True),
    }

    timings = {}
    preps = {}
    walls = {}
    for name, planner in variants.items():
        timings[name], preps[name], walls[name] = _run_variant(
            observations, planner
        )

    unit = timings["Normal"].total  # one Normal iteration = 1 unit
    names = list(variants)
    rows = [["Prep. total"] + [preps[n] / unit for n in names]]
    for label, attr in (
        ("I. ExtCorr", "ext_corr"),
        ("II. TriplePr", "triple_pr"),
        ("III. SrcAccu", "src_accu"),
        ("IV. ExtQuality", "ext_quality"),
    ):
        rows.append(
            [label] + [getattr(timings[n], attr) / unit for n in names]
        )
    rows.append(["Iter. total"] + [timings[n].total / unit for n in names])
    rows.append(
        ["Total (5 iters + prep)"]
        + [(preps[n] + 5 * timings[n].total) / unit for n in names]
    )
    text = format_table(
        ["Task", "Normal", "Split", "Split&Merge"],
        rows,
        title=(
            "Table 7: simulated relative running time "
            "(one Normal iteration = 1)"
        ),
        float_format="{:.3f}",
    )
    measured = format_table(
        ["Task", *names],
        [["Prep. wall (ms)", *(walls[n] for n in names)]],
        title="Preparation as run here: plan + relabel wall time (ungated)",
        float_format="{:.1f}",
    )
    ratios = {
        "iter_speedup_split": unit / timings["Split"].total,
        "ext_quality_speedup": (
            timings["Normal"].ext_quality / timings["Split"].ext_quality
        ),
    }
    return f"{text}\n\n{measured}", ratios


def test_bench_table7(benchmark, skewed_corpus):
    text, ratios = benchmark.pedantic(
        run_table7, args=(skewed_corpus,), rounds=1, iterations=1
    )
    save_result("table7_efficiency", text)
    # Splitting must make iterations materially faster (paper: ~3x)...
    assert ratios["iter_speedup_split"] > 1.5
    # ...driven by the extractor-quality stage (paper: ~8.8x).
    assert ratios["ext_quality_speedup"] > 2.0
