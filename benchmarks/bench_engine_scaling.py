"""Engine scaling: dict oracle vs array engine wall clock on a 10x KV corpus.

The vectorized engine exists so real corpora stop being loop-bound; this
bench quantifies that on a corpus ten times the shared bench scale (~500K
extraction records vs ~50K). The library's array engine
(``MultiLayerModel.fit``, the "numpy" leg) and the dict oracle it is
tested against (``tests/multi_layer_reference.fit_python``, the "python"
leg) run the identical 5-iteration Algorithm 1 on the same observation
matrix; the array engine must be at least 5x faster end-to-end (including
its compile step) and agree with the oracle's output to 1e-9.

Set ``ENGINE_BENCH_SCALE=smoke`` to run a reduced corpus (CI smoke): only
the numerical-agreement assertions run, since small corpora cannot
amortise the compile step and single-round timings on shared CI runners
are too noisy to gate on.
"""

import dataclasses
import sys
from pathlib import Path

from _harness import gate_timings, is_smoke, save_result, save_stats, timed
from conftest import BENCH_KV_CONFIG, MULTI_LAYER_CONFIG

from repro.core.config import ConvergenceConfig
from repro.core.multi_layer import MultiLayerModel
from repro.datasets.kv import generate_kv
from repro.util.tables import format_table

# The oracle is test code: ``tests/`` is not a package on the bench path.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from multi_layer_reference import fit_python  # noqa: E402

SMOKE = is_smoke("engine")

#: 10x the shared bench corpus (~500K records); smoke runs at ~0.5x.
SCALED_KV_CONFIG = dataclasses.replace(
    BENCH_KV_CONFIG,
    num_websites=200 if SMOKE else 4_000,
    seed=23,
)

#: Fixed-iteration EM so both engines do the same amount of work.
ENGINE_CONFIG = dataclasses.replace(
    MULTI_LAYER_CONFIG,
    convergence=ConvergenceConfig(max_iterations=5, tolerance=0.0),
)

MIN_SPEEDUP = 5.0

#: Window for the streamed-reduce leg: small enough that the scan is
#: genuinely chunked (hundreds of windows on the full corpus), large
#: enough that per-window overhead stays visible rather than dominant.
REDUCE_CHUNK = 4_096

#: The documented precision contract (docs/architecture.md): every score
#: a float32 fit reports stays within this absolute deviation
#: of the float64 reference. Matches FLOAT32_ENVELOPE in
#: tests/test_engine_parity.py.
FLOAT32_ENVELOPE = 1e-3


def _bit_identical(reference, other) -> bool:
    return (
        reference.source_accuracy == other.source_accuracy
        and reference.value_posteriors == other.value_posteriors
        and reference.extraction_posteriors == other.extraction_posteriors
        and reference.extractor_quality == other.extractor_quality
    )


def _max_deviation(reference, other) -> float:
    devs = [
        abs(other.source_accuracy[s] - a)
        for s, a in reference.source_accuracy.items()
    ]
    devs += [
        abs(other.value_posteriors[i][v] - p)
        for i, values in reference.value_posteriors.items()
        for v, p in values.items()
    ]
    return max(devs, default=0.0)


def run_engine_scaling() -> tuple[str, dict]:
    corpus = generate_kv(SCALED_KV_CONFIG)
    observations = corpus.observation()

    elapsed = {}
    results = {}
    for engine, fit in (
        ("python", lambda obs: fit_python(ENGINE_CONFIG, obs)),
        ("numpy", MultiLayerModel(ENGINE_CONFIG).fit),
    ):
        results[engine], elapsed[engine] = timed(fit, observations)

    # Streamed-reduce leg: the reduce (engine_numpy.reduce_statistics)
    # in REDUCE_CHUNK-element windows must produce the one-window scan's
    # exact bytes (determinism-ladder entry 7) at a bounded working set;
    # its wall clock is reported, never gated. Both legs run the same
    # loop (exec.driver.fit_sharded) on one serial shard.
    streamed_result, streamed_s = timed(
        MultiLayerModel(
            dataclasses.replace(
                ENGINE_CONFIG, backend="serial", reduce_chunk=REDUCE_CHUNK
            )
        ).fit,
        observations,
    )
    streamed_identical = _bit_identical(results["numpy"], streamed_result)

    # Float32 leg: the one shard kernel (exec.worker.run_shard_iteration)
    # run in single precision; the deviation from the float64 reference
    # is gated under the documented envelope, its wall clock never.
    float32_result, float32_s = timed(
        MultiLayerModel(
            dataclasses.replace(ENGINE_CONFIG, precision="float32")
        ).fit,
        observations,
    )
    float32_deviation = _max_deviation(results["numpy"], float32_result)

    py, np_ = results["python"], results["numpy"]
    max_accuracy_diff = max(
        (
            abs(py.source_accuracy[s] - np_.source_accuracy[s])
            for s in py.source_accuracy
        ),
        default=0.0,
    )
    max_posterior_diff = max(
        (
            abs(py.value_posteriors[i][v] - np_.value_posteriors[i][v])
            for i in py.value_posteriors
            for v in py.value_posteriors[i]
        ),
        default=0.0,
    )
    speedup = elapsed["python"] / elapsed["numpy"]

    rows = [
        ["records", float(observations.num_records)],
        ["scored cells", float(observations.num_cells)],
        ["sources", float(observations.num_sources)],
        ["extractors", float(observations.num_extractors)],
        ["python wall clock (s)", elapsed["python"]],
        ["numpy wall clock (s)", elapsed["numpy"]],
        ["speedup (x)", speedup],
        ["max |A_w| diff", max_accuracy_diff],
        ["max |p(V)| diff", max_posterior_diff],
        [f"streamed reduce (chunk={REDUCE_CHUNK}) (s)", streamed_s],
        ["streamed bit-identical", float(streamed_identical)],
        ["float32 wall clock (s)", float32_s],
        ["float32 max deviation", float32_deviation],
    ]
    text = format_table(
        ["Metric", "Value"],
        rows,
        title=(
            "Engine scaling: python vs numpy multi-layer inference "
            f"({'smoke' if SMOKE else '10x bench'} corpus, 5 EM iterations)"
        ),
        float_format="{:.4g}",
    )
    stats = {
        "corpus": {
            "records": observations.num_records,
            "scored_cells": observations.num_cells,
            "sources": observations.num_sources,
            "extractors": observations.num_extractors,
        },
        "python_s": elapsed["python"],
        "numpy_s": elapsed["numpy"],
        "speedup": speedup,
        "max_accuracy_diff": max_accuracy_diff,
        "max_posterior_diff": max_posterior_diff,
        "streamed": {
            "reduce_chunk": REDUCE_CHUNK,
            "wall_s": streamed_s,
            "bit_identical": streamed_identical,
        },
        "float32": {
            "precision": "float32",
            "wall_s": float32_s,
            "max_deviation": float32_deviation,
            "envelope": FLOAT32_ENVELOPE,
        },
    }
    return text, stats


def test_bench_engine_scaling(benchmark):
    text, stats = benchmark.pedantic(
        run_engine_scaling, rounds=1, iterations=1
    )
    save_result("engine_scaling", text)
    save_stats("engine", stats, scale="smoke" if SMOKE else "full")
    # Both engines implement the same equations: outputs must agree.
    assert stats["max_accuracy_diff"] < 1e-9
    assert stats["max_posterior_diff"] < 1e-9
    # Digests are always gated, timings never on smoke corpora: the
    # streamed reduce promises the whole scan's exact bytes at any
    # scale, and float32 promises the documented deviation envelope.
    assert stats["streamed"]["bit_identical"]
    assert stats["float32"]["max_deviation"] < FLOAT32_ENVELOPE
    # The point of the array engine: real-corpus throughput. Smoke runs
    # skip the timing gate — single-round timings on small corpora flake.
    if gate_timings("engine"):
        assert stats["speedup"] >= MIN_SPEEDUP
