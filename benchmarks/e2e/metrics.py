"""The benchmark's names: workloads, end-to-end metrics, layers.

``BENCHMARK.json`` at the repo root is this table in the driver's
format (``test_selfcheck`` holds the two equal). Every workload reports
every end-to-end metric, so the gated names are generic; ``ALIASES``
gives what each one is on each workload.
"""

from __future__ import annotations

RUN_SECONDS = 10

WORKLOADS = {
    "fit-wide": (
        "cold batch path JSONL -> matrix -> 5-iteration fit -> artifact "
        "-> serving layout: I/O, matrix, artifact and layout do ~90% of "
        "the work, the EM loop a few percent"
    ),
    "fit-deep": (
        "iteration path: (T220 - T20)/200 on processes x2 cancels "
        "compile, worker start and assembly, so only per-round "
        "map/reduce/comms move it; fit-wide's layers do nothing here"
    ),
    "serve-zipf": (
        "gateway cache-hit/304 path: Zipf(1.1) keys fit the 1024-entry "
        "response cache, so no pool hop and no store call"
    ),
    "serve-uniform": (
        "same gateway, miss path: mostly never-repeated targets, so "
        "lease -> pool hop -> handle_route -> json.dumps -> cache put; "
        "a cache change must not show here, a miss-path change must"
    ),
    "ingest-live": (
        "writes beside reads: update -> save -> layout export -> hot "
        "swap under a 200 req/s open-loop reader, so a swap gain that "
        "stalls reads (or the reverse) shows in one place"
    ),
}

#: name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "op_rate": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "artifact_bytes_per_record": ("bytes", "lower", 0.05),
}

#: Reported beside the gated metrics, never gated: name -> unit.
UNGATED = {"op_p99_ms": "ms"}


def unit_of(metric: str) -> str:
    return END_TO_END[metric][0] if metric in END_TO_END else UNGATED[metric]


#: What the generic end-to-end names are on each workload.
ALIASES = {
    "fit-wide": {
        "op_p50_ms": "records_to_served_s (as ms): JSONL path in -> layout openable, median repetition",
        "op_rate": "records/s through that path",
    },
    "fit-deep": {
        "op_p50_ms": "em_iter_ms: one EM round, processes x2, median pair",
        "op_rate": "EM rounds/s (1000 / em_iter_ms)",
    },
    "serve-zipf": {
        "op_p50_ms": "serve_p50_ms: median of per-slice p50",
        "op_rate": "serve_rps: completed req/s, median of slices",
    },
    "serve-uniform": {
        "op_p50_ms": "serve_p50_ms: median of per-slice p50",
        "op_rate": "serve_rps: completed req/s, median of slices",
    },
    "ingest-live": {
        "op_p50_ms": "append_to_served_p50_ms: batch rename -> first 200 under a new ETag",
        "op_rate": "batches served per second of append-to-served time",
    },
}

#: name -> (unit, better); reported by the traced pass, 0 on a workload
#: whose traced pass does not touch the layer.
PER_LAYER = {
    "datasets.kv.generate_s": ("s", "lower"),
    "trace_overhead_pct": ("%", "lower"),
    # -> records_to_served_s on fit-wide
    "io.jsonl.read_s": ("s", "lower"),
    "io.jsonl.read_mb_per_s": ("MB/s", "higher"),
    "core.observation.build_s": ("s", "lower"),
    "core.kbt.fit_s": ("s", "lower"),
    "core.indexing.compile_s": ("s", "lower"),
    "core.indexing.coords": ("count", "lower"),
    "core.indexing.entries": ("count", "lower"),
    "core.engine_numpy.assemble_ms": ("ms", "lower"),
    "io.artifact.save_s": ("s", "lower"),
    "io.artifact.load_s": ("s", "lower"),
    "io.artifact.bytes": ("bytes", "lower"),
    "io.mmap_layout.export_s": ("s", "lower"),
    "io.mmap_layout.bytes": ("bytes", "lower"),
    "serving.mmap_store.open_ms": ("ms", "lower"),
    # -> em_iter_ms on fit-deep
    "core.engine_numpy.iteration_inputs_ms": ("ms", "lower"),
    "exec.backends.map_round_serial_ms": ("ms", "lower"),
    "exec.backends.map_round_processes_ms": ("ms", "lower"),
    "core.engine_numpy.reduce_ms": ("ms", "lower"),
    "core.engine_numpy.reduce_streamed_ms": ("ms", "lower"),
    "exec.plan.build_ms": ("ms", "lower"),
    "exec.backends.session_open_ms": ("ms", "lower"),
    "exec.checkpoint.save_ms": ("ms", "lower"),
    "exec.checkpoint.bytes": ("bytes", "lower"),
    "core.engine_numpy.fit_iter_ms": ("ms", "lower"),
    "core.engine_numpy.fit_iter_f32_ms": ("ms", "lower"),
    "exec.driver.serial1_iter_ms": ("ms", "lower"),
    "exec.driver.overhead_ratio": ("ratio", "lower"),
    "core.engine_numpy.iterations_to_tol": ("count", "lower"),
    # -> serve_rps / serve_p50_ms on serve-uniform
    "serving.mmap_store.score_us": ("us", "lower"),
    "serving.mmap_store.page_us": ("us", "lower"),
    "serving.routes.score_us": ("us", "lower"),
    "serving.routes.breakdown_us": ("us", "lower"),
    "serving.routes.batch8_us": ("us", "lower"),
    "serving.gateway.miss_p50_us": ("us", "lower"),
    "serving.gateway.miss_overhead_us": ("us", "lower"),
    "serving.gateway.batch_post_p50_us": ("us", "lower"),
    # -> the same on serve-zipf
    "serving.gateway.hit_p50_us": ("us", "lower"),
    "serving.gateway.not_modified_p50_us": ("us", "lower"),
    # both serve workloads, and the reader on ingest-live
    "serving.gateway.hit_ratio_computed": ("ratio", "higher"),
    "loadgen.floor_us": ("us", "lower"),
    "serve_p99_ms": ("ms", "lower"),
    # -> append_to_served_p50_ms on ingest-live
    "ingest.stream.poll_ms": ("ms", "lower"),
    "core.kbt.update_ms": ("ms", "lower"),
    "ingest.policy.observe_ms": ("ms", "lower"),
    "serving.manager.swap_ms": ("ms", "lower"),
    "ingest.pipeline.process_batch_ms": ("ms", "lower"),
    "ingest.pipeline.cold_refit_ms": ("ms", "lower"),
    "ingest.pipeline.update_vs_refit_ratio": ("ratio", "lower"),
}


def benchmark_json() -> dict:
    """``BENCHMARK.json``, from the tables above."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }
