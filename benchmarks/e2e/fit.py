"""``fit-wide`` and ``fit-deep``: the batch path and the iteration path.

Both run in a child process (``python fit.py wide|deep ...``) so that
``ru_maxrss`` is the fit process's own and nothing is warm between
repetitions; the traced pass calls the same functions in-process with a
live tracer.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from corpus import Scale, generate_sites, model_config, present
from procs import child_env
from spans import Tracer

from repro.core.engine_numpy import (
    assemble_result,
    fit_numpy,
    init_params,
    iteration_inputs,
    update_parameters,
    update_parameters_streamed,
)
from repro.core.indexing import compile_problem
from repro.core.kbt import FittedKBT, KBTEstimator
from repro.core.observation import ObservationMatrix
from repro.exec.backends import ProcessBackend, SerialBackend
from repro.exec.checkpoint import (
    config_digest,
    problem_digest,
    save_checkpoint,
)
from repro.exec.driver import fit_sharded
from repro.exec.plan import ShardPlan
from repro.exec.worker import IterationParams
from repro.io.artifact import load_artifact
from repro.io.jsonl import read_records
from repro.io.mmap_layout import export_layout
from repro.serving.mmap_store import MmapTrustStore

#: fit-deep differences two fits of these iteration counts: compile,
#: worker start and result assembly cancel, the rounds between remain.
ITERATIONS_LOW = 20
ITERATIONS_HIGH = 220
MIN_REPETITIONS = 3
STREAM_CHUNK = 4096


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in Path(directory).rglob("*") if p.is_file())


def result_digest(result) -> str:
    """sha256 over every float of a fit, as ``float.hex``: two results
    digest equal iff they are bit-identical."""
    lines = []
    for source in sorted(result.source_accuracy, key=str):
        lines.append(f"A {source} {result.source_accuracy[source].hex()}")
    for extractor in sorted(result.extractor_quality, key=str):
        quality = result.extractor_quality[extractor]
        lines.append(
            f"Q {extractor} {float(quality.precision).hex()} "
            f"{float(quality.recall).hex()} {float(quality.q).hex()}"
        )
    for item in sorted(result.value_posteriors, key=str):
        values = result.value_posteriors[item]
        for value in sorted(values, key=str):
            lines.append(f"V {item} {value} {values[value].hex()}")
    for coord in sorted(result.extraction_posteriors, key=str):
        lines.append(f"X {coord} {result.extraction_posteriors[coord].hex()}")
    for snap in result.history:
        lines.append(
            f"H {snap.iteration} {float(snap.max_accuracy_delta).hex()} "
            f"{float(snap.max_extractor_delta).hex()}"
        )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def setup(seed: int, scale: Scale, workdir: Path, tracer: Tracer) -> Path:
    """Both fit workloads take the corpus as a JSONL file."""
    with tracer.span("datasets.kv.generate"):
        sites = generate_sites(scale)
    jsonl = workdir / "corpus.jsonl"
    present(sites, seed, scale).write_base(jsonl)
    return jsonl


def run_child(*args) -> dict:
    """``python fit.py ARGS`` in a fresh process; its JSON report."""
    done = subprocess.run(
        [sys.executable, __file__, *map(str, args)],
        stdout=subprocess.PIPE,
        env=child_env(),
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


# ----------------------------------------------------------------------
# fit-wide
# ----------------------------------------------------------------------
def wide_repetition(jsonl: Path, artifact: Path, tracer: Tracer, rep: int):
    """JSONL path in -> layout openable: what a ``kbt fit`` user pays."""
    start = time.perf_counter()
    with tracer.span("fit-wide.repetition", rep=rep):
        with tracer.span("io.jsonl.read"):
            records = list(read_records(jsonl))
        with tracer.span("core.observation.build"):
            observations = ObservationMatrix.from_records(records)
        with tracer.span("core.kbt.fit"):
            fitted = KBTEstimator(model_config(), min_triples=5).fit(
                observations
            )
        with tracer.span("io.artifact.save"):
            fitted.save(artifact)
        with tracer.span("serving.mmap_store.open_cold"):
            store = MmapTrustStore.open(artifact)
    seconds = time.perf_counter() - start
    websites = len(store)
    store.close()
    return seconds, len(records), websites, observations


def wide_child(jsonl: Path, artifact: Path) -> dict:
    seconds, records, websites, _obs = wide_repetition(
        jsonl, artifact, Tracer("fit-wide", enabled=False), 0
    )
    return {
        "seconds": seconds,
        "records": records,
        "websites": websites,
        "rss_mb": rss_mb(),
        "artifact_bytes": artifact.stat().st_size,
        "artifact_sha256": sha256_file(artifact),
    }


def measure_wide(jsonl: Path, seconds: float, probe) -> dict:
    workdir = jsonl.parent
    reports, factors = [], []
    deadline = time.perf_counter() + seconds
    while len(reports) < MIN_REPETITIONS or time.perf_counter() < deadline:
        start = time.perf_counter()
        reports.append(
            run_child("wide", jsonl, workdir / f"rep-{len(reports)}.kbt")
        )
        factors.append(probe.factor(start, time.perf_counter()))
    first = reports[0]
    raw = [1e3 * report["seconds"] for report in reports]
    samples = [ms / f for ms, f in zip(raw, factors)]
    return {
        "samples": {
            "op_p50_ms": samples,
            "op_p99_ms": [max(samples)],
            "op_rate": [1e3 * first["records"] / ms for ms in samples],
            "peak_rss_mb": [report["rss_mb"] for report in reports],
            "artifact_bytes_per_record": [
                first["artifact_bytes"] / first["records"]
            ],
        },
        "raw": {"op_p50_ms": raw, "speed_factor": factors},
        "attempted": len(reports),
        "failures": [
            f"repetition {i}: artifact sha256 differs"
            for i, report in enumerate(reports)
            if report["artifact_sha256"] != first["artifact_sha256"]
        ],
        "counts": {
            "records": first["records"],
            "websites_scored": first["websites"],
        },
        "digests": {"artifact_sha256": first["artifact_sha256"]},
    }


def wide_trace(jsonl: Path, workdir: Path, tracer: Tracer, seconds: float):
    """Per-layer numbers behind ``records_to_served_s``."""
    plain = Tracer("fit-wide", enabled=False)
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    rep = 0
    while rep < MIN_REPETITIONS or time.perf_counter() < deadline:
        untraced.append(
            wide_repetition(jsonl, workdir / f"plain-{rep}.kbt", plain, rep)[0]
        )
        took, _records, _sites, observations = wide_repetition(
            jsonl, workdir / f"traced-{rep}.kbt", tracer, rep
        )
        traced.append(took)
        artifact = workdir / f"traced-{rep}.kbt"
        with tracer.span("core.indexing.compile", rep=rep):
            problem = compile_problem(observations, model_config())
        with tracer.span("io.artifact.load", rep=rep):
            load_artifact(artifact)
        with tracer.span("io.mmap_layout.export", rep=rep):
            export_layout(artifact, workdir / f"layout-{rep}")
        with tracer.span("serving.mmap_store.open", rep=rep):
            MmapTrustStore.open(artifact).close()
        rep += 1
    manual_rounds(problem, observations, tracer, rounds=3)
    jsonl_mb = jsonl.stat().st_size / 1e6
    read_s = statistics.median(tracer.self_seconds("io.jsonl.read"))
    layers = {
        "io.jsonl.read_s": read_s,
        "io.jsonl.read_mb_per_s": jsonl_mb / read_s,
        "core.indexing.coords": problem.num_coords,
        "core.indexing.entries": len(problem.entry_coord),
        "io.artifact.bytes": artifact.stat().st_size,
        "io.mmap_layout.bytes": tree_bytes(workdir / f"layout-{rep - 1}"),
        "trace_overhead_pct": 100.0
        * (statistics.median(traced) / statistics.median(untraced) - 1.0),
    }
    for metric, span, scale in [
        ("core.observation.build_s", "core.observation.build", 1.0),
        ("core.kbt.fit_s", "core.kbt.fit", 1.0),
        ("core.indexing.compile_s", "core.indexing.compile", 1.0),
        ("core.engine_numpy.assemble_ms", "core.engine_numpy.assemble", 1e3),
        ("io.artifact.save_s", "io.artifact.save", 1.0),
        ("io.artifact.load_s", "io.artifact.load", 1.0),
        ("io.mmap_layout.export_s", "io.mmap_layout.export", 1.0),
        ("serving.mmap_store.open_ms", "serving.mmap_store.open", 1e3),
    ]:
        layers[metric] = scale * statistics.median(tracer.self_seconds(span))
    return layers


# ----------------------------------------------------------------------
# fit-deep
# ----------------------------------------------------------------------
def deep_config(iterations: int, backend: str = "processes", shards: int = 2):
    return model_config(iterations, backend=backend, num_shards=shards)


def differenced_ms(fit, minimum: int, deadline: float):
    """Per-round milliseconds, ``(T_high - T_low) / rounds`` per pair.

    ``fit(iterations)`` runs one fit and returns its result. Returns the
    samples, each pair's ``(start, end)`` stamps, and the last result.
    """
    samples, stamps, result = [], [], None
    while len(samples) < minimum or time.perf_counter() < deadline:
        start = time.perf_counter()
        fit(ITERATIONS_LOW)
        middle = time.perf_counter()
        result = fit(ITERATIONS_HIGH)
        end = time.perf_counter()
        samples.append(
            1e3
            * ((end - middle) - (middle - start))
            / (ITERATIONS_HIGH - ITERATIONS_LOW)
        )
        stamps.append((start, end))
    return samples, stamps, result


def deep_child(jsonl: Path, artifact: Path, seconds: float) -> dict:
    start = time.perf_counter()
    observations = ObservationMatrix.from_records(read_records(jsonl))
    problem = compile_problem(observations, deep_config(ITERATIONS_HIGH))
    plan = ShardPlan.from_problem(problem, deep_config(ITERATIONS_HIGH), 2)
    prepared = time.perf_counter()

    def fit(iterations):
        return fit_sharded(
            deep_config(iterations), observations, problem=problem, plan=plan
        )

    samples, stamps, result = differenced_ms(
        fit, MIN_REPETITIONS, time.perf_counter() + seconds
    )
    peak = rss_mb()
    reference = fit_sharded(
        deep_config(ITERATIONS_HIGH, "serial", 1), observations, problem=problem
    )
    FittedKBT(reference, observations, model_config(ITERATIONS_HIGH)).save(
        artifact
    )
    return {
        "em_iter_ms": samples,
        "stamps": stamps,
        "prepare_stamps": (start, prepared),
        "records": observations.num_records,
        "rss_mb": peak,
        "result_sha256": result_digest(result),
        "reference_sha256": result_digest(reference),
        "artifact_bytes": artifact.stat().st_size,
    }


def measure_deep(jsonl: Path, seconds: float, probe) -> dict:
    report = run_child("deep", jsonl, jsonl.parent / "deep.kbt", seconds)
    raw = report["em_iter_ms"]
    factors = [probe.factor(*stamp) for stamp in report["stamps"]]
    samples = [ms / f for ms, f in zip(raw, factors)]
    same = report["result_sha256"] == report["reference_sha256"]
    return {
        "samples": {
            "op_p50_ms": samples,
            "op_p99_ms": [max(samples)],
            "op_rate": [1e3 / sample for sample in samples],
            "peak_rss_mb": [report["rss_mb"]],
            "artifact_bytes_per_record": [
                report["artifact_bytes"] / report["records"]
            ],
        },
        "raw": {"op_p50_ms": raw, "speed_factor": factors},
        # Matrix, compile and plan happen in the child but are set-up.
        "extra_setup_stamps": report["prepare_stamps"],
        "attempted": len(samples),
        "failures": []
        if same
        else ["processes x2 result differs from serial x1"] * len(samples),
        "counts": {"records": report["records"]},
        "digests": {"result_sha256": report["result_sha256"]},
    }


def manual_rounds(problem, observations, tracer: Tracer, rounds: int):
    """One EM round taken apart: inputs -> map (serial x1, processes x2)
    -> reduce (whole-array, streamed), as ``fit_sharded`` runs them.

    Every round runs twice, untraced then traced; returns the final
    state and the tracing overhead in percent of an untraced round.
    """
    cfg = deep_config(rounds, "serial", 1)
    with tracer.span("exec.plan.build"):
        plan = ShardPlan.from_problem(problem, cfg, 1)
    plan2 = ShardPlan.from_problem(problem, cfg, 2)
    params = init_params(cfg, problem, None, None, None, None)
    p_correct = np.zeros(problem.num_coords)
    posterior = np.zeros(problem.num_triples)
    plain = Tracer(tracer.workload, enabled=False)
    took = {plain: [], tracer: []}
    sessions = [
        ("serial", SerialBackend(), plan, cfg),
        ("processes", ProcessBackend(), plan2, deep_config(rounds)),
    ]
    for name, backend, source, session_cfg in sessions:
        with tracer.span(f"exec.backends.session_open_{name}"):
            session = backend.open(source, session_cfg).__enter__()
        try:
            for rep in range(2 * rounds):
                spans = tracer if rep % 2 else plain
                start = time.perf_counter()
                with spans.span("core.engine_numpy.iteration_inputs", rep=rep):
                    inputs = iteration_inputs(cfg, problem, params)
                it_params = IterationParams(False, None, *inputs)
                with spans.span(f"exec.backends.map_round_{name}", rep=rep):
                    session.run_iteration(it_params, p_correct, posterior)
                if name == "serial":
                    with spans.span("core.engine_numpy.reduce_streamed", rep=rep):
                        update_parameters_streamed(
                            cfg, problem, _copy(params), p_correct,
                            posterior, STREAM_CHUNK,
                        )
                    with spans.span("core.engine_numpy.reduce", rep=rep):
                        update_parameters(
                            cfg, problem, params, p_correct, posterior
                        )
                    took[spans].append(time.perf_counter() - start)
        finally:
            session.__exit__(None, None, None)
    with tracer.span("core.engine_numpy.assemble"):
        assemble_result(
            problem, observations, p_correct, posterior, params, None, []
        )
    overhead = 100.0 * (
        statistics.median(took[tracer]) / statistics.median(took[plain]) - 1.0
    )
    return params, p_correct, posterior, overhead


def _copy(params):
    return replace(
        params,
        accuracy=params.accuracy.copy(),
        precision=params.precision.copy(),
        recall=params.recall.copy(),
        q_vec=params.q_vec.copy(),
    )


def deep_trace(jsonl: Path, workdir: Path, tracer: Tracer, seconds: float):
    """Per-layer numbers behind ``em_iter_ms`` and the one-fit-loop gate."""
    observations = ObservationMatrix.from_records(read_records(jsonl))
    problem = compile_problem(observations, deep_config(ITERATIONS_HIGH))
    params, p_correct, posterior, overhead = manual_rounds(
        problem, observations, tracer, rounds=20
    )
    cfg = deep_config(1, "serial", 1)
    with tracer.span("exec.checkpoint.save"):
        path = save_checkpoint(
            workdir / "checkpoint",
            iteration=1,
            params=params,
            p_correct=p_correct,
            posterior=posterior,
            priors=np.full(problem.num_coords, cfg.alpha),
            history=[],
            problem_digest=problem_digest(problem),
            config_digest=config_digest(cfg),
        )

    # Three ways to run the same loop, differenced the same way.
    share = time.perf_counter() + seconds / 4
    loops = {
        "core.engine_numpy.fit_iter_ms": lambda n: fit_numpy(
            model_config(n), observations
        ),
        "core.engine_numpy.fit_iter_f32_ms": lambda n: fit_numpy(
            model_config(n, precision="float32"), observations
        ),
        "exec.driver.serial1_iter_ms": lambda n: fit_sharded(
            deep_config(n, "serial", 1), observations, problem=problem
        ),
    }
    layers = {"trace_overhead_pct": overhead}
    for metric, fit in loops.items():
        samples, _stamps, _result = differenced_ms(fit, 2, share)
        layers[metric] = statistics.median(samples)
        share = time.perf_counter() + seconds / 4
    layers["exec.driver.overhead_ratio"] = (
        layers["exec.driver.serial1_iter_ms"]
        / layers["core.engine_numpy.fit_iter_ms"]
    )
    converged = fit_numpy(
        replace(
            model_config(1000),
            convergence=replace(
                model_config().convergence, tolerance=1e-6, max_iterations=1000
            ),
        ),
        observations,
    )
    layers["core.engine_numpy.iterations_to_tol"] = len(converged.history)
    layers["exec.checkpoint.bytes"] = path.stat().st_size
    for metric, span in [
        ("core.engine_numpy.iteration_inputs_ms", "core.engine_numpy.iteration_inputs"),
        ("exec.backends.map_round_serial_ms", "exec.backends.map_round_serial"),
        ("exec.backends.map_round_processes_ms", "exec.backends.map_round_processes"),
        ("core.engine_numpy.reduce_ms", "core.engine_numpy.reduce"),
        ("core.engine_numpy.reduce_streamed_ms", "core.engine_numpy.reduce_streamed"),
        ("exec.plan.build_ms", "exec.plan.build"),
        ("exec.backends.session_open_ms", "exec.backends.session_open_processes"),
        ("exec.checkpoint.save_ms", "exec.checkpoint.save"),
    ]:
        layers[metric] = 1e3 * statistics.median(tracer.self_seconds(span))
    return layers


if __name__ == "__main__":
    mode, jsonl, artifact = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3])
    if mode == "wide":
        report = wide_child(jsonl, artifact)
    else:
        report = deep_child(jsonl, artifact, float(sys.argv[4]))
    print(json.dumps(report))
