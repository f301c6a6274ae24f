"""``serve-zipf`` and ``serve-uniform``: one gateway, used two ways.

The gateway is a ``kbt serve --gateway`` subprocess over the full-corpus
artifact; the client is a closed loop of ``loadgen.CONNECTIONS``
keep-alive connections. ``serve-zipf`` keeps its working set inside the
gateway's response cache (hit / 304 path); ``serve-uniform`` does not
(lease -> thread-pool hop -> ``handle_route`` -> ``json.dumps`` -> put).
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import loadgen
from corpus import Scale, generate_sites, model_config, present
from procs import Proc, child_env, spawn_gateway
from spans import Tracer

from repro.core.kbt import KBTEstimator
from repro.core.observation import ObservationMatrix
from repro.serving.mmap_store import MmapTrustStore
from repro.serving.routes import handle_route

WARMUP_SECONDS = 1.0
SLICES = 20
#: serve-uniform must be a miss workload. Held at full scale only: the
#: smoke population has fewer single-key targets than the cache has
#: entries, so no honest mix over it misses.
MIN_DISTINCT_TARGETS = 8192
MAX_HIT_RATIO = 0.2
SEQUENCE_LENGTH = 40_000


@dataclass
class Served:
    gateway: Proc
    address: tuple[str, int]
    store: MmapTrustStore
    plan: loadgen.Plan
    artifact: Path
    records: int
    websites: list[str]
    pages: list[tuple[str, str]]


def setup(
    kind: str, seed: int, scale: Scale, workdir: Path, tracer: Tracer
) -> Served:
    with tracer.span("datasets.kv.generate"):
        sites = generate_sites(scale)
    corpus = present(sites, seed, scale)
    records = corpus.base_records
    fitted = KBTEstimator(model_config(), min_triples=0).fit(
        ObservationMatrix.from_records(records)
    )
    artifact = workdir / "served.kbt"
    fitted.save(artifact)
    gateway, address = spawn_gateway(artifact, workdir / "gateway.log")
    try:
        # The gateway exported the layout; this open maps the same files.
        store = MmapTrustStore.open(artifact)
        websites = sorted(store.websites())
        pages = sorted(
            {
                (record.source.website, record.source.features[2])
                for record in records
                if record.source.level >= 3
            }
        )
        pages = [key for key in pages if store.page_json(*key) is not None]
        if kind == "serve-zipf":
            plan = loadgen.zipf_plan(
                websites, store.etag, seed, SEQUENCE_LENGTH,
                loadgen.CONNECTIONS,
            )
        else:
            plan = loadgen.uniform_plan(
                websites, pages, seed, SEQUENCE_LENGTH, loadgen.CONNECTIONS
            )
    except BaseException:
        gateway.stop()
        raise
    return Served(
        gateway, address, store, plan, artifact, len(records), websites, pages
    )


def teardown(served: Served) -> None:
    served.gateway.stop()
    served.store.close()


def slice_metrics(samples, start: float, seconds: float, probe) -> dict:
    """Per-slice req/s, p50 and p99 over ``SLICES`` equal windows, each
    at reference speed (see ``speed``)."""
    ends = np.concatenate([np.asarray(s.ends) for s in samples])
    latencies = np.concatenate([np.asarray(s.latencies) for s in samples])
    width = seconds / SLICES
    out = {"serve_rps": [], "serve_p50_ms": [], "serve_p99_ms": [], "n": [],
           "raw_p50_ms": [], "raw_rps": [], "speed_factor": []}
    for index in range(SLICES):
        lo = start + index * width
        window = latencies[(ends >= lo) & (ends < lo + width)]
        factor = probe.factor(lo, lo + width)
        p50, p99 = (1e3 * float(np.percentile(window, q)) for q in (50, 99))
        out["n"].append(int(window.size))
        out["serve_rps"].append(factor * window.size / width)
        out["serve_p50_ms"].append(p50 / factor)
        out["serve_p99_ms"].append(p99 / factor)
        out["raw_p50_ms"].append(p50)
        out["raw_rps"].append(window.size / width)
        out["speed_factor"].append(factor)
    return out


def issued_order(plan, samples) -> list[int]:
    """Request indices of every connection, merged by completion time."""
    ends = np.concatenate([np.asarray(s.ends) for s in samples])
    indices = np.concatenate([np.asarray(s.indices) for s in samples])
    return indices[np.argsort(ends, kind="stable")].tolist()


def measure(
    kind: str, served: Served, seconds: float, smoke: bool, probe
):
    failures = []
    keep_every = 1 if smoke else 50
    must_miss = kind == "serve-uniform" and not smoke
    if must_miss:
        distinct = len(
            {i for sequence in served.plan.sequences for i in sequence}
        )
        if distinct < MIN_DISTINCT_TARGETS:
            failures.append(f"only {distinct} distinct targets")
    started, samples = loadgen.run_closed_loop(
        served.address, served.plan, WARMUP_SECONDS + seconds, keep_every
    )
    rss = served.gateway.peak_rss_mb()
    slices = slice_metrics(samples, started + WARMUP_SECONDS, seconds, probe)
    hit_ratio = loadgen.lru_hit_ratio(
        served.plan, issued_order(served.plan, samples)
    )
    if must_miss and hit_ratio >= MAX_HIT_RATIO:
        failures.append(f"computed hit ratio {hit_ratio:.3f}")
    for sample in samples:
        failures.extend(
            loadgen.check_sample(served.plan, sample, lambda _p: served.store)
        )
    return {
        "samples": {
            "op_p50_ms": slices["serve_p50_ms"],
            "op_p99_ms": slices["serve_p99_ms"],
            "op_rate": slices["serve_rps"],
            "peak_rss_mb": [rss],
            "artifact_bytes_per_record": [
                served.artifact.stat().st_size / served.records
            ],
        },
        "raw": {
            "op_p50_ms": slices["raw_p50_ms"],
            "op_rate": slices["raw_rps"],
            "speed_factor": slices["speed_factor"],
        },
        "attempted": sum(len(s.indices) + s.dropped for s in samples),
        "failures": failures,
        "counts": {
            "slice_samples_min": min(slices["n"]),
            "bodies_checked": sum(len(s.bodies) for s in samples),
            "serving.gateway.hit_ratio_computed": hit_ratio,
            "connections": len(samples),
        },
        "digests": {
            "artifact_sha256": served.store.etag,
        },
    }


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------
def probe_requests(address, raws: list[bytes], tracer: Tracer, name: str) -> list:
    """One connection, one request at a time; a span per request."""
    conn = loadgen.Connection(address)
    latencies = []
    try:
        for rep, raw in enumerate(raws):
            start = time.perf_counter()
            with tracer.span(name, rep=rep):
                conn.exchange(raw)
            latencies.append(time.perf_counter() - start)
    finally:
        conn.close()
    return latencies


def timed_loop(tracer: Tracer, name: str, call, keys) -> None:
    """One span over a loop of microsecond calls (``count`` = calls)."""
    with tracer.span(name, count=len(keys)):
        for key in keys:
            call(key)


def echo_floor_us(tracer: Tracer, requests: int = 2000) -> float:
    """The generator against a server that does nothing: its own cost."""
    echo = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("loadgen.py")), "--echo"],
        stdout=subprocess.PIPE,
        env=child_env(),
    )
    try:
        port = int(echo.stdout.readline())
        raw = loadgen.encode_get("/score?site=echo")
        latencies = probe_requests(("127.0.0.1", port), [raw] * requests, tracer, "loadgen.floor")
    finally:
        echo.terminate()
        echo.wait()
        echo.stdout.close()
    return 1e6 * statistics.median(latencies)


def trace(
    kind: str, served: Served, tracer: Tracer, seconds: float, probe
) -> dict:
    store, address = served.store, served.address
    sites = served.websites
    score_raws = [loadgen.encode_get(f"/score?site={s}") for s in sites]
    layers = {"loadgen.floor_us": echo_floor_us(tracer)}

    def us(name: str) -> float:
        return 1e6 * statistics.median(tracer.self_seconds(name))

    # The gateway is fresh, so the first pass over distinct targets is
    # all misses and every later one all hits; hit passes alternate
    # untraced and traced for the tracing overhead.
    probe_requests(address, score_raws, tracer, "serving.gateway.miss")
    plain = []
    for _round in range(5):
        plain += probe_requests(address, score_raws, Tracer(kind, False), "")
        probe_requests(address, score_raws, tracer, "serving.gateway.hit")
    traced = tracer.self_seconds("serving.gateway.hit")
    layers["trace_overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(plain) - 1.0
    )
    if kind == "serve-zipf":
        revalidate = [
            loadgen.encode_get(f"/score?site={s}", if_none_match=store.etag)
            for s in sites
        ]
        probe_requests(address, revalidate, tracer, "serving.gateway.not_modified")
        layers["serving.gateway.hit_p50_us"] = us("serving.gateway.hit")
        layers["serving.gateway.not_modified_p50_us"] = us(
            "serving.gateway.not_modified"
        )
    else:
        def route(path, **params):
            status, payload = handle_route(
                store, path, {k: [v] for k, v in params.items()}
            )
            return json.dumps(payload, ensure_ascii=False).encode("utf-8")

        repeat = sites * max(1, 2000 // len(sites))
        eights = [",".join(sites[i : i + 8]) for i in range(len(sites) - 8)]
        timed_loop(tracer, "serving.mmap_store.score", store.score, repeat)
        timed_loop(
            tracer, "serving.mmap_store.page",
            lambda key: store.score_page(*key), served.pages,
        )
        timed_loop(
            tracer, "serving.routes.score",
            lambda site: route("/score", site=site), repeat,
        )
        timed_loop(
            tracer, "serving.routes.breakdown",
            lambda site: route("/breakdown", site=site), repeat,
        )
        timed_loop(
            tracer, "serving.routes.batch8",
            lambda subset: route("/batch", sites=subset), eights,
        )
        body = json.dumps({"sites": sites[:256]}).encode("utf-8")
        probe_requests(
            address, [loadgen.encode_post("/batch", body)] * 200, tracer,
            "serving.gateway.batch_post",
        )
        for metric in ("mmap_store.score", "mmap_store.page", "routes.score",
                       "routes.breakdown", "routes.batch8"):
            layers[f"serving.{metric}_us"] = us(f"serving.{metric}")
        layers["serving.gateway.miss_p50_us"] = us("serving.gateway.miss")
        layers["serving.gateway.miss_overhead_us"] = (
            layers["serving.gateway.miss_p50_us"]
            - layers["serving.routes.score_us"]
        )
        layers["serving.gateway.batch_post_p50_us"] = us(
            "serving.gateway.batch_post"
        )
    # The workload's own traffic, for the hit ratio and the tail.
    result = measure(kind, served, min(seconds, 4.0), False, probe)
    layers["serving.gateway.hit_ratio_computed"] = result["counts"][
        "serving.gateway.hit_ratio_computed"
    ]
    layers["serve_p99_ms"] = statistics.median(result["samples"]["op_p99_ms"])
    return layers
