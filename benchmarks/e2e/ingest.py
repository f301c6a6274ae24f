"""``ingest-live``: writes beside reads.

``kbt ingest --watch`` and the gateway run as subprocesses. Held-out
sites arrive as site-aligned batches, each renamed into the spool whole
and the next only after the previous one is served, while one reader
connection issues the ``serve-zipf`` mix open loop at a fixed rate.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import loadgen
from corpus import Corpus, Scale, generate_sites, model_config, present
from fit import sha256_file
from procs import Proc, spawn_gateway, spawn_ingest
from spans import Tracer

from repro.core.kbt import FittedKBT, KBTEstimator
from repro.core.observation import ObservationMatrix
from repro.ingest.pipeline import InProcessPublisher, IngestPipeline
from repro.ingest.policy import StalenessPolicy
from repro.ingest.stream import SpoolDirectorySource
from repro.io.jsonl import record_to_dict
from repro.serving.manager import StoreManager
from repro.serving.mmap_store import MmapTrustStore

READER_RATE = 200.0
POLL_SECONDS = 0.002
SERVE_DEADLINE_SECONDS = 30.0
MIN_BATCHES = 3
READER_SEQUENCE_LENGTH = 20_000


@dataclass
class Live:
    gateway: Proc
    ingest: Proc
    address: tuple[str, int]
    corpus: Corpus
    fitted: FittedKBT
    artifact: Path
    spool: Path
    plan: loadgen.Plan
    #: per batch: (temp file, final name, a site it introduces, records).
    batches: list[tuple[Path, Path, str, int]]


def write_batch(records, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record_to_dict(record)) + "\n")


def setup(seed: int, scale: Scale, workdir: Path, tracer: Tracer) -> Live:
    with tracer.span("datasets.kv.generate"):
        sites = generate_sites(scale)
    corpus = present(sites, seed, scale, hold_out=True)
    fitted = KBTEstimator(model_config(), min_triples=0).fit(
        ObservationMatrix.from_records(corpus.base_records)
    )
    artifact = workdir / "base.kbt"
    fitted.save(artifact)
    spool = workdir / "spool"
    spool.mkdir()
    batches = []
    for index, records in enumerate(corpus.batches):
        temp = spool / f"batch-{index:03d}.tmp"
        write_batch(records, temp)
        batches.append(
            (temp, temp.with_suffix(".jsonl"), records[0].source.website,
             len(records))
        )
    gateway, address = spawn_gateway(artifact, workdir / "gateway.log")
    try:
        ingest = spawn_ingest(artifact, spool, address, workdir / "ingest.log")
    except BaseException:
        gateway.stop()
        raise
    store = MmapTrustStore.open(artifact)
    websites = sorted(store.websites())
    store.close()
    # No revalidations: the ETag a reader would send goes stale with
    # the first swap.
    plan = loadgen.zipf_plan(websites, None, seed, READER_SEQUENCE_LENGTH, 1)
    return Live(
        gateway, ingest, address, corpus, fitted, artifact, spool, plan,
        batches,
    )


def teardown(live: Live) -> None:
    live.ingest.stop()
    live.gateway.stop()


def append_and_wait(conn, temp: Path, final: Path, site: str, seen: set):
    """Rename one batch into the spool; poll until ``site`` is served
    under an ETag not seen before. Returns (seconds, etag, body)."""
    raw = loadgen.encode_get(f"/score?site={site}")
    start = time.perf_counter()
    os.rename(temp, final)
    while True:
        status, etag, body = conn.exchange(raw)
        now = time.perf_counter()
        if status == 200 and etag not in seen:
            return now - start, etag, body
        if now - start > SERVE_DEADLINE_SECONDS:
            return None, etag, body
        time.sleep(POLL_SECONDS)


def measure(live: Live, seconds: float, smoke: bool, probe) -> dict:
    keep_every = 1 if smoke else 10
    stop = threading.Event()
    reader = loadgen.Sample()
    thread = threading.Thread(
        target=loadgen.run_open_loop,
        args=(live.address, live.plan, READER_RATE, stop, keep_every, reader),
    )
    base_etag = sha256_file(live.artifact).encode()
    seen = {base_etag}
    served = []  # (seconds, etag, body, site) per batch
    factors = []
    failures = []
    prober = loadgen.Connection(live.address)
    started = time.perf_counter()
    thread.start()
    try:
        for index, (temp, final, site, _n) in enumerate(live.batches):
            if (
                index >= MIN_BATCHES
                and time.perf_counter() - started >= seconds
            ):
                break
            before = time.perf_counter()
            took, etag, body = append_and_wait(prober, temp, final, site, seen)
            if took is None:
                failures.append(f"batch {index} not served in time")
                break
            seen.add(etag)
            served.append((took, etag, body, site))
            factors.append(probe.factor(before, time.perf_counter()))
    finally:
        stop.set()
        thread.join()
        prober.close()
    elapsed = time.perf_counter() - started
    appended = len(served) + len(failures)
    rss = live.ingest.peak_rss_mb()

    # What was served must be what ``kbt ingest`` wrote, generation by
    # generation.
    generations = Path(f"{live.artifact}.generations")
    stores = {base_etag: MmapTrustStore.open(live.artifact)}
    for number, (_took, etag, body, site) in enumerate(served, start=1):
        path = generations / f"gen-{number:06d}.kbt"
        if sha256_file(path).encode() != etag:
            failures.append(f"batch {number}: ETag is not gen-{number}'s")
            continue
        want = FittedKBT.load(path).website_scores()[site].score
        if json.loads(body)["score"] != want:
            failures.append(f"batch {number}: served score differs")
        stores[etag] = MmapTrustStore.open(path)
    reader_failures = check_reader(live.plan, reader, stores)
    for store in stores.values():
        store.close()

    latencies = 1e3 * np.asarray(reader.latencies)
    # Every run serves at least MIN_BATCHES, so that generation is the
    # one whose bytes and digest two runs of one seed can be held to.
    pinned = generations / f"gen-{MIN_BATCHES:06d}.kbt"
    ingested = sum(n for _t, _f, _s, n in live.batches[:MIN_BATCHES])
    raw_ms = [1e3 * took for took, _e, _b, _s in served]
    took_ms = [ms / f for ms, f in zip(raw_ms, factors)]
    return {
        "samples": {
            "op_p50_ms": took_ms,
            "op_p99_ms": [float(np.percentile(latencies, 99))],
            "op_rate": [1e3 / ms for ms in took_ms],
            "peak_rss_mb": [rss],
            "artifact_bytes_per_record": [
                pinned.stat().st_size
                / (sum(map(len, live.corpus.base)) + ingested)
            ],
        },
        "raw": {"op_p50_ms": raw_ms, "speed_factor": factors},
        "attempted": appended + len(reader.indices) + reader.dropped,
        "failures": failures + reader_failures,
        "counts": {
            "batches": len(served),
            "append_to_served_max_ms": max(raw_ms, default=0.0),
            "reader_requests": len(reader.indices),
            "reader_rate_per_s": len(reader.indices) / elapsed,
            "reader_p50_ms": float(np.percentile(latencies, 50)),
            "reader_p99_ms": float(np.percentile(latencies, 99)),
            "reader_lateness_p99_ms": 1e3
            * float(np.percentile(reader.lateness, 99)),
            "bodies_checked": len(reader.bodies),
        },
        "digests": {f"generation_{MIN_BATCHES}_sha256": sha256_file(pinned)},
    }


def check_reader(plan, reader: loadgen.Sample, stores: dict) -> list[str]:
    """Every reader response must agree with the generation whose ETag
    it carries — a torn or stale read agrees with none."""
    unknown = [
        f"reader saw unknown ETag {etag[:16]!r}"
        for etag in set(reader.etags) - set(stores)
    ]
    if unknown:
        return unknown
    return loadgen.check_sample(
        plan, reader, lambda position: stores[reader.etags[position]]
    )


# ----------------------------------------------------------------------
# Traced pass: the same chain, run by hand in this process
# ----------------------------------------------------------------------
def trace(live: Live, tracer: Tracer, seconds: float, probe) -> dict:
    workdir = live.artifact.parent
    spool = workdir / "traced-spool"
    spool.mkdir()
    source = SpoolDirectorySource(spool)
    manager = StoreManager(MmapTrustStore.open(live.artifact))
    policy = StalenessPolicy()
    policy.rebaseline(live.fitted.website_scores())
    fitted = live.fitted
    plain = Tracer("ingest-live", enabled=False)
    chains = {True: [], False: []}
    half = len(live.corpus.batches) // 2
    try:
        for index, records in enumerate(live.corpus.batches[:half]):
            # Odd batches run untraced, for the tracing overhead.
            traced = index % 2 == 0
            spans = tracer if traced else plain
            write_batch(records, spool / f"batch-{index:03d}.jsonl")
            path = workdir / f"hand-{index:03d}.kbt"
            start = time.perf_counter()
            with spans.span("ingest-live.chain", rep=index):
                with spans.span("ingest.stream.poll"):
                    polled = source.poll(1_000_000)
                with spans.span("core.kbt.update"):
                    fitted = fitted.update(polled)
                with spans.span("ingest.policy.observe"):
                    policy.observe(fitted.website_scores())
                with spans.span("io.artifact.save"):
                    fitted.save(path)
                with spans.span("serving.manager.swap"):
                    manager.swap(path)
            chains[traced].append(time.perf_counter() - start)
        pipeline = IngestPipeline(
            fitted, workdir / "hand-generations",
            publisher=InProcessPublisher(manager),
        )
        for index, records in enumerate(live.corpus.batches[half:]):
            with tracer.span("ingest.pipeline.process_batch", rep=index):
                pipeline.process_batch(records)
        for rep in range(3):
            with tracer.span("ingest.pipeline.cold_refit", rep=rep):
                KBTEstimator(model_config(), min_triples=0).fit(
                    pipeline.fitted.observations
                )
    finally:
        manager.close()

    def median(name: str) -> float:
        return statistics.median(tracer.self_seconds(name))

    layers = {
        "ingest.stream.poll_ms": 1e3 * median("ingest.stream.poll"),
        "core.kbt.update_ms": 1e3 * median("core.kbt.update"),
        "ingest.policy.observe_ms": 1e3 * median("ingest.policy.observe"),
        "io.artifact.save_s": median("io.artifact.save"),
        "serving.manager.swap_ms": 1e3 * median("serving.manager.swap"),
        "ingest.pipeline.process_batch_ms": 1e3
        * median("ingest.pipeline.process_batch"),
        "ingest.pipeline.cold_refit_ms": 1e3
        * median("ingest.pipeline.cold_refit"),
        "trace_overhead_pct": 100.0
        * (
            statistics.median(chains[True]) / statistics.median(chains[False])
            - 1.0
        ),
    }
    layers["ingest.pipeline.update_vs_refit_ratio"] = (
        layers["core.kbt.update_ms"] / layers["ingest.pipeline.cold_refit_ms"]
    )
    # The live scenario itself, for the reader's tail beside swaps.
    result = measure(live, min(seconds, 4.0), False, probe)
    layers["serve_p99_ms"] = result["counts"]["reader_p99_ms"]
    return layers
