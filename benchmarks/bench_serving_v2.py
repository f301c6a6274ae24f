"""Serving benchmark: artifact IO, lookup latency, warm-start onboarding,
the gateway under concurrent clients, and hot swap under load.

The fit -> persist -> serve lifecycle exists so scores can be served and
maintained without refitting, by a gateway (:mod:`repro.serving.gateway`)
built for many concurrent keep-alive clients, bounded resources and
zero-downtime artifact swaps. This bench tracks that path on one
KV-scale corpus and writes ``benchmarks/results/BENCH_serving_v2.json``:

* **artifact** — save/load wall time and on-disk size;
* **query** — in-memory ``TrustStore`` lookup latency: p50/p99
  single-key, and 100-key batches;
* **incremental** — three held-out mainstream websites are folded in
  with ``FittedKBT.update`` and compared against a cold refit of the
  combined corpus: the update must match each new site's score within
  0.02 absolute and cost at least 5x less wall time;
* **gateway** — p50/p99 per-request wall time under concurrent
  keep-alive clients (32 at full scale, 8 at smoke) hammering a mixed
  route set against the gateway + zero-copy ``MmapTrustStore``, then
  the same clients replaying ``If-None-Match`` revalidations (304s with
  no body);
* **hot swap under load** — clients keep hammering while the artifact
  behind the gateway is swapped back and forth between two fits;
  **every** response must be 2xx/304 with a body byte-identical to one
  of the two generations, and **zero** connections may drop.

The accuracy and swap-leg assertions are correctness gates and run at
every scale. ``SERVING_BENCH_SCALE=smoke`` selects the reduced corpus
(CI) and skips the one timing gate, the onboarding speedup: single-round
timings on small corpora and shared runners are too noisy to gate on.
"""

import http.client
import json
import os
import statistics
import threading
import time
from collections import Counter

from _harness import (
    gate_timings,
    is_smoke,
    percentile,
    save_result,
    save_stats,
    timed,
)

from repro.core.config import (
    AbsenceScope,
    ConvergenceConfig,
    MultiLayerConfig,
)
from repro.core.kbt import KBTEstimator
from repro.datasets.kv import KVConfig, generate_kv
from repro.serving.gateway import GatewayThread
from repro.serving.manager import StoreManager
from repro.serving.mmap_store import MmapTrustStore
from repro.serving.routes import handle_route
from repro.serving.store import TrustStore
from repro.util.tables import format_table

SMOKE = is_smoke("serving")

#: High-redundancy KV corpus: stable truth layer, realistic heavy tail.
KV_CONFIG = KVConfig(
    num_websites=600 if SMOKE else 1600,
    items_per_predicate=60 if SMOKE else 80,
    num_systems=16,
    broad_pattern_fraction=0.8,
    bad_system_fraction=0.0625,
    seed=13,
)

#: Acceptance gates for the incremental path.
MAX_NEW_SITE_DIFF = 0.02
MIN_UPDATE_SPEEDUP = 5.0

SINGLE_LOOKUPS = 20_000
BATCH_SIZE = 100
BATCH_ROUNDS = 200

CLIENTS = 8 if SMOKE else 32
REQUESTS_PER_CLIENT = 40 if SMOKE else 150
SWAPS = 4 if SMOKE else 10
GATEWAY_WORKERS = 8


def _model_config(max_iterations: int) -> MultiLayerConfig:
    return MultiLayerConfig(
        absence_scope=AbsenceScope.ACTIVE,
        engine="numpy",
        quality_damping=0.5,
        convergence=ConvergenceConfig(
            max_iterations=max_iterations, tolerance=1e-4
        ),
    )


def _held_sites(counts: Counter) -> set[str]:
    """Three well-supported mainstream sites (~1% of the records)."""
    num_sites = KV_CONFIG.num_websites
    lo, hi = (100, 300) if SMOKE else (300, 600)
    mainstream = [
        site for site in counts
        if int(site[4:8]) >= num_sites // 6 and lo <= counts[site] <= hi
    ]
    return set(sorted(mainstream, key=lambda site: counts[site])[-3:])


def _routes(sites: list[str]) -> list[str]:
    """The mixed request set every client cycles through."""
    picks = [sites[i * len(sites) // 8] for i in range(8)]
    return [
        f"/score?site={picks[0]}",
        f"/score?site={picks[1]}",
        "/batch?sites=" + ",".join(picks[:5]),
        "/top?k=10",
        f"/percentile?site={picks[2]}",
        f"/breakdown?site={picks[3]}",
        f"/score?site={picks[4]}",
        "/healthz",
    ]


def _hammer(address, routes, n_requests, latencies, errors, revalidate=False):
    """One keep-alive client: cycle the route mix, record per-request
    latency; with ``revalidate`` every 4th request replays the last ETag
    as ``If-None-Match`` (the 304 must still count as a full answer)."""
    connection = http.client.HTTPConnection(*address, timeout=30)
    etag = None
    try:
        for i in range(n_requests):
            path = routes[i % len(routes)]
            headers = {}
            if revalidate and etag and i % 4 == 3:
                headers["If-None-Match"] = etag
            start = time.perf_counter_ns()
            connection.request("GET", path, headers=headers)
            response = connection.getresponse()
            response.read()
            latencies.append((time.perf_counter_ns() - start) / 1e6)
            if response.status not in (200, 304):
                errors.append(f"{path}: status {response.status}")
            etag = response.getheader("ETag") or etag
    except Exception as err:  # noqa: BLE001 - a drop is a bench failure
        errors.append(f"dropped: {type(err).__name__}: {err}")
    finally:
        connection.close()


def _measure(address, routes, revalidate=False):
    """CLIENTS concurrent keep-alive clients; returns (latencies, errors,
    elapsed seconds)."""
    latencies: list[float] = []
    errors: list[str] = []
    threads = [
        threading.Thread(
            target=_hammer,
            args=(address, routes, REQUESTS_PER_CLIENT, latencies, errors),
            kwargs={"revalidate": revalidate},
        )
        for _ in range(CLIENTS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, errors, time.perf_counter() - start


def _allowed_bodies(artifacts, probes):
    """Every byte-exact body either artifact generation may serve."""
    allowed: dict[str, set[bytes]] = {}
    for artifact in artifacts:
        store = MmapTrustStore.open(artifact)
        for probe in probes:
            path, _, query = probe.partition("?")
            params = {
                key: [value]
                for key, value in (
                    pair.split("=") for pair in query.split("&") if pair
                )
            }
            _, payload = handle_route(store, path, params)
            body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
            allowed.setdefault(probe, set()).add(body)
    return allowed


def _swap_leg(artifact_a, artifact_b, probes):
    """Swap back and forth under load; returns the stats dict."""
    allowed = _allowed_bodies((artifact_a, artifact_b), probes)
    manager = StoreManager(MmapTrustStore.open(artifact_a))
    gateway = GatewayThread(manager, workers=GATEWAY_WORKERS).start()
    counts = {"2xx": 0, "304": 0, "other": 0, "torn": 0, "dropped": 0}
    lock = threading.Lock()
    stop = threading.Event()
    per_client = max(REQUESTS_PER_CLIENT, 2 * SWAPS)

    def client():
        connection = http.client.HTTPConnection(
            *gateway.address, timeout=30
        )
        etag = None
        try:
            served = 0
            while served < per_client or not stop.is_set():
                probe = probes[served % len(probes)]
                headers = {}
                if etag and served % 5 == 4:
                    headers["If-None-Match"] = etag
                connection.request("GET", probe, headers=headers)
                response = connection.getresponse()
                body = response.read()
                etag = response.getheader("ETag") or etag
                served += 1
                with lock:
                    if response.status == 304:
                        counts["304"] += 1
                    elif 200 <= response.status < 300:
                        counts["2xx"] += 1
                        if body not in allowed[probe]:
                            counts["torn"] += 1
                    else:
                        counts["other"] += 1
        except Exception:  # noqa: BLE001 - a drop is the failure signal
            with lock:
                counts["dropped"] += 1
        finally:
            connection.close()

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    swap_s: list[float] = []
    try:
        for thread in threads:
            thread.start()
        targets = [artifact_b, artifact_a]
        for index in range(SWAPS):
            time.sleep(0.05)
            start = time.perf_counter()
            manager.swap(targets[index % 2])
            swap_s.append(time.perf_counter() - start)
        stop.set()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        stop.set()
        gateway.stop()
    return {
        "swaps": SWAPS,
        "swap_p50_ms": percentile(swap_s, 0.50) * 1e3,
        "swap_max_ms": max(swap_s) * 1e3,
        "responses_2xx": counts["2xx"],
        "responses_304": counts["304"],
        "responses_other": counts["other"],
        "torn_bodies": counts["torn"],
        "dropped_connections": counts["dropped"],
        "final_generation": manager.generation,
    }


def run_serving_bench(tmp_dir: str) -> tuple[str, dict]:
    corpus = generate_kv(KV_CONFIG)
    records = list(corpus.campaign.records)
    counts = Counter(record.source.website for record in records)
    held = _held_sites(counts)
    base = [r for r in records if r.source.website not in held]
    new = [r for r in records if r.source.website in held]

    estimator = KBTEstimator(config=_model_config(8), min_triples=5.0)
    fitted = estimator.fit(base)

    # --- persist + load ------------------------------------------------
    artifact_a = os.path.join(tmp_dir, "serving_a.kbt")
    _, save_s = timed(fitted.save, artifact_a)
    artifact_bytes = os.path.getsize(artifact_a)
    store, load_s = timed(TrustStore.open, artifact_a)

    # --- in-memory query latency ---------------------------------------
    sites = list(store.websites())
    single_us = []
    for i in range(SINGLE_LOOKUPS):
        site = sites[i % len(sites)]
        t0 = time.perf_counter_ns()
        store.score(site)
        single_us.append((time.perf_counter_ns() - t0) / 1_000.0)
    batch_ms = []
    for round_index in range(BATCH_ROUNDS):
        keys = [
            sites[(round_index * 7 + j) % len(sites)]
            for j in range(BATCH_SIZE)
        ]
        t0 = time.perf_counter_ns()
        store.batch(keys)
        batch_ms.append((time.perf_counter_ns() - t0) / 1_000_000.0)

    # --- incremental update vs cold refit -------------------------------
    updated, update_s = timed(fitted.update, new, sweeps=2)
    cold, cold_s = timed(estimator.fit, records)

    warm_scores = updated.website_scores()
    cold_scores = cold.website_scores()
    new_site_diffs = {}
    for site in sorted(held):
        if site in cold_scores and site in warm_scores:
            new_site_diffs[site] = abs(
                warm_scores[site].score - cold_scores[site].score
            )
    speedup = cold_s / update_s
    max_diff = max(new_site_diffs.values(), default=float("nan"))

    # --- gateway, cold then conditional --------------------------------
    # A second fit of the same records with a smaller convergence
    # budget: measurably different scores -> a different ETag, so the
    # swap leg flips between real generations. The route mix asks only
    # for sites both generations score (support near the reporting
    # threshold moves with the posteriors).
    artifact_b = os.path.join(tmp_dir, "serving_b.kbt")
    KBTEstimator(config=_model_config(2), min_triples=5.0).fit(
        base
    ).save(artifact_b)
    generation_b = MmapTrustStore.open(artifact_b)
    routes = _routes([site for site in sites if site in generation_b])
    generation_b.close()
    manager = StoreManager(MmapTrustStore.open(artifact_a))
    gateway = GatewayThread(manager, workers=GATEWAY_WORKERS).start()
    try:
        gateway_lat, gateway_errors, gateway_wall = _measure(
            gateway.address, routes
        )
        conditional_lat, conditional_errors, _ = _measure(
            gateway.address, routes, revalidate=True
        )
    finally:
        gateway.stop()

    # --- hot swap under load (correctness-gated everywhere) ------------
    swap_stats = _swap_leg(artifact_a, artifact_b, routes)

    total = CLIENTS * REQUESTS_PER_CLIENT
    stats = {
        "scale": "smoke" if SMOKE else "full",
        "corpus": {
            "records": len(records),
            "websites": KV_CONFIG.num_websites,
            "scored_websites": len(store),
            "held_out_sites": sorted(held),
            "held_out_records": len(new),
        },
        "artifact": {
            "save_s": save_s,
            "load_s": load_s,
            "size_bytes": artifact_bytes,
        },
        "query": {
            "single_p50_us": percentile(single_us, 0.50),
            "single_p99_us": percentile(single_us, 0.99),
            "batch100_p50_ms": percentile(batch_ms, 0.50),
            "batch100_p99_ms": percentile(batch_ms, 0.99),
            "single_lookups": SINGLE_LOOKUPS,
            "batch_rounds": BATCH_ROUNDS,
        },
        "incremental": {
            "update_s": update_s,
            "cold_refit_s": cold_s,
            "speedup": speedup,
            "new_site_diffs": new_site_diffs,
            "max_new_site_diff": max_diff,
            "sweeps": 2,
        },
        "load": {
            "clients": CLIENTS,
            "requests_per_client": REQUESTS_PER_CLIENT,
            "total_requests_per_leg": total,
            "routes": routes,
        },
        "gateway": {
            "p50_ms": percentile(gateway_lat, 0.50),
            "p99_ms": percentile(gateway_lat, 0.99),
            "throughput_rps": len(gateway_lat) / gateway_wall,
            "errors": gateway_errors[:5],
        },
        "gateway_conditional": {
            "p50_ms": percentile(conditional_lat, 0.50),
            "p99_ms": percentile(conditional_lat, 0.99),
            "errors": conditional_errors[:5],
        },
        "hot_swap": swap_stats,
    }

    rows = [
        ["records", float(len(records))],
        ["scored websites", float(len(store))],
        ["artifact size (KB)", artifact_bytes / 1024.0],
        ["artifact save (s)", save_s],
        ["artifact load (s)", load_s],
        ["single lookup p50 (us)", stats["query"]["single_p50_us"]],
        ["single lookup p99 (us)", stats["query"]["single_p99_us"]],
        ["batch-100 p50 (ms)", stats["query"]["batch100_p50_ms"]],
        ["batch-100 p99 (ms)", stats["query"]["batch100_p99_ms"]],
        ["incremental update (s)", update_s],
        ["cold refit (s)", cold_s],
        ["update speedup (x)", speedup],
        ["max new-site |KBT diff|", max_diff],
        ["mean new-site |KBT diff|",
         statistics.mean(new_site_diffs.values())
         if new_site_diffs else float("nan")],
        ["concurrent clients", float(CLIENTS)],
        ["requests per leg", float(total)],
        ["gateway p50 (ms)", stats["gateway"]["p50_ms"]],
        ["gateway p99 (ms)", stats["gateway"]["p99_ms"]],
        ["gateway throughput (req/s)", stats["gateway"]["throughput_rps"]],
        ["gateway revalidated p50 (ms)",
         stats["gateway_conditional"]["p50_ms"]],
        ["hot swaps under load", float(SWAPS)],
        ["swap p50 (ms)", swap_stats["swap_p50_ms"]],
        ["swap responses 2xx", float(swap_stats["responses_2xx"])],
        ["swap responses 304", float(swap_stats["responses_304"])],
        ["swap responses other", float(swap_stats["responses_other"])],
        ["swap torn bodies", float(swap_stats["torn_bodies"])],
        ["swap dropped connections",
         float(swap_stats["dropped_connections"])],
    ]
    text = format_table(
        ["Metric", "Value"],
        rows,
        title=(
            "Serving: artifact IO, lookup latency, warm-start update, "
            f"gateway under {CLIENTS} keep-alive clients, hot swap "
            f"({'smoke' if SMOKE else 'full'} corpus)"
        ),
        float_format="{:.4g}",
    )
    return text, stats


def test_bench_serving_v2(benchmark, tmp_path):
    text, stats = benchmark.pedantic(
        run_serving_bench, args=(str(tmp_path),), rounds=1, iterations=1
    )
    save_result("serving_v2", text)
    save_stats("serving_v2", stats, scale=stats["scale"])

    # Warm-start onboarding must track the cold refit for every new site.
    assert stats["incremental"]["new_site_diffs"], "no held site was scored"
    assert stats["incremental"]["max_new_site_diff"] <= MAX_NEW_SITE_DIFF
    # The one timing gate, only at full scale: small corpora cannot
    # amortise the fixed per-fit overhead and shared CI runners are too
    # noisy.
    if gate_timings("serving"):
        assert stats["incremental"]["speedup"] >= MIN_UPDATE_SPEEDUP

    # Correctness gates — these hold at EVERY scale, smoke included.
    # The latency legs must complete without a single failed request...
    assert not stats["gateway"]["errors"]
    assert not stats["gateway_conditional"]["errors"]
    # ...and the swap leg is the tentpole guarantee: under concurrent
    # load across repeated hot swaps, every response is 2xx/304, every
    # body is byte-identical to one artifact generation, and no client
    # connection drops. Never timing-gated.
    swap = stats["hot_swap"]
    assert swap["responses_other"] == 0
    assert swap["torn_bodies"] == 0
    assert swap["dropped_connections"] == 0
    assert swap["responses_2xx"] > 0
    assert swap["responses_304"] > 0
    assert swap["final_generation"] == swap["swaps"]
