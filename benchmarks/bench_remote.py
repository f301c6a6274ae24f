"""Distributed fit over TCP: clean runs, worker loss, coordinator restart.

The paper's production fit runs on a MapReduce cluster (Table 7); the
``remote`` backend is this repo's multi-host realization — a coordinator
dispatches per-round map steps to ``kbt worker`` processes over TCP and
reduces globally in the driver. This bench runs real worker
*subprocesses* (``python -m repro worker``) against localhost
coordinators and records

* the fault-free serial fit's wall time and bit-exact model digest (the
  baseline every distributed leg is compared against);
* a clean 2-worker distributed fit — wall time plus the wire overhead it
  carries (packets ship once per connection, parameter vectors every
  round);
* a fit in which one worker is hard-killed mid-run (fault plan
  ``kill_worker``, exercised over a real dead TCP connection): its
  shards re-home to the survivor, which re-runs their (pure) tasks;
* a coordinator crash emulated by a checkpointed fit that stops after
  two iterations, followed by a second coordinator with ``resume=True``
  and a fresh worker fleet.

Digest equality is asserted at **every** scale — a distributed fit that
is only bit-identical on large corpora is not bit-identical. Wall times
are recorded for the report but never gated: distributed wall time is
dominated by connection setup, serialization, and the injected faults,
none of which should fail CI on a noisy runner. Stats land in
``benchmarks/results/BENCH_remote.json``; set ``REMOTE_BENCH_SCALE=smoke``
for the reduced CI corpus.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import socket
import subprocess
import sys
import tempfile
import time

import pytest

from _harness import is_smoke, save_result, save_stats
from _outofcore_child import result_digest

from repro.core.config import ConvergenceConfig, MultiLayerConfig
from repro.core.multi_layer import MultiLayerModel
from repro.core.observation import ObservationMatrix
from repro.datasets.kv import KVConfig, iter_kv_record_chunks
from repro.exec.faults import FAULT_PLAN_ENV, FaultPlan
from repro.util.tables import format_table

SMOKE = is_smoke("remote")

WEBSITES = 40 if SMOKE else 250
SEED = 31
#: Four shards over two workers: each worker is home to two shards, so a
#: worker loss re-homes two shards at once onto the survivor.
NUM_SHARDS = 4
NUM_WORKERS = 2
MAX_ITERATIONS = 4

#: Short backoff so injected failures resolve in bench time; the digest
#: contract is invariant to these knobs.
FAST_SUPERVISION = {
    "KBT_RETRY_BACKOFF_S": "0.02",
    "KBT_RETRY_BACKOFF_CAP_S": "0.1",
    "KBT_WORKER_GRACE_S": "1.0",
    "KBT_STRAGGLER_FACTOR": "2.0",
    "KBT_STRAGGLER_MIN_S": "0.2",
}


@contextlib.contextmanager
def _env(mapping: dict[str, str | None]):
    """Temporarily set (value) or unset (None) environment variables."""
    saved = {key: os.environ.get(key) for key in mapping}
    for key, value in mapping.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _free_endpoint() -> str:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"127.0.0.1:{port}"


@contextlib.contextmanager
def _worker_subprocesses(
    endpoint: str, count: int, plan: FaultPlan | None = None
):
    """Real ``python -m repro worker`` processes serving ``endpoint``."""
    src_dir = os.path.dirname(
        os.path.dirname(os.path.abspath(__import__("repro").__file__))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )
    env.update(FAST_SUPERVISION)
    if plan is not None and not plan.is_empty():
        env[FAULT_PLAN_ENV] = plan.to_env()
    else:
        env.pop(FAULT_PLAN_ENV, None)
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--connect", endpoint,
             "--retry-interval", "0.1", "--max-retries", "300"],
            env=env,
        )
        for _ in range(count)
    ]
    try:
        yield procs
    finally:
        for proc in procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)


def _corpus() -> ObservationMatrix:
    cfg = KVConfig(
        num_websites=WEBSITES,
        items_per_predicate=40,
        num_systems=12,
        pages_zipf_exponent=0.9,
        claims_zipf_exponent=0.9,
        max_pages_per_site=20,
        max_claims_per_page=150,
        max_patterns_per_system=60,
        broad_pattern_fraction=0.2,
        narrow_affinity_base=0.004,
        seed=SEED,
    )
    return ObservationMatrix.from_records(
        record
        for chunk in iter_kv_record_chunks(cfg)
        for record in chunk
    )


def _config(**overrides) -> MultiLayerConfig:
    """Fixed-iteration EM (tolerance 0), so every leg runs the same
    rounds and the fault plans' round numbers are predictable."""
    return MultiLayerConfig(
        engine="numpy",
        num_shards=NUM_SHARDS,
        convergence=ConvergenceConfig(
            max_iterations=MAX_ITERATIONS, tolerance=0.0
        ),
        **overrides,
    )


def _remote_config(endpoint: str, **overrides) -> MultiLayerConfig:
    return _config(
        backend="remote",
        remote_endpoint=endpoint,
        num_workers=NUM_WORKERS,
        **overrides,
    )


def _timed_fit(cfg: MultiLayerConfig, observations) -> tuple[str, float]:
    start = time.perf_counter()
    result = MultiLayerModel(cfg).fit(observations)
    return result_digest(result), time.perf_counter() - start


def _remote_fit(
    cfg: MultiLayerConfig,
    observations,
    plan: FaultPlan | None = None,
) -> tuple[str, float]:
    with _worker_subprocesses(
        cfg.remote_endpoint, NUM_WORKERS, plan
    ):
        with _env(dict(FAST_SUPERVISION)):
            return _timed_fit(cfg, observations)


def run_remote_bench() -> tuple[str, dict]:
    observations = _corpus()
    serial_digest, serial_wall = _timed_fit(
        _config(backend="serial"), observations
    )

    legs: dict[str, dict] = {}

    # Clean distributed fit: 2 workers, no faults.
    digest, wall = _remote_fit(
        _remote_config(_free_endpoint()), observations
    )
    legs["remote_clean"] = {
        "wall_s": wall,
        "bit_identical": digest == serial_digest,
    }

    # One worker hard-killed on its round-2 task (a real dead TCP
    # connection, no goodbye): the survivor takes over its shards.
    kill_plan = FaultPlan(kill_worker=((0, 2),))
    digest, wall = _remote_fit(
        _remote_config(_free_endpoint()), observations, kill_plan
    )
    legs["kill_one_worker"] = {
        "wall_s": wall,
        "faults": kill_plan.to_env(),
        "bit_identical": digest == serial_digest,
    }

    # Coordinator restart: fit 1 checkpoints two iterations and exits;
    # fit 2 resumes on a fresh port with a fresh worker fleet.
    with tempfile.TemporaryDirectory(prefix="kbt-remote-ckpt-") as ckdir:
        first = dataclasses.replace(
            _remote_config(_free_endpoint()),
            convergence=ConvergenceConfig(max_iterations=2, tolerance=0.0),
            checkpoint_dir=ckdir,
            checkpoint_every=1,
        )
        start = time.perf_counter()
        _remote_fit(first, observations)
        first_wall = time.perf_counter() - start
        resumed_cfg = dataclasses.replace(
            _remote_config(_free_endpoint()),
            checkpoint_dir=ckdir,
            resume=True,
        )
        resume_digest, resume_wall = _remote_fit(resumed_cfg, observations)
        legs["coordinator_restart_resume"] = {
            "first_wall_s": first_wall,
            "resume_wall_s": resume_wall,
            "bit_identical": resume_digest == serial_digest,
        }

    rows = [
        ["records", float(observations.num_records)],
        ["serial clean fit (s)", serial_wall],
        ["remote clean fit, 2 workers (s)", legs["remote_clean"]["wall_s"]],
        ["1 worker killed, recovered (s)",
         legs["kill_one_worker"]["wall_s"]],
        ["checkpointed first run (s)",
         legs["coordinator_restart_resume"]["first_wall_s"]],
        ["coordinator restart + resume (s)",
         legs["coordinator_restart_resume"]["resume_wall_s"]],
        ["all legs bit-identical",
         1.0 if all(leg["bit_identical"] for leg in legs.values()) else 0.0],
    ]
    text = format_table(
        ["Metric", "Value"],
        rows,
        title=(
            "Distributed fit over TCP vs serial baseline "
            f"({'smoke' if SMOKE else 'full'} corpus, "
            f"{NUM_WORKERS} localhost workers)"
        ),
        float_format="{:.4g}",
    )
    stats = {
        "corpus": {
            "records": observations.num_records,
            "websites": WEBSITES,
            "num_shards": NUM_SHARDS,
            "num_workers": NUM_WORKERS,
            "max_iterations": MAX_ITERATIONS,
        },
        "serial_clean": {"wall_s": serial_wall, "digest": serial_digest},
        **legs,
    }
    return text, stats


def test_bench_remote(benchmark):
    text, stats = benchmark.pedantic(
        run_remote_bench, rounds=1, iterations=1
    )
    save_result("remote", text)
    save_stats("remote", stats, scale="smoke" if SMOKE else "full")
    # The acceptance gates hold at every scale: every distributed leg —
    # clean, worker-killed, coordinator-restarted — must reproduce the
    # serial fit's exact bytes. Timings are reported, never gated.
    for leg in ("remote_clean", "kill_one_worker",
                "coordinator_restart_resume"):
        assert stats[leg]["bit_identical"], (leg, stats[leg])
