"""Distributed execution: the wire protocol, the remote backend, faults.

The acceptance bar is the same determinism ladder every other backend
satisfies: a fit distributed over TCP workers is **bit-identical** to
the serial fit for any worker count and any recovery history — dropped
connections, corrupt frames, hard-killed workers, and coordinator
restarts included.

Most tests run workers as in-process threads (:func:`run_worker` is a
plain blocking loop, so a daemon thread is a faithful worker); the
hard-kill test uses real ``kbt worker`` subprocesses because the kill
fault calls ``os._exit``. Every test binds its own ephemeral port.

Worker-index determinism: the coordinator assigns indices 0, 1, ... in
registration order and never reuses them, so connection faults keyed to
``(worker_index, round)`` are deterministic once the initial fleet size
is pinned by ``num_workers``. Round numbering matches the other
backends: round ``t`` is iteration ``t``'s map, and a fit dispatches no
other round.
"""

from __future__ import annotations

import dataclasses
import os
import socket
import subprocess
import sys
import threading
from contextlib import contextmanager

import pytest

pytest.importorskip("numpy")

import numpy as np

from repro.core.config import (
    ConvergenceConfig,
    MultiLayerConfig,
    parse_remote_endpoint,
)
from repro.core.kbt import KBTEstimator
from repro.core.multi_layer import MultiLayerModel
from repro.exec.backends import ExecError
from repro.exec.checkpoint import load_checkpoint
from repro.exec.faults import FAULT_PLAN_ENV, FaultPlan
from repro.exec.protocol import (
    ProtocolError,
    decode_message,
    encode_message,
    recv_message,
    send_message,
)
from repro.exec.remote import CONNECT_TIMEOUT_ENV, run_worker
from repro.io.artifact import config_from_dict, config_to_dict

from test_fault_tolerance import (
    FAST_SUPERVISION,
    assert_identical,
    base_config,
    fit_with,
)


def free_endpoint() -> str:
    """An ephemeral localhost endpoint nothing is listening on yet."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"127.0.0.1:{port}"


@contextmanager
def worker_fleet(endpoint: str, count: int = 2):
    """``count`` in-thread workers serving ``endpoint``.

    Threads start *before* the coordinator binds, which also exercises
    the worker's connect-retry loop on every use. A completed fit sends
    ``stop`` and the loops return; after a failed fit the bounded
    ``max_retries`` ends them once the port stays closed.
    """
    threads = [
        threading.Thread(
            target=run_worker,
            args=(endpoint,),
            kwargs={"retry_interval": 0.05, "max_retries": 400},
            daemon=True,
        )
        for _ in range(count)
    ]
    for thread in threads:
        thread.start()
    yield threads


def set_faults(monkeypatch, plan: FaultPlan) -> None:
    monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_env())
    for key, value in FAST_SUPERVISION.items():
        monkeypatch.setenv(key, value)


def remote_overrides(endpoint: str, workers: int = 2) -> dict:
    return {
        "backend": "remote",
        "remote_endpoint": endpoint,
        "num_workers": workers,
        "num_shards": 4,
    }


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
def test_protocol_round_trip_with_arrays():
    arrays = {
        "a": np.arange(7, dtype=np.float64),
        "b": np.array([[1, 2], [3, 4]], dtype=np.int64),
        "empty": np.zeros(0),
    }
    payload = encode_message("task", {"round": 3, "note": "x"}, arrays)
    kind, meta, decoded = decode_message(payload)
    assert kind == "task"
    assert meta["round"] == 3 and meta["note"] == "x"
    assert set(decoded) == set(arrays)
    for name, array in arrays.items():
        assert decoded[name].dtype == array.dtype
        np.testing.assert_array_equal(decoded[name], array)


def test_protocol_round_trip_without_arrays():
    kind, meta, arrays = decode_message(encode_message("hello"))
    assert kind == "hello" and meta == {} and arrays == {}


def test_protocol_digest_mismatch_is_connection_fatal():
    payload = encode_message("result", {"round": 1}, {"x": np.ones(16)})
    torn = payload[:-1] + bytes([payload[-1] ^ 0xFF])
    with pytest.raises(ProtocolError, match="digest mismatch"):
        decode_message(torn)
    # ProtocolError must read as a dead connection to callers.
    assert issubclass(ProtocolError, ConnectionError)


def test_protocol_truncated_payload():
    payload = encode_message("task", {}, {"x": np.ones(4)})
    with pytest.raises(ProtocolError):
        decode_message(payload[: len(payload) // 2])
    with pytest.raises(ProtocolError, match="truncated"):
        decode_message(b"\x00")


def test_protocol_socket_round_trip_and_eof():
    left, right = socket.socketpair()
    try:
        send_message(left, "task", {"round": 2}, {"v": np.arange(5.0)})
        kind, meta, arrays = recv_message(right)
        assert kind == "task" and meta["round"] == 2
        np.testing.assert_array_equal(arrays["v"], np.arange(5.0))
        # Clean close at a message boundary is EOFError, not a torn frame.
        left.close()
        with pytest.raises(EOFError):
            recv_message(right)
    finally:
        right.close()


def test_protocol_mid_frame_close_is_torn():
    left, right = socket.socketpair()
    try:
        payload = encode_message("task", {}, {"v": np.ones(64)})
        framed = len(payload).to_bytes(8, "big") + payload
        left.sendall(framed[: 8 + len(payload) // 2])
        left.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_message(right)
    finally:
        right.close()


def test_protocol_rejects_implausible_length():
    left, right = socket.socketpair()
    try:
        left.sendall((1 << 50).to_bytes(8, "big"))
        with pytest.raises(ProtocolError, match="implausible"):
            recv_message(right)
    finally:
        left.close()
        right.close()


# ----------------------------------------------------------------------
# Config validation + artifact round trip (satellite)
# ----------------------------------------------------------------------
def test_remote_backend_requires_endpoint():
    with pytest.raises(ValueError, match="remote_endpoint"):
        MultiLayerConfig(engine="numpy", backend="remote")


def test_endpoint_requires_remote_backend():
    with pytest.raises(ValueError, match="remote_endpoint"):
        MultiLayerConfig(
            engine="numpy", backend="serial",
            remote_endpoint="127.0.0.1:9000",
        )


@pytest.mark.parametrize(
    "endpoint",
    ["nohost", "host:", ":1234", "host:abc", "host:0", "host:99999"],
)
def test_malformed_endpoints_rejected(endpoint):
    with pytest.raises(ValueError, match="remote_endpoint"):
        MultiLayerConfig(
            engine="numpy", backend="remote", remote_endpoint=endpoint
        )


def test_parse_remote_endpoint_accepts_ipv6_style():
    assert parse_remote_endpoint("127.0.0.1:80") == ("127.0.0.1", 80)
    assert parse_remote_endpoint("::1:8080") == ("::1", 8080)


def test_num_workers_validation():
    with pytest.raises(ValueError, match="num_workers"):
        MultiLayerConfig(
            engine="numpy", backend="serial", num_workers=2
        )
    with pytest.raises(ValueError, match="num_workers"):
        MultiLayerConfig(
            engine="numpy", backend="remote",
            remote_endpoint="127.0.0.1:9000", num_workers=0,
        )


def test_remote_fields_round_trip_through_artifact_config():
    cfg = MultiLayerConfig(
        engine="numpy",
        backend="remote",
        remote_endpoint="10.0.0.5:7000",
        num_workers=3,
        num_shards=8,
    )
    restored = config_from_dict(config_to_dict(cfg))
    assert restored == cfg
    assert restored.remote_endpoint == "10.0.0.5:7000"
    assert restored.num_workers == 3


def test_estimator_endpoint_upgrades_backend():
    estimator = KBTEstimator(remote_endpoint="127.0.0.1:9000")
    assert estimator._config.backend == "remote"
    assert estimator._config.engine == "numpy"
    assert estimator._config.remote_endpoint == "127.0.0.1:9000"


def test_fault_plan_round_trip_with_connection_kinds():
    plan = FaultPlan(
        drop_connection=((0, 2),), corrupt_frame=((1, 3),)
    )
    parsed = FaultPlan.from_env({FAULT_PLAN_ENV: plan.to_env()})
    assert parsed == plan
    assert not plan.is_empty()
    assert plan.drops_connection(0, 2) and not plan.drops_connection(0, 3)
    assert plan.corrupts_frame(1, 3) and not plan.corrupts_frame(0, 3)


# ----------------------------------------------------------------------
# Bit-identity: clean distributed fits
# ----------------------------------------------------------------------
def test_remote_fit_matches_serial_bit_for_bit(synthetic_matrix):
    config = base_config()
    reference = fit_with(config, synthetic_matrix, backend="serial",
                         num_shards=4)
    endpoint = free_endpoint()
    with worker_fleet(endpoint, count=2):
        remote = fit_with(
            config, synthetic_matrix, **remote_overrides(endpoint)
        )
    assert_identical(reference, remote)


def test_remote_single_worker_matches_serial(synthetic_matrix):
    config = base_config(max_iterations=2)
    reference = fit_with(config, synthetic_matrix, backend="serial",
                         num_shards=3)
    endpoint = free_endpoint()
    with worker_fleet(endpoint, count=1):
        remote = fit_with(
            config,
            synthetic_matrix,
            backend="remote",
            remote_endpoint=endpoint,
            num_workers=1,
            num_shards=3,
        )
    assert_identical(reference, remote)


# ----------------------------------------------------------------------
# Connection faults (tentpole: reuse of the PR 6 supervision machinery)
# ----------------------------------------------------------------------
def test_dropped_connection_recovers_bit_identically(
    synthetic_matrix, monkeypatch
):
    """Worker 0 abruptly drops its connection on round 2; its shards
    re-home to the survivor (which re-runs the lost tasks) and the fit
    matches the fault-free serial run bit for bit."""
    config = base_config()
    reference = fit_with(config, synthetic_matrix, backend="serial",
                         num_shards=4)
    set_faults(monkeypatch, FaultPlan(drop_connection=((0, 2),)))
    endpoint = free_endpoint()
    with worker_fleet(endpoint, count=2):
        remote = fit_with(
            config, synthetic_matrix, **remote_overrides(endpoint)
        )
    assert_identical(reference, remote)


def test_corrupt_frame_condemns_connection_and_recovers(
    synthetic_matrix, monkeypatch
):
    """A result frame with a flipped blob byte arrives digest-mismatched;
    the coordinator condemns the connection (stream offsets are
    untrustworthy after one torn frame) and recovers exactly as for a
    death — still bit-identical."""
    config = base_config()
    reference = fit_with(config, synthetic_matrix, backend="serial",
                         num_shards=4)
    set_faults(monkeypatch, FaultPlan(corrupt_frame=((1, 2),)))
    endpoint = free_endpoint()
    with worker_fleet(endpoint, count=2):
        remote = fit_with(
            config, synthetic_matrix, **remote_overrides(endpoint)
        )
    assert_identical(reference, remote)


def test_corrupt_packet_retries_on_remote_worker(
    synthetic_matrix, monkeypatch
):
    """The shard-level retry faults of PR 6 apply unchanged: a transient
    SpillError acked by a remote worker retries under the same budget."""
    config = base_config()
    reference = fit_with(config, synthetic_matrix, backend="serial",
                         num_shards=4)
    set_faults(monkeypatch, FaultPlan(corrupt_packet=((1, 2, 1),)))
    endpoint = free_endpoint()
    with worker_fleet(endpoint, count=2):
        remote = fit_with(
            config, synthetic_matrix, **remote_overrides(endpoint)
        )
    assert_identical(reference, remote)


def test_straggler_speculation_over_tcp(synthetic_matrix, monkeypatch):
    """A deliberate straggler is speculatively re-dispatched to the other
    worker; first result wins and the bytes do not change."""
    config = base_config()
    reference = fit_with(config, synthetic_matrix, backend="serial",
                         num_shards=4)
    set_faults(monkeypatch, FaultPlan(delay_shard=((0, 3, 1.0),)))
    endpoint = free_endpoint()
    with worker_fleet(endpoint, count=2):
        remote = fit_with(
            config, synthetic_matrix, **remote_overrides(endpoint)
        )
    assert_identical(reference, remote)


def test_killed_worker_subprocess_recovers(
    synthetic_matrix, tmp_path, monkeypatch
):
    """A real ``kbt worker`` subprocess hard-killed mid-fit (os._exit,
    no TCP goodbye): the coordinator notices the dead connection,
    re-homes its shards to the survivor, and finishes bit-identically."""
    config = base_config()
    reference = fit_with(config, synthetic_matrix, backend="serial",
                         num_shards=4)
    endpoint = free_endpoint()
    set_faults(monkeypatch, FaultPlan(kill_worker=((0, 2),)))
    src_dir = os.path.dirname(
        os.path.dirname(os.path.abspath(__import__("repro").__file__))
    )
    env = dict(os.environ)
    env[FAULT_PLAN_ENV] = FaultPlan(kill_worker=((0, 2),)).to_env()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--connect", endpoint,
             "--retry-interval", "0.1", "--max-retries", "100"],
            env=env,
        )
        for _ in range(2)
    ]
    try:
        remote = fit_with(
            config, synthetic_matrix, **remote_overrides(endpoint)
        )
    finally:
        for proc in procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
    assert_identical(reference, remote)
    # One worker died by the fault plan (exit 1), the other was told to
    # stop by the coordinator (exit 0).
    assert sorted(proc.returncode for proc in procs) == [0, 1]


def test_retry_budget_exhaustion_names_worker_address(
    synthetic_matrix, monkeypatch
):
    """Corrupting every attempt of one shard exhausts the retry budget;
    the terminal ExecError carries the shard, the attempt count, and the
    reporting worker's address."""
    config = base_config()
    set_faults(monkeypatch, FaultPlan(corrupt_packet=((0, 2, 99),)))
    monkeypatch.setenv("KBT_MAX_SHARD_ATTEMPTS", "2")
    monkeypatch.setenv("KBT_STRAGGLER_FACTOR", "0")
    endpoint = free_endpoint()
    with worker_fleet(endpoint, count=2):
        with pytest.raises(
            ExecError, match=r"shard 0 map step failed after 2 attempt"
        ) as excinfo:
            fit_with(
                config, synthetic_matrix, **remote_overrides(endpoint)
            )
    assert excinfo.value.shard_index == 0
    assert excinfo.value.attempts == 2
    assert "127.0.0.1:" in str(excinfo.value)  # the worker's address


# ----------------------------------------------------------------------
# Coordinator restart + checkpoint resume
# ----------------------------------------------------------------------
def test_coordinator_restart_resumes_bit_identically(
    synthetic_matrix, tmp_path
):
    """A coordinator that dies between iterations restarts with
    ``resume=True``: the fresh worker fleet rejoins, the driver reloads
    its checkpoint and dispatches the next round, and the finished fit
    is bit-identical to an uninterrupted serial run."""
    config = base_config(max_iterations=5)
    reference = fit_with(config, synthetic_matrix, backend="serial")
    ckdir = tmp_path / "ck"
    endpoint = free_endpoint()

    with worker_fleet(endpoint, count=2):
        interrupted = fit_with(
            base_config(max_iterations=2),
            synthetic_matrix,
            checkpoint_dir=str(ckdir),
            **remote_overrides(endpoint),
        )
    assert interrupted.iterations_run == 2
    assert load_checkpoint(ckdir).iteration == 2

    # "Coordinator restart": a new session on a fresh port, new workers
    # (the old fleet got stop; a crashed coordinator's workers would
    # reconnect on their own — the same next round either way).
    endpoint2 = free_endpoint()
    with worker_fleet(endpoint2, count=2):
        resumed = fit_with(
            config,
            synthetic_matrix,
            checkpoint_dir=str(ckdir),
            resume=True,
            **remote_overrides(endpoint2),
        )
    assert_identical(reference, resumed)


def test_resume_from_serial_checkpoint_under_remote(
    synthetic_matrix, tmp_path
):
    """Execution placement is excluded from the checkpoint config digest:
    a serial checkpoint resumes under the remote backend."""
    config = base_config(max_iterations=4)
    reference = fit_with(config, synthetic_matrix, backend="serial")
    ckdir = tmp_path / "ck"
    fit_with(
        base_config(max_iterations=2), synthetic_matrix,
        backend="serial", checkpoint_dir=str(ckdir),
    )
    endpoint = free_endpoint()
    with worker_fleet(endpoint, count=2):
        resumed = fit_with(
            config,
            synthetic_matrix,
            checkpoint_dir=str(ckdir),
            resume=True,
            **remote_overrides(endpoint),
        )
    assert_identical(reference, resumed)


def test_mismatched_resume_is_refused_before_the_coordinator_listens(
    synthetic_matrix, tmp_path, monkeypatch
):
    """A checkpoint written under another model config is refused right
    after it is loaded: no port is bound and nobody waits for worker
    registrations (with no worker connected that wait would otherwise
    run to the connect timeout before the mismatch surfaced)."""
    import time

    from repro.exec.checkpoint import CheckpointError
    from repro.exec.remote import RemoteBackend

    ckdir = tmp_path / "ck"
    fit_with(
        base_config(max_iterations=2), synthetic_matrix,
        backend="serial", checkpoint_dir=str(ckdir),
    )

    def never_opened(self, source, cfg):
        raise AssertionError("backend opened before checkpoint validation")

    monkeypatch.setattr(RemoteBackend, "open", never_opened)
    monkeypatch.setenv(CONNECT_TIMEOUT_ENV, "30")
    endpoint = free_endpoint()
    start = time.monotonic()
    with pytest.raises(CheckpointError, match="model[ \n]+configuration"):
        fit_with(
            base_config(max_iterations=4, alpha=0.4),
            synthetic_matrix,
            checkpoint_dir=str(ckdir),
            resume=True,
            **remote_overrides(endpoint, workers=1),
        )
    assert time.monotonic() - start < 1.0
    host, port = endpoint.rsplit(":", 1)
    with pytest.raises(OSError):  # nothing ever listened there
        socket.create_connection((host, int(port)), timeout=0.5).close()


# ----------------------------------------------------------------------
# CLI error surfacing (satellite)
# ----------------------------------------------------------------------
def test_cli_no_workers_error_names_endpoint(
    tmp_path, monkeypatch, capsys
):
    """``kbt fit --backend remote`` with no workers listening fails with
    a one-line ``error:`` that names the endpoint and the worker
    command, not a traceback."""
    from repro.cli import main
    from repro.datasets.kv import KVConfig, generate_kv
    from repro.io.jsonl import write_records

    corpus = generate_kv(
        KVConfig(num_websites=10, items_per_predicate=5, num_systems=2,
                 seed=3)
    )
    records = tmp_path / "records.jsonl"
    write_records(corpus.campaign.records, records)
    endpoint = free_endpoint()
    monkeypatch.setenv(CONNECT_TIMEOUT_ENV, "0.3")
    assert main([
        "fit", str(records),
        "--backend", "remote", "--remote-endpoint", endpoint,
        "--output", str(tmp_path / "x.csv"),
    ]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert endpoint in captured.err
    assert "kbt worker --connect" in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "x.csv").exists()


def test_cli_fit_missing_endpoint_is_one_line_error(
    tmp_path, capsys
):
    from repro.cli import main
    from repro.datasets.kv import KVConfig, generate_kv
    from repro.io.jsonl import write_records

    corpus = generate_kv(
        KVConfig(num_websites=6, items_per_predicate=4, num_systems=2,
                 seed=3)
    )
    records = tmp_path / "records.jsonl"
    write_records(corpus.campaign.records, records)
    assert main(["fit", str(records), "--backend", "remote"]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "remote_endpoint" in captured.err


def test_worker_gives_up_after_max_retries(capsys):
    """With nothing listening and a bounded retry budget, the worker
    exits 1 and says what it could not reach."""
    endpoint = free_endpoint()
    assert run_worker(endpoint, retry_interval=0.01, max_retries=3) == 1
    captured = capsys.readouterr()
    assert endpoint in captured.out


# ----------------------------------------------------------------------
# Warm-start updates run distributed too
# ----------------------------------------------------------------------
def test_update_over_remote_backend(synthetic):
    records = list(synthetic.records)
    head, tail = records[: len(records) // 2], records[len(records) // 2:]
    cfg = dataclasses.replace(
        base_config(max_iterations=3), engine="numpy"
    )
    fitted = KBTEstimator(config=cfg).fit(head)
    reference = fitted.update(tail, sweeps=2)
    endpoint = free_endpoint()
    with worker_fleet(endpoint, count=2):
        remote = fitted.update(
            tail, sweeps=2,
            remote_endpoint=endpoint, num_workers=2, num_shards=4,
        )
    assert reference.website_scores().keys() == \
        remote.website_scores().keys()
    for key, score in reference.website_scores().items():
        assert remote.website_scores()[key].score == score.score
