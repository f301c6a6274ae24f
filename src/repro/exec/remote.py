"""Distributed execution over TCP: coordinator + remote shard workers.

The ``remote`` backend is the multi-host sibling of the supervised
``processes`` backend (:mod:`repro.exec.backends`), shaped like the
paper's production deployment (Table 7): a MapReduce-style master — the
**coordinator**, living inside the driver process — dispatches the
per-round C/V map steps to **workers** that registered over TCP, and
runs the reduce itself over globally re-assembled arrays. Workers are
started out-of-band (``kbt worker --connect HOST:PORT``, any mix of
local and remote machines) and connect *to* the coordinator, so only
the coordinator needs a reachable address.

Wire format: :mod:`repro.exec.protocol` — length-prefixed frames whose
arrays travel as raw ``.npy`` byte strings (the PR 5 spill idiom as a
wire payload) under a JSON manifest with a SHA-256 blob digest. Shard
packets ship to a worker at most once per connection and are cached
there; per-iteration parameter vectors ship every round, and once the
driver re-estimates priors (Eq. 26) each task also carries its shard's
slice of them — everything a pure map task reads travels in its frame.

Determinism: the coordinator scatters each winning result into the
global output arrays in engine array order and the reduce never leaves
the driver, so a remote fit is **bit-identical** to the serial backend
for any worker count, any placement, and any recovery history — the
same ladder entry every other backend satisfies.

The coordinator is supervised by the round engine in
:mod:`repro.exec.supervisor` (retry budget and backoff, re-homing,
straggler speculation, the same environment knobs as ``processes``);
this module contributes only its transport:

* Liveness is the connection. A reader thread per worker turns result
  frames into ``ack`` events and any break into a ``dead`` event; a
  frame whose blob digest mismatches
  (:class:`~repro.exec.protocol.ProtocolError`) condemns the whole
  connection — after one torn frame the stream offsets are
  untrustworthy — and recovers exactly like a death.
* A lost worker's shards re-home to the least-loaded *survivor* (new
  capacity only arrives when a worker connects); with no survivor the
  coordinator waits up to ``KBT_REMOTE_CONNECT_TIMEOUT_S`` for a join.
* Results carry the output slices and the coordinator scatters them, so
  the round fence is a no-op: a slow loser's stale result is dropped by
  round/attempt matching and can never write.
* Workers that lose their connection re-enter a reconnect loop (fresh
  index on re-registration), which is also what lets a *coordinator*
  restart with ``resume=True`` pick up its worker fleet again: the
  driver reloads its checkpoint, the workers rejoin, and the next round
  is dispatched like any other.

Deterministic fault injection (:mod:`repro.exec.faults`) extends to the
connection level: ``drop_connection`` makes a worker abruptly close its
socket on a given round's task, ``corrupt_frame`` makes it flip result
bytes after digesting — both keyed to worker indices, which the
coordinator assigns monotonically and never reuses.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time

import numpy as np

from repro.core.config import MultiLayerConfig, parse_remote_endpoint
from repro.exec.backends import ShardSource
from repro.exec.faults import FaultPlan
from repro.exec.plan import Shard
from repro.exec.protocol import (
    ProtocolError,
    encode_message,
    recv_message,
    send_frame,
    send_message,
)
from repro.exec.spill import SpillError, _SHARD_ARRAY_FIELDS
from repro.exec.supervisor import (
    ExecError,
    _POLL_S,
    _Round,
    _SupervisedSession,
    env_number,
)
from repro.exec.worker import (
    IterationParams,
    _describe_error,
    execute_task,
    task_params,
)

#: How long the coordinator waits for the initial ``num_workers``
#: registrations (and, mid-fit, for any worker at all to be connected)
#: before giving up with an :class:`ExecError`.
CONNECT_TIMEOUT_ENV = "KBT_REMOTE_CONNECT_TIMEOUT_S"
_DEFAULT_CONNECT_TIMEOUT_S = 60.0


def _connect_timeout_s() -> float:
    return env_number(CONNECT_TIMEOUT_ENV, _DEFAULT_CONNECT_TIMEOUT_S)


# ----------------------------------------------------------------------
# Worker side (`kbt worker --connect HOST:PORT`)
# ----------------------------------------------------------------------
def run_worker(
    endpoint: str,
    retry_interval: float = 1.0,
    max_retries: int | None = None,
) -> int:
    """Serve map steps for the coordinator at ``endpoint``; returns an
    exit code.

    The worker connects, registers (``hello`` -> ``welcome``, which
    assigns its index and carries the model config), then executes task
    messages until the coordinator sends ``stop`` (exit 0). A lost
    connection — the coordinator crashed, restarted, or the network
    hiccuped — is not fatal: the worker sleeps ``retry_interval``
    seconds and reconnects, re-registering under a fresh index with
    an empty packet cache (the coordinator re-ships packets on demand).
    ``max_retries`` bounds *consecutive* failed connection
    attempts (None: retry forever); any successful registration resets
    the count.
    """
    host, port = parse_remote_endpoint(endpoint)
    faults = FaultPlan.from_env()
    failures = 0
    while True:
        try:
            sock = socket.create_connection((host, port))
        except OSError as err:
            failures += 1
            if max_retries is not None and failures > max_retries:
                print(
                    f"kbt worker: cannot reach coordinator at {endpoint} "
                    f"after {failures} attempt(s): {err}"
                )
                return 1
            time.sleep(retry_interval)
            continue
        failures = 0
        try:
            stopped = _serve_connection(sock, faults)
        finally:
            try:
                sock.close()
            except OSError:
                pass
        if stopped:
            return 0
        time.sleep(retry_interval)


def _serve_connection(sock: socket.socket, faults: FaultPlan) -> bool:
    """One registration's task loop; True iff the coordinator said stop."""
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        send_message(sock, "hello")
        kind, meta, _ = recv_message(sock)
        if kind != "welcome":
            return False
        worker_index = int(meta["worker_index"])
        from repro.io.artifact import config_from_dict

        cfg = config_from_dict(meta["config"])
        packets: dict[int, Shard] = {}
        while True:
            kind, meta, arrays = recv_message(sock)
            if kind == "stop":
                return True
            if kind != "task":
                return False
            round_id = int(meta["round"])
            if faults.should_kill(worker_index, round_id):
                os._exit(1)
            if faults.drops_connection(worker_index, round_id):
                # Abrupt close mid-protocol: the coordinator sees a dead
                # connection; this worker reconnects under a new index,
                # so the fault fires exactly once.
                sock.close()
                return False
            reply_meta, reply_arrays = _task_reply(
                cfg, meta, arrays, packets, faults
            )
            payload = encode_message("result", reply_meta, reply_arrays)
            if faults.corrupts_frame(worker_index, round_id):
                # Flip the last blob byte *after* the digest was
                # computed: the frame arrives well-formed but fails
                # verification, which must condemn the connection.
                payload = payload[:-1] + bytes([payload[-1] ^ 0xFF])
            send_frame(sock, payload)
    except (EOFError, ProtocolError, OSError):
        return False


def _task_reply(
    cfg: MultiLayerConfig,
    meta: dict,
    arrays: dict[str, np.ndarray],
    packets: dict[int, Shard],
    faults: FaultPlan,
) -> tuple[dict, dict[str, np.ndarray]]:
    """Task frame in, result frame out: inputs and outputs travel as
    frame arrays around :func:`~repro.exec.worker.execute_task`."""
    round_id = int(meta["round"])
    shard_index = int(meta["shard"])
    attempt = int(meta["attempt"])
    reply: dict = {
        "round": round_id,
        "shard": shard_index,
        "attempt": attempt,
        "error": None,
    }
    try:
        shard = packets.get(shard_index)
        if shard is None:
            shard = _unpack_shard(meta, arrays)
            if shard is None:
                raise SpillError(
                    f"task for shard {shard_index} arrived without a "
                    "packet and none is cached on this worker"
                )
            packets[shard_index] = shard
        params = task_params(
            meta["base_scalar"], lambda name: arrays["param." + name]
        )
        p_correct, posterior = execute_task(
            cfg,
            shard,
            params,
            arrays.get("param.priors"),  # absent: cfg.alpha everywhere
            faults,
            round_id,
            attempt,
        )
    except Exception as exc:  # reported to the coordinator, never fatal
        reply["error"] = _describe_error(exc)
        return reply, {}
    return reply, {"p_correct": p_correct, "posterior": posterior}


def _unpack_shard(
    meta: dict, arrays: dict[str, np.ndarray]
) -> Shard | None:
    packet = meta.get("packet")
    if packet is None:
        return None
    kwargs: dict = {
        "index": int(packet["index"]),
        "triple_lo": int(packet["triple_lo"]),
        "triple_hi": int(packet["triple_hi"]),
    }
    for name in _SHARD_ARRAY_FIELDS:
        kwargs[name] = arrays.get(f"packet.{name}")
    return Shard(**kwargs)


def _pack_shard(shard: Shard) -> tuple[dict, dict[str, np.ndarray]]:
    """The (meta entry, array segments) that ship a packet to a worker."""
    meta = {
        "index": int(shard.index),
        "triple_lo": int(shard.triple_lo),
        "triple_hi": int(shard.triple_hi),
    }
    arrays = {}
    for name in _SHARD_ARRAY_FIELDS:
        value = getattr(shard, name)
        if value is not None:
            arrays[f"packet.{name}"] = value
    return meta, arrays


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
class _RemoteWorker:
    """Coordinator-side record of one registered worker connection."""

    __slots__ = ("index", "sock", "address", "alive", "shipped", "send_lock")

    def __init__(self, index: int, sock: socket.socket, address: str) -> None:
        self.index = index
        self.sock = sock
        self.address = address
        self.alive = True
        #: Shard indices whose packet this connection already received.
        self.shipped: set[int] = set()
        self.send_lock = threading.Lock()

    def send(self, kind: str, meta: dict, arrays: dict) -> None:
        with self.send_lock:
            send_message(self.sock, kind, meta, arrays)

    def close(self) -> None:
        self.alive = False
        try:
            self.sock.close()
        except OSError:
            pass


class _RemoteSession(_SupervisedSession):
    """The coordinator: accept registrations, carry tasks and results
    over TCP — the distributed transport of the supervised round engine
    (what that forces to differ from ``processes`` is listed in the
    module docstring)."""

    def __init__(self, source: ShardSource, cfg: MultiLayerConfig) -> None:
        super().__init__(source, cfg)
        self._endpoint = cfg.remote_endpoint
        self._num_workers = cfg.num_workers or 1
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._readers: dict[int, threading.Thread] = {}
        self._workers: dict[int, _RemoteWorker] = {}
        self._workers_lock = threading.Lock()
        self._next_worker = 0
        self._events: queue.Queue = queue.Queue()
        self._closing = False
        self._config_payload: dict | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "_RemoteSession":
        from repro.io.artifact import config_to_dict

        self._config_payload = config_to_dict(self._cfg)
        host, port = parse_remote_endpoint(self._endpoint)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
            )
            listener.bind((host, port))
            listener.listen()
            listener.settimeout(_POLL_S)
            self._listener = listener
            self._accept_thread = threading.Thread(
                target=self._accept_loop, daemon=True,
                name="kbt-remote-accept",
            )
            self._accept_thread.start()
            self._await_workers(self._num_workers)
            self._assign_homes()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self._closing = True
        with self._workers_lock:
            workers = list(self._workers.values())
        for worker in workers:
            if worker.alive:
                try:
                    worker.send("stop", {}, {})
                except (OSError, ProtocolError):
                    pass
            worker.close()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=self._sup.grace_s)
            self._accept_thread = None
        for thread in self._readers.values():
            thread.join(timeout=self._sup.grace_s)
        self._readers.clear()

    def _accept_loop(self) -> None:
        """Register connecting workers; one reader thread per worker."""
        while not self._closing:
            try:
                conn, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                conn.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
                kind, _, _ = recv_message(conn)
                if kind != "hello":
                    conn.close()
                    continue
                with self._workers_lock:
                    index = self._next_worker
                    self._next_worker += 1
                    worker = _RemoteWorker(
                        index, conn, f"{addr[0]}:{addr[1]}"
                    )
                    self._workers[index] = worker
                worker.send(
                    "welcome",
                    {
                        "worker_index": index,
                        "config": self._config_payload,
                    },
                    {},
                )
            except (EOFError, ProtocolError, OSError):
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            reader = threading.Thread(
                target=self._reader_loop, args=(worker,), daemon=True,
                name=f"kbt-remote-reader-{index}",
            )
            self._readers[index] = reader
            reader.start()
            self._events.put(("join", worker.index))

    def _reader_loop(self, worker: _RemoteWorker) -> None:
        """Push one ``ack`` event per received result; ``dead`` on any
        break.

        A digest mismatch (:class:`ProtocolError`) or a result whose
        manifest does not name its task lands here too: one torn frame
        makes every later read on this stream untrustworthy, so the
        connection is condemned, not just the frame.
        """
        while True:
            try:
                kind, meta, arrays = recv_message(worker.sock)
                if kind != "result":
                    reason = f"unexpected {kind!r} message from worker"
                    break
                key = (
                    int(meta["round"]),
                    int(meta["shard"]),
                    int(meta["attempt"]),
                )
            except (EOFError, OSError) as err:
                reason = f"connection lost ({err})"
                break
            except ProtocolError as err:
                reason = str(err)
                break
            except (KeyError, TypeError, ValueError) as err:
                reason = f"malformed result manifest ({err!r})"
                break
            self._events.put(
                ("ack", worker.index, *key, meta.get("error"), arrays)
            )
        self._events.put(("dead", worker.index, f"lost: {reason}"))

    def _await_workers(self, count: int) -> None:
        """Block until ``count`` workers are registered and alive."""
        deadline = time.monotonic() + _connect_timeout_s()
        while True:
            alive = len(self._live_workers())
            if alive >= count:
                return
            if time.monotonic() >= deadline:
                raise ExecError(
                    f"remote backend: only {alive} of {count} worker(s) "
                    f"connected to {self._endpoint} within "
                    f"{_connect_timeout_s():g}s; start workers with "
                    f"'kbt worker --connect {self._endpoint}' (or raise "
                    f"{CONNECT_TIMEOUT_ENV})"
                )
            time.sleep(_POLL_S)

    def _assign_homes(self) -> None:
        alive = sorted(self._live_workers())
        for shard_index in range(self._source.num_shards):
            self._home[shard_index] = alive[shard_index % len(alive)]

    # ------------------------------------------------------------------
    # The transport (see _SupervisedSession)
    # ------------------------------------------------------------------
    def _send(self, worker, rnd: _Round, shard_index, attempt) -> None:
        with self._workers_lock:
            remote = self._workers[worker]
        params: IterationParams = rnd.payload
        shard = self._source.get_shard(shard_index)
        meta: dict = {
            "round": rnd.id,
            "shard": shard_index,
            "attempt": attempt,
            "base_scalar": None,
        }
        arrays: dict[str, np.ndarray] = {
            "param.pre_vote": params.pre_vote,
            "param.abs_vote": params.abs_vote,
            "param.source_vote": params.source_vote,
        }
        if isinstance(params.base_absence, np.ndarray):
            arrays["param.base_absence"] = params.base_absence
        else:
            meta["base_scalar"] = float(params.base_absence)
        priors = params.priors_for(shard)
        if priors is not None:
            arrays["param.priors"] = priors
        if shard_index not in remote.shipped:
            meta["packet"], packet_arrays = _pack_shard(shard)
            arrays.update(packet_arrays)
        try:
            remote.send("task", meta, arrays)
            remote.shipped.add(shard_index)
        except (OSError, ProtocolError):
            # The connection died under us; the reader thread's 'dead'
            # event will fail this attempt and trigger re-dispatch.
            pass

    def _next_event(self, timeout: float) -> tuple | None:
        try:
            return self._events.get(timeout=timeout)
        except queue.Empty:
            return None

    def _live_workers(self) -> list[int]:
        with self._workers_lock:
            return [w.index for w in self._workers.values() if w.alive]

    def _replace_worker(self, worker: int) -> int:
        """Condemn the connection; its heir is the least-loaded
        survivor."""
        with self._workers_lock:
            self._workers[worker].close()
        if not self._live_workers():
            # No capacity left: wait for any worker (a reconnecting one
            # or a fresh join); give up with the endpoint in the message.
            self._await_workers(1)
        return min(
            self._live_workers(),
            key=lambda w: len(self._inflight.get(w, ())),
        )

    def _label(self, worker: int) -> str:
        with self._workers_lock:
            return self._workers[worker].address

    # ------------------------------------------------------------------
    # The ExecutionSession contract
    # ------------------------------------------------------------------
    def run_iteration(
        self,
        params: IterationParams,
        out_p_correct: np.ndarray,
        out_posterior: np.ndarray,
    ) -> None:
        def scatter(shard_index: int, arrays: dict) -> None:
            shard = self._source.get_shard(shard_index)
            out_p_correct[shard.coord_idx] = arrays["p_correct"]
            out_posterior[shard.triple_lo : shard.triple_hi] = arrays[
                "posterior"
            ]

        self._run_round(params, scatter)


class RemoteBackend:
    """Distributed execution: TCP coordinator + remote shard workers.

    The multi-host realization of the paper's MapReduce deployment
    (Table 7): map steps run wherever a ``kbt worker`` joined from,
    the reduce stays in the driver, and the coordinator supervises the
    fleet with the same retry/re-dispatch/speculation machinery as the
    ``processes`` backend. Bit-identical to every other backend for any
    worker count and any recovery history.
    """

    name = "remote"

    def open(
        self, source: ShardSource, cfg: MultiLayerConfig
    ) -> _RemoteSession:
        return _RemoteSession(source, cfg)


__all__ = ["CONNECT_TIMEOUT_ENV", "RemoteBackend", "run_worker"]
