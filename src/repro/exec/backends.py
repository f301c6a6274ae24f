"""Execution backends: where the map rounds of a shard plan actually run.

The :class:`ExecutionBackend` protocol is the pluggable seam of sharded
execution: a backend opens an :class:`ExecutionSession` over a **packet
source** — either a resident :class:`~repro.exec.plan.ShardPlan` or an
out-of-core :class:`~repro.exec.spill.OutOfCoreShardSource` serving
memory-mapped packets — and the driver feeds it one
:class:`~repro.exec.worker.IterationParams` per EM iteration. Built-ins
(named in :data:`repro.exec.driver.BACKENDS`):

* ``serial`` — shards run one after another in the driver process. The
  correctness baseline and the right choice for small problems, where
  parallel dispatch overhead would dominate.
* ``threads`` — shards run on a thread pool. NumPy's ufuncs release the
  GIL for large arrays, so this wins on big shards without any IPC.
* ``processes`` — one persistent worker process per shard, with the
  global ``p_correct`` / ``posterior`` output vectors, the ``priors``
  input vector and the per-iteration parameter block living in POSIX
  shared memory (:mod:`multiprocessing.shared_memory`); workers scatter
  their slices into disjoint regions, so no result pickling happens on
  the hot path.
  With an out-of-core source, workers receive only the spill directory
  path and map the packet files directly — packet bytes never cross the
  process boundary, neither pickled nor copied into shared memory.
  Sidesteps the GIL entirely — the backend for CPU-bound fits on
  multi-core machines.

Sessions fetch packets through ``source.get_shard(index)`` each round
and never assume packets stay resident between rounds, and a map task
(:func:`~repro.exec.worker.run_shard_iteration`) keeps nothing between
rounds either — which is what bounds an out-of-core fit's working set
by one packet plus the driver's global vectors.

Every backend produces bit-identical results (the reduce runs in the
driver over globally re-assembled arrays; see :mod:`repro.exec.plan`).

The ``processes`` session is supervised — crash detection, retry with
backoff, replacement workers, straggler speculation — by the round
engine in :mod:`repro.exec.supervisor`; this module contributes only its
transport: pickled task messages down one queue per worker, one atomic
ack frame per task up a shared pipe, outputs scattered straight into
shared memory, liveness from ``Process.is_alive``. Map tasks are pure,
but workers still write the shared output vectors (and read the shared
inputs) themselves, so the round boundary is a *fence*: any worker still
holding an unacked attempt is killed and replaced, so a stale write can
never land in a later round. Injected failures for tests come from
:mod:`repro.exec.faults`.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.config import MultiLayerConfig
from repro.exec.plan import Shard
from repro.exec.supervisor import ExecError, _Round, _SupervisedSession
from repro.exec.worker import (
    IterationParams,
    _describe_error,
    execute_task,
    run_shard_iteration,
    task_params,
)


@runtime_checkable
class ShardSource(Protocol):
    """The packet-source contract every backend consumes.

    Implemented by the resident :class:`~repro.exec.plan.ShardPlan` and
    the out-of-core :class:`~repro.exec.spill.OutOfCoreShardSource`;
    both expose the plan-level dimensions, serve packets by index, and
    describe a picklable per-worker packet subset for the process
    backend.
    """

    num_shards: int
    num_coords: int
    num_triples: int
    num_items: int
    num_sources: int
    num_cols: int

    def get_shard(self, index: int) -> Shard:
        """The shard packet with ``index`` (resident or memory-mapped)."""
        ...

    def worker_payload(self, indices: tuple[int, ...]) -> tuple:
        """A picklable recipe for a worker's packet subset."""
        ...


@runtime_checkable
class ExecutionSession(Protocol):
    """A live execution context over one packet source (context manager)."""

    def run_iteration(
        self,
        params: IterationParams,
        out_p_correct: np.ndarray,
        out_posterior: np.ndarray,
    ) -> None:
        """Run one map round; scatter every shard's slices into the outs."""
        ...

    def __enter__(self) -> "ExecutionSession": ...

    def __exit__(self, *exc: object) -> None: ...


@runtime_checkable
class ExecutionBackend(Protocol):
    """A factory of execution sessions; ``name`` is its ``cfg.backend`` key."""

    name: str

    def open(
        self, source: ShardSource, cfg: MultiLayerConfig
    ) -> ExecutionSession:
        """Open a session over ``source`` (enter it to start workers)."""
        ...


# ----------------------------------------------------------------------
# In-process backends (serial / threads)
# ----------------------------------------------------------------------
class _InProcessSession:
    """Shared machinery: map tasks run in the driver process, on packets
    fetched from the source each round (a tuple lookup for a resident
    plan, a memory-map for an out-of-core source)."""

    def __init__(self, source: ShardSource, cfg: MultiLayerConfig) -> None:
        self._source = source
        self._cfg = cfg

    def __enter__(self) -> "_InProcessSession":
        return self

    def __exit__(self, *exc: object) -> None:
        pass

    def _run_one(
        self,
        index: int,
        params: IterationParams,
        out_p_correct: np.ndarray,
        out_posterior: np.ndarray,
    ) -> None:
        shard = self._source.get_shard(index)
        p_correct, posterior = run_shard_iteration(
            shard, self._cfg, params, params.priors_for(shard)
        )
        out_p_correct[shard.coord_idx] = p_correct
        out_posterior[shard.triple_lo : shard.triple_hi] = posterior


class _SerialSession(_InProcessSession):
    def run_iteration(
        self,
        params: IterationParams,
        out_p_correct: np.ndarray,
        out_posterior: np.ndarray,
    ) -> None:
        for index in range(self._source.num_shards):
            self._run_one(index, params, out_p_correct, out_posterior)


class _ThreadSession(_InProcessSession):
    def __init__(self, source: ShardSource, cfg: MultiLayerConfig) -> None:
        super().__init__(source, cfg)
        self._pool: ThreadPoolExecutor | None = None

    def __enter__(self) -> "_ThreadSession":
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, min(self._source.num_shards, 32)),
            thread_name_prefix="kbt-shard",
        )
        return self

    def __exit__(self, *exc: object) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def run_iteration(
        self,
        params: IterationParams,
        out_p_correct: np.ndarray,
        out_posterior: np.ndarray,
    ) -> None:
        assert self._pool is not None, "session not entered"
        futures = [
            self._pool.submit(
                self._run_one, index, params, out_p_correct, out_posterior
            )
            for index in range(self._source.num_shards)
        ]
        for future in futures:
            future.result()


class SerialBackend:
    """Run shards sequentially in the driver process.

    The correctness baseline for the paper's per-iteration map jobs
    (Table 7: ExtCorr, TriplePr) and the natural partner of out-of-core
    streaming: one shard materialized at a time, processed in index
    order, no dispatch overhead.
    """

    name = "serial"

    def open(
        self, source: ShardSource, cfg: MultiLayerConfig
    ) -> _SerialSession:
        return _SerialSession(source, cfg)


class ThreadBackend:
    """Run shards on a thread pool (GIL-releasing NumPy kernels).

    Parallelises the Table 7 map jobs inside one address space: shards
    write disjoint slices of the output vectors, so no synchronisation
    beyond the round barrier is needed and results stay bit-identical.
    """

    name = "threads"

    def open(
        self, source: ShardSource, cfg: MultiLayerConfig
    ) -> _ThreadSession:
        return _ThreadSession(source, cfg)


# ----------------------------------------------------------------------
# Process backend: persistent workers over shared-memory numpy buffers —
# the pipe / shared-memory transport under repro.exec.supervisor.
# ----------------------------------------------------------------------
_STOP = "stop"
_TASK = "task"

#: Ack payload cap. An ack frame (4-byte length header + pickled tuple)
#: must stay within POSIX ``PIPE_BUF`` (4096 bytes) so each ack is one
#: atomic pipe write — see :func:`_send_ack`.
_MAX_ACK_BYTES = 3200


def _send_ack(conn, ack: tuple) -> None:
    """Write one ack as a single atomic pipe frame.

    Acks deliberately travel over a raw shared pipe rather than a
    ``multiprocessing.Queue``: a queue serializes concurrent writers
    through a cross-process lock, and a worker SIGKILLed at the wrong
    instant (the round-boundary fence, the teardown ladder, a real
    crash) would die *holding* that lock, deadlocking every other
    worker's next ack. A pipe write of at most ``PIPE_BUF`` bytes is
    atomic by POSIX: concurrent frames never interleave and a writer
    killed mid-ack leaves either a complete frame or nothing — there is
    no lock a dead worker can poison. Oversized error descriptions are
    truncated to keep the frame within the atomicity bound.
    """
    payload = pickle.dumps(ack, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > _MAX_ACK_BYTES:
        worker_index, round_id, shard_index, attempt, error = ack
        error = str(error)[: _MAX_ACK_BYTES // 2] + " ... (truncated)"
        payload = pickle.dumps(
            (worker_index, round_id, shard_index, attempt, error),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    conn.send_bytes(payload)


def _param_layout(source: ShardSource) -> tuple[dict[str, slice], int]:
    """Offsets of the per-iteration parameter block in shared memory."""
    layout: dict[str, slice] = {}
    offset = 0
    for name, size in (
        ("base_absence", source.num_sources),
        ("source_vote", source.num_sources),
        ("pre_vote", source.num_cols),
        ("abs_vote", source.num_cols),
    ):
        layout[name] = slice(offset, offset + size)
        offset += size
    return layout, offset


def _shm_view(segment, length: int) -> np.ndarray:
    return np.ndarray((length,), dtype=np.float64, buffer=segment.buf)


def _open_worker_shards(payload: tuple):
    """Turn a ``worker_payload`` recipe into a ``fetch(index)`` callable.

    ``("resident", shards)`` carries the packets themselves (shared
    copy-on-write under ``fork``); ``("spill", dir, indices, cap)``
    re-opens the spill directory in the worker, which then maps the
    packet files directly — no packet bytes cross the process boundary.
    """
    if payload[0] == "resident":
        return {shard.index: shard for shard in payload[1]}.__getitem__
    from repro.exec.spill import OutOfCoreShardSource

    return OutOfCoreShardSource(
        payload[1], max_resident_shards=payload[3]
    ).get_shard


def _shard_worker(
    worker_index: int,
    payload: tuple,
    cfg: MultiLayerConfig,
    shm_names: dict[str, str],
    sizes: dict[str, int],
    layout: dict[str, slice],
    task_queue,
    ack_conn,
) -> None:
    """Worker loop: attach the shared buffers, serve shard tasks forever.

    One worker is *home* to one or more shards (shards are multiplexed
    over at most :func:`_worker_cap` processes); each round the driver
    sends one task message per shard — ``(kind, round, shard, attempt,
    base_scalar, has_priors, shipped_packet)`` — and the worker acks
    ``(worker, round, shard, attempt, error)`` on the shared ack pipe
    (one atomic frame per ack, see :func:`_send_ack`). The task's inputs
    come from the shared parameter block and the shared priors vector
    (``has_priors`` unset: ``cfg.alpha`` everywhere), its outputs are
    scattered into the shared output vectors, and the step itself is
    :func:`~repro.exec.worker.execute_task` (fault hooks, then the pure
    map step). Tasks may arrive for shards outside the startup payload
    (speculation / re-homing): out-of-core workers map any packet from
    the spill directory, resident workers receive the packet inside the
    message.
    """
    from multiprocessing import shared_memory

    from repro.exec.faults import FaultPlan

    faults = FaultPlan.from_env()
    segments = {}
    try:
        for key, name in shm_names.items():
            segments[key] = shared_memory.SharedMemory(name=name)
        p_correct, posterior, priors, param_block = (
            _shm_view(segments[key], sizes[key])
            for key in ("p", "post", "priors", "params")
        )
        fetch = _open_worker_shards(payload)
        shipped_shards: dict[int, Shard] = {}

        def lookup(name: str) -> np.ndarray:
            return param_block[layout[name]]

        while True:
            message = task_queue.get()
            kind = message[0]
            if kind == _STOP:
                if faults.hangs_on_stop(worker_index):
                    # Teardown-ladder test fault: ignore SIGTERM too, so
                    # only the final kill escalation can end the worker.
                    import signal

                    signal.signal(signal.SIGTERM, signal.SIG_IGN)
                    time.sleep(600.0)
                break
            (
                _,
                round_id,
                shard_index,
                attempt,
                base_scalar,
                has_priors,
                shipped,
            ) = message
            if faults.should_kill(worker_index, round_id):
                os._exit(1)
            error = None
            try:
                shard = shipped_shards.get(shard_index)
                if shard is None:
                    if shipped is not None:
                        shard = shipped_shards[shard_index] = shipped
                    else:
                        shard = fetch(shard_index)
                result = execute_task(
                    cfg,
                    shard,
                    task_params(base_scalar, lookup),
                    priors[shard.coord_idx] if has_priors else None,
                    faults,
                    round_id,
                    attempt,
                )
                p_correct[shard.coord_idx] = result[0]
                posterior[shard.triple_lo : shard.triple_hi] = result[1]
            except Exception as exc:
                error = _describe_error(exc)
            _send_ack(
                ack_conn,
                (worker_index, round_id, shard_index, attempt, error),
            )
    finally:
        for segment in segments.values():
            segment.close()


def _worker_cap() -> int:
    """Processes to spawn at most: beyond the core count (plus headroom
    for uneven shards) extra workers only cost memory and descriptors."""
    return max(1, min(2 * (os.cpu_count() or 1), 32))


def _kill_worker(process, grace_s: float) -> None:
    """terminate -> kill, ``grace_s`` seconds per rung; SIGKILL is not
    maskable, so a wedged worker (stuck kernel call, ignored SIGTERM)
    cannot outlive this."""
    process.terminate()
    process.join(timeout=grace_s)
    if process.is_alive():
        process.kill()
        process.join(timeout=grace_s)


def _stop_worker(process, grace_s: float) -> None:
    """Teardown escalation ladder: join -> terminate -> kill, so a
    worker that ignores the stop message can never hang interpreter
    shutdown."""
    process.join(timeout=grace_s)
    if process.is_alive():
        _kill_worker(process, grace_s)


class _WorkerHandle:
    """Driver-side record of one worker process."""

    __slots__ = ("index", "process", "queue", "group", "fetches_any", "alive")

    def __init__(self, index, process, queue, group, fetches_any) -> None:
        self.index = index
        self.process = process
        self.queue = queue
        #: The shard subset this worker's startup payload covers (and a
        #: replacement's payload, should this worker die).
        self.group = group
        #: Out-of-core workers can map *any* packet from the spill
        #: directory; resident workers only hold their payload subset.
        self.fetches_any = fetches_any
        self.alive = True

    def can_fetch(self, shard_index: int) -> bool:
        return self.fetches_any or shard_index in self.group


class _ProcessSession(_SupervisedSession):
    """Worker processes + shared-memory buffers: the local transport of
    the supervised round engine.

    A lost worker is replaced by a fresh process over the same shard
    group. Workers write their disjoint output slices themselves, which
    is safe within a round (any attempt of a shard's round-``t`` step
    writes bit-identical bytes) and is why the round ends with a fence
    (:meth:`_fence`).
    """

    def __init__(self, source: ShardSource, cfg: MultiLayerConfig) -> None:
        super().__init__(source, cfg)
        self._layout, self._param_len = _param_layout(source)
        self._segments: dict = {}
        self._views: dict[str, np.ndarray] = {}
        self._workers: dict[int, _WorkerHandle] = {}
        self._next_worker = 0
        self._ctx = None
        self._ack_recv = None
        self._ack_send = None
        self._shm_names: dict[str, str] = {}
        self._sizes: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "_ProcessSession":
        import multiprocessing as mp
        from multiprocessing import shared_memory

        # fork shares resident shard arrays copy-on-write with the
        # workers; where unavailable (Windows, macOS default) spawn ships
        # them once at startup. Out-of-core payloads carry only the spill
        # directory path either way — workers map the files themselves.
        method = (
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        self._ctx = mp.get_context(method)
        source = self._source
        self._sizes = {
            "p": source.num_coords,
            "post": source.num_triples,
            "priors": source.num_coords,
            "params": self._param_len,
        }
        try:
            for key, length in self._sizes.items():
                self._segments[key] = shared_memory.SharedMemory(
                    create=True, size=max(1, length * 8)
                )
                self._views[key] = _shm_view(self._segments[key], length)
            self._shm_names = {
                key: segment.name
                for key, segment in self._segments.items()
            }
            # Acks travel over a raw pipe, one atomic frame per ack
            # (see _send_ack) — unlike a multiprocessing.Queue there is
            # no cross-process write lock a SIGKILLed worker could die
            # holding, which would silently deadlock every other
            # worker's acks.
            self._ack_recv, self._ack_send = self._ctx.Pipe(duplex=False)
            num_workers = min(source.num_shards, _worker_cap())
            groups: list[list[int]] = [[] for _ in range(num_workers)]
            for index in range(source.num_shards):
                groups[index % num_workers].append(index)
            for group in groups:
                handle = self._spawn_worker(tuple(group))
                for shard_index in group:
                    self._home[shard_index] = handle.index
        except BaseException:
            # A partially-built session never reaches __exit__ via the
            # with-statement: release segments (ENOSPC on /dev/shm is the
            # realistic trigger) and stop any already-started workers.
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        for handle in self._workers.values():
            if handle.alive:
                try:
                    handle.queue.put((_STOP,))
                except (OSError, ValueError):  # worker already gone
                    pass
        for handle in self._workers.values():
            _stop_worker(handle.process, self._sup.grace_s)
        self._workers.clear()
        for segment in self._segments.values():
            segment.close()
            segment.unlink()
        self._segments.clear()
        self._views.clear()
        for conn in (self._ack_recv, self._ack_send):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        self._ack_recv = self._ack_send = None

    def _spawn_worker(self, group: tuple[int, ...]) -> _WorkerHandle:
        """Start a worker (original or replacement) over ``group``."""
        index = self._next_worker
        self._next_worker += 1
        payload = self._source.worker_payload(group)
        queue = self._ctx.SimpleQueue()
        process = self._ctx.Process(
            target=_shard_worker,
            args=(
                index,
                payload,
                self._cfg,
                self._shm_names,
                self._sizes,
                self._layout,
                queue,
                self._ack_send,
            ),
            daemon=True,
        )
        process.start()
        handle = _WorkerHandle(
            index, process, queue, group, fetches_any=payload[0] == "spill"
        )
        self._workers[index] = handle
        return handle

    # ------------------------------------------------------------------
    # The transport (see _SupervisedSession)
    # ------------------------------------------------------------------
    def _send(self, worker, rnd: _Round, shard_index, attempt) -> None:
        handle = self._workers[worker]
        shipped = (
            None
            if handle.can_fetch(shard_index)
            else self._source.get_shard(shard_index)
        )
        try:
            handle.queue.put(
                # payload: (ALL-scope base-absence scalar, has_priors)
                (_TASK, rnd.id, shard_index, attempt, *rnd.payload, shipped)
            )
        except (OSError, ValueError):
            # The worker died under us; the liveness sweep will fail
            # this attempt and re-dispatch to its replacement.
            pass

    def _next_event(self, timeout: float) -> tuple | None:
        """A crashed worker if the liveness sweep finds one (never by
        hanging on the ack pipe), else the next ack frame."""
        for handle in self._workers.values():
            if handle.alive and not handle.process.is_alive():
                return (
                    "dead",
                    handle.index,
                    f"died with exitcode {handle.process.exitcode}",
                )
        if not self._ack_recv.poll(timeout):
            return None
        return ("ack", *pickle.loads(self._ack_recv.recv_bytes()), None)

    def _live_workers(self) -> list[int]:
        return [h.index for h in self._workers.values() if h.alive]

    def _replace_worker(self, worker: int) -> int:
        handle = self._workers[worker]
        handle.alive = False
        return self._spawn_worker(handle.group).index

    def _label(self, worker: int) -> str:
        return f"pid {self._workers[worker].process.pid}"

    def _fence(self) -> None:
        """Round boundary: no attempt of this round may write later.

        Drains raced-in acks first, then kills (and replaces) any worker
        still holding an unacked task — a superseded straggler whose
        eventual write, landing in a later round, would no longer be
        bit-identical to the winner's. Within the round the overlap was
        safe (all attempts of a shard's round-``t`` step write identical
        bytes); across the boundary it would not be, so the loser dies
        first.
        """
        while self._ack_recv.poll(0):
            try:
                ack = pickle.loads(self._ack_recv.recv_bytes())
            except EOFError:
                break
            self._inflight.get(ack[0], set()).discard(
                (ack[1], ack[2], ack[3])
            )
        for handle in list(self._workers.values()):
            if handle.alive and self._inflight.get(handle.index):
                _kill_worker(handle.process, self._sup.grace_s)
                self._retire(handle.index)

    # ------------------------------------------------------------------
    # The ExecutionSession contract
    # ------------------------------------------------------------------
    def run_iteration(
        self,
        params: IterationParams,
        out_p_correct: np.ndarray,
        out_posterior: np.ndarray,
    ) -> None:
        # The round's inputs go into shared memory before any task is
        # sent; the previous round's fence left no one reading them.
        block = self._views["params"]
        layout = self._layout
        block[layout["source_vote"]] = params.source_vote
        block[layout["pre_vote"]] = params.pre_vote
        block[layout["abs_vote"]] = params.abs_vote
        base_scalar = None  # the per-source vector ships in the block
        if isinstance(params.base_absence, np.ndarray):
            block[layout["base_absence"]] = params.base_absence
        else:
            base_scalar = float(params.base_absence)
        if params.priors is not None:
            self._views["priors"][:] = params.priors
        self._run_round((base_scalar, params.priors is not None))
        out_p_correct[:] = self._views["p"]
        out_posterior[:] = self._views["post"]


class ProcessBackend:
    """Worker processes over shared-memory numpy buffers (no GIL).

    The closest single-machine analogue of the paper's MapReduce
    deployment: persistent workers own disjoint shard subsets, only
    parameter blocks and control messages cross process boundaries, and
    with an out-of-core source the packet files are mapped directly in
    each worker. The session supervises its workers — crash detection,
    retry with backoff, replacement spawning, straggler speculation —
    and every recovery path preserves bit-identical results (workers
    scatter into disjoint shared-memory regions, map steps are pure,
    and the reduce stays in the driver).
    """

    name = "processes"

    def open(
        self, source: ShardSource, cfg: MultiLayerConfig
    ) -> _ProcessSession:
        return _ProcessSession(source, cfg)


__all__ = [
    "ExecError",
    "ExecutionBackend",
    "ExecutionSession",
    "SerialBackend",
    "ShardSource",
    "ThreadBackend",
    "ProcessBackend",
]
