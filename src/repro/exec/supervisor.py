"""Supervision: the one round engine under ``processes`` and ``remote``.

The paper runs its per-iteration map jobs on a MapReduce platform where
retry, re-execution and straggler speculation exist once, in the master
(Section 5.3.4, Table 7). :class:`_SupervisedSession` is that master:
it dispatches one task per shard per round, matches acks by ``(round,
shard, attempt)``, retries failures with capped exponential backoff
under a per-shard budget, re-homes the shards of a lost worker, and
once half of a round has reported speculatively re-dispatches stragglers
past a median-derived deadline — first result wins. Every one of those
recoveries is "run the task again, anywhere": a map task
(:func:`~repro.exec.worker.run_shard_iteration`) is a pure function of
what the task itself carries, so every attempt of a shard's round-``t``
step yields identical bytes and no worker holds anything a fit could
lose.

How tasks and results travel is the **transport**, a handful of hook
methods a subclass provides (``_send``, ``_next_event``,
``_live_workers``, ``_replace_worker``, ``_fence``, ``_label``):
:class:`~repro.exec.backends._ProcessSession` speaks pickled pipe frames
to local processes over shared memory,
:class:`~repro.exec.remote._RemoteSession` speaks
:mod:`repro.exec.protocol` frames to TCP workers, and the unit tests
substitute a scripted fake with an injected clock.

Supervision knobs read from the environment, one snapshot per session:
``KBT_MAX_SHARD_ATTEMPTS``, ``KBT_RETRY_BACKOFF_S``,
``KBT_RETRY_BACKOFF_CAP_S``, ``KBT_STRAGGLER_FACTOR`` (0 disables
speculation), ``KBT_STRAGGLER_MIN_S``, ``KBT_WORKER_GRACE_S``.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

#: Scheduler poll interval: how long the round loop blocks for the next
#: transport event before it re-checks due retries and speculation.
_POLL_S = 0.05


class ExecError(RuntimeError):
    """A shard map step failed terminally (its retry budget ran out).

    Raised by a supervised session (``processes`` or ``remote``), naming
    the shard, the attempt count, and the underlying cause (a lost
    worker, or the error the worker reported — e.g. a
    :class:`~repro.exec.spill.SpillError` whose message carries the
    regenerate remedy). The CLI reports it as a one-line error.
    """

    def __init__(
        self,
        message: str,
        *,
        shard_index: int | None = None,
        attempts: int | None = None,
    ) -> None:
        super().__init__(message)
        self.shard_index = shard_index
        self.attempts = attempts


def env_number(name: str, default, kind: type = float):
    """``kind(os.environ[name])``, or ``default`` when unset.

    The environment is outside input: a value that does not parse raises
    a ``ValueError`` naming the variable and the expected type.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return kind(raw)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ValueError(
            f"{name} must be {expected}, got {raw!r}"
        ) from None


@dataclass(frozen=True)
class _Supervision:
    """Worker-supervision knobs (environment-overridable, see module
    docstring); one snapshot is taken per session."""

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    straggler_factor: float = 4.0
    straggler_min_s: float = 0.5
    grace_s: float = 5.0

    @classmethod
    def from_env(cls) -> "_Supervision":
        return cls(
            max_attempts=max(
                1, env_number("KBT_MAX_SHARD_ATTEMPTS", cls.max_attempts, int)
            ),
            backoff_base_s=env_number(
                "KBT_RETRY_BACKOFF_S", cls.backoff_base_s
            ),
            backoff_cap_s=env_number(
                "KBT_RETRY_BACKOFF_CAP_S", cls.backoff_cap_s
            ),
            straggler_factor=env_number(
                "KBT_STRAGGLER_FACTOR", cls.straggler_factor
            ),
            straggler_min_s=env_number(
                "KBT_STRAGGLER_MIN_S", cls.straggler_min_s
            ),
            grace_s=env_number("KBT_WORKER_GRACE_S", cls.grace_s),
        )


class _Round(NamedTuple):
    """What every task of one round shares."""

    id: int
    #: Transport-specific round inputs, passed through to ``_send``.
    payload: object


class _ShardTask:
    """Per-round scheduling state of one shard's map step."""

    __slots__ = (
        "shard",
        "failures",
        "next_attempt",
        "running",
        "retry_at",
        "speculated",
        "first_dispatch",
        "last_error",
        "done",
    )

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.failures = 0
        self.next_attempt = 0
        #: attempt number -> worker index, for attempts still in flight.
        self.running: dict[int, int] = {}
        self.retry_at: float | None = None
        self.speculated = False
        self.first_dispatch = 0.0
        self.last_error: str | None = None
        self.done = False


class _SupervisedSession:
    """The round engine; subclasses add a transport and the
    ``ExecutionSession`` method (``run_iteration`` calls
    :meth:`_run_round`).

    Bookkeeping kept here: each shard's *home* worker — packet affinity
    only: the worker that last ran the shard already has its packet (and
    warm caches), nothing more — and the unacked attempts per worker.
    Worker indices are assigned by the transport, grow monotonically and
    are never reused, so a fault keyed to a lost worker cannot re-fire
    on its successor and a stale ack never aliases a new worker.
    """

    def __init__(
        self,
        source,
        cfg,
        sup: _Supervision | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._source = source
        self._cfg = cfg
        self._sup = _Supervision.from_env() if sup is None else sup
        self._clock = clock
        self._home: dict[int, int] = {}
        #: worker index -> set of (round, shard, attempt) not yet acked.
        self._inflight: dict[int, set] = {}
        self._round = 0

    # ------------------------------------------------------------------
    # The transport seam
    # ------------------------------------------------------------------
    def _send(
        self, worker: int, rnd: _Round, shard_index: int, attempt: int
    ) -> None:
        """Ship one task (plus the packet, if ``worker`` lacks it). Must
        not raise when the worker is already gone: its death arrives as
        an event."""
        raise NotImplementedError

    def _next_event(self, timeout: float) -> tuple | None:
        """Block up to ``timeout`` seconds for the next event:
        ``("ack", worker, round, shard, attempt, error, result)``,
        ``("dead", worker, reason)``, ``("join", worker)``, or None."""
        raise NotImplementedError

    def _live_workers(self) -> list[int]:
        """Indices of the workers that can take a task right now."""
        raise NotImplementedError

    def _replace_worker(self, worker: int) -> int:
        """Retire the lost ``worker``; return the index of the worker
        that inherits its shards."""
        raise NotImplementedError

    def _fence(self) -> None:
        """Round boundary: make sure no attempt of the finished round
        can still write. Nothing to do where only the driver writes."""

    def _label(self, worker: int) -> str:
        """What identifies ``worker`` to an operator (pid, address)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Round engine
    # ------------------------------------------------------------------
    def _dispatch(
        self, task: _ShardTask, rnd: _Round, target: int | None = None
    ) -> None:
        shard_index = task.shard
        if target is None:
            target = self._home[shard_index]
        attempt = task.next_attempt
        task.next_attempt += 1
        self._send(target, rnd, shard_index, attempt)
        task.running[attempt] = target
        self._inflight.setdefault(target, set()).add(
            (rnd.id, shard_index, attempt)
        )
        if attempt == 0:
            task.first_dispatch = self._clock()

    def _record_failure(
        self, task: _ShardTask, round_id: int, cause: str
    ) -> None:
        task.failures += 1
        task.last_error = cause
        if task.failures >= self._sup.max_attempts:
            raise ExecError(
                f"shard {task.shard} map step failed after "
                f"{task.failures} attempt(s) in round {round_id}; "
                f"last error: {cause}",
                shard_index=task.shard,
                attempts=task.failures,
            )
        delay = min(
            self._sup.backoff_base_s * (2.0 ** (task.failures - 1)),
            self._sup.backoff_cap_s,
        )
        task.retry_at = self._clock() + delay

    def _attempt_failed(
        self, task: _ShardTask, attempt: int, round_id: int, cause: str
    ) -> None:
        task.running.pop(attempt, None)
        # With another attempt still live (speculation), let it race on;
        # only a shard with no live attempt and no scheduled retry
        # consumes budget and re-dispatches.
        if not task.running and task.retry_at is None:
            self._record_failure(task, round_id, cause)

    def _on_worker_dead(
        self,
        worker: int,
        reason: str,
        tasks: dict[int, _ShardTask],
        round_id: int,
    ) -> None:
        """Retire a lost worker: re-home its shards, fail its unacked
        attempts."""
        if worker not in self._live_workers():
            return  # already retired; a condemned transport may repeat itself
        cause = f"worker {worker} ({self._label(worker)}) {reason}"
        for rnd, shard_index, attempt in self._retire(worker):
            if rnd != round_id:
                continue
            task = tasks.get(shard_index)
            if task is None or task.done:
                continue
            self._attempt_failed(task, attempt, round_id, cause)

    def _retire(self, worker: int) -> set:
        """Hand a lost worker's shards to its heir; return what it
        still owed."""
        owed = self._inflight.pop(worker, set())
        heir = self._replace_worker(worker)
        for shard_index, owner in self._home.items():
            if owner == worker:
                self._home[shard_index] = heir
        return owed

    def _launch_due(self, tasks: dict[int, _ShardTask], rnd: _Round) -> None:
        now = self._clock()
        for task in tasks.values():
            if task.done or task.retry_at is None or now < task.retry_at:
                continue
            task.retry_at = None
            self._dispatch(task, rnd)

    def _maybe_speculate(
        self,
        tasks: dict[int, _ShardTask],
        rnd: _Round,
        durations: list[float],
    ) -> None:
        """Speculative re-dispatch of stragglers, first result wins.

        The per-round deadline derives from the median completed-shard
        wall time once at least half the round has reported (scaled by
        ``straggler_factor``, floored at ``straggler_min_s``); each
        shard gets at most one speculative copy, placed on the least
        loaded worker not already running an attempt of it.
        """
        if self._sup.straggler_factor <= 0.0:
            return
        if 2 * len(durations) < len(tasks):
            return
        pending = [task for task in tasks.values() if not task.done]
        if not pending:
            return
        deadline = max(
            statistics.median(durations) * self._sup.straggler_factor,
            self._sup.straggler_min_s,
        )
        now = self._clock()
        for task in pending:
            if (
                task.speculated
                or task.retry_at is not None
                or not task.running
            ):
                continue
            if now - task.first_dispatch < deadline:
                continue
            busy = set(task.running.values())
            idle = [w for w in self._live_workers() if w not in busy]
            if not idle:
                continue
            task.speculated = True
            self._dispatch(
                task,
                rnd,
                target=min(
                    idle, key=lambda w: len(self._inflight.get(w, ()))
                ),
            )

    def _run_round(
        self,
        payload: object,
        deliver: Callable[[int, object], None] | None = None,
    ) -> None:
        """Run every shard's map step once; ``deliver(shard, result)``
        receives each winning ack's result where results travel in the
        ack."""
        self._round += 1
        rnd = _Round(self._round, payload)
        tasks = {
            index: _ShardTask(index)
            for index in range(self._source.num_shards)
        }
        for task in tasks.values():
            self._dispatch(task, rnd)
        durations: list[float] = []
        remaining = len(tasks)
        while remaining:
            self._launch_due(tasks, rnd)
            self._maybe_speculate(tasks, rnd, durations)
            event = self._next_event(_POLL_S)
            if event is None or event[0] == "join":
                continue  # a join is new capacity for the next dispatch
            if event[0] == "dead":
                self._on_worker_dead(event[1], event[2], tasks, rnd.id)
                continue
            _, worker, ack_round, shard_index, attempt, error, result = event
            self._inflight.get(worker, set()).discard(
                (ack_round, shard_index, attempt)
            )
            if ack_round != rnd.id:
                continue  # stale ack from a superseded round
            task = tasks.get(shard_index)
            if task is None or task.done:
                continue  # duplicate completion: speculation lost the race
            if error is not None:
                self._attempt_failed(
                    task,
                    attempt,
                    rnd.id,
                    f"worker {worker} ({self._label(worker)}): {error}",
                )
                continue
            # First result wins.
            if deliver is not None:
                deliver(shard_index, result)
            task.done = True
            remaining -= 1
            durations.append(self._clock() - task.first_dispatch)
            if worker in self._live_workers():
                # The acker has the packet: next round goes there. (A
                # late ack from a worker retired since it wrote stands
                # too — its bytes are in place — but moves no home.)
                self._home[shard_index] = worker
        self._fence()


__all__ = ["ExecError", "env_number"]
