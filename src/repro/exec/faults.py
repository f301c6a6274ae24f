"""Deterministic fault injection for the execution layer.

The fault-tolerance machinery of the supervised backends (retry/backoff,
re-homing, straggler speculation — see :mod:`repro.exec.supervisor`) is
only trustworthy if its failure paths can
be exercised *reproducibly*. A :class:`FaultPlan` makes failures part of
the test input: every fault is keyed by coordinates the scheduler
assigns deterministically — the worker index, the dispatch round (a
per-session counter incremented once per map round: round ``t`` is
iteration ``t``'s map, and a fit dispatches nothing else), and the
per-shard attempt number — so an injected crash happens at exactly the
same point of the computation on every run.

The plan travels to worker processes through the ``KBT_FAULT_PLAN``
environment variable (a JSON object), which both ``fork`` and ``spawn``
start methods inherit; production fits never set it, and an empty/unset
variable short-circuits every query to "no fault".

Fault kinds:

* ``kill_worker`` — ``[worker, round]``: the worker calls ``os._exit(1)``
  when it receives a task of that round (a hard crash: no ack, no
  cleanup). Replacement workers get fresh, never-reused indices, so a
  kill keyed to the original index fires exactly once.
* ``delay_shard`` — ``[shard, round, seconds]``: the *first* attempt of
  that shard's map step sleeps before running, turning the worker into a
  deterministic straggler (re-dispatched attempts run at full speed, so
  speculation wins the round).
* ``corrupt_packet`` — ``[shard, round, attempts]``: the first
  ``attempts`` attempts of that shard in that round fail with a
  :class:`~repro.exec.spill.SpillError`, emulating a corrupt spill
  packet read; attempt numbers past ``attempts`` succeed, so a retry
  budget larger than ``attempts`` recovers and a smaller one surfaces a
  terminal :class:`~repro.exec.backends.ExecError`.
* ``hang_worker`` — ``[worker, ...]``: the worker ignores the shutdown
  message and sleeps instead, exercising the session teardown
  escalation ladder (join -> terminate -> kill).
* ``drop_connection`` — ``[worker, round]``: a *remote* worker
  (:mod:`repro.exec.remote`) abruptly closes its TCP connection when it
  receives a task of that round, then re-enters its reconnect loop. The
  coordinator sees a dead connection mid-round; the reconnected worker
  registers under a fresh index, so the fault fires exactly once.
* ``corrupt_frame`` — ``[worker, round]``: a remote worker flips bytes
  of a result frame's blob *after* computing its digest, so the frame
  arrives with a sha256 mismatch. The coordinator must treat the
  connection as corrupt (once one frame is torn, the stream offsets are
  untrustworthy) and recover exactly as for a dead connection.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields as dataclass_fields

#: Environment variable carrying the JSON-encoded plan to workers.
FAULT_PLAN_ENV = "KBT_FAULT_PLAN"


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected execution failures."""

    #: ``(worker_index, round)`` pairs: hard-kill on task receipt.
    kill_worker: tuple[tuple[int, int], ...] = ()
    #: ``(shard_index, round, seconds)``: sleep before the first attempt.
    delay_shard: tuple[tuple[int, int, float], ...] = ()
    #: ``(shard_index, round, attempts)``: fail the first N attempts.
    corrupt_packet: tuple[tuple[int, int, int], ...] = ()
    #: Worker indices that ignore the stop message (teardown tests).
    hang_worker: tuple[int, ...] = ()
    #: ``(worker_index, round)``: remote worker drops its connection.
    drop_connection: tuple[tuple[int, int], ...] = ()
    #: ``(worker_index, round)``: remote worker corrupts a result frame.
    corrupt_frame: tuple[tuple[int, int], ...] = ()

    def is_empty(self) -> bool:
        return not (
            self.kill_worker
            or self.delay_shard
            or self.corrupt_packet
            or self.hang_worker
            or self.drop_connection
            or self.corrupt_frame
        )

    # ------------------------------------------------------------------
    # Queries (hot path: workers call these once per task)
    # ------------------------------------------------------------------
    def should_kill(self, worker_index: int, round_id: int) -> bool:
        return (worker_index, round_id) in self.kill_worker

    def delay_seconds(
        self, shard_index: int, round_id: int, attempt: int
    ) -> float:
        if attempt != 0:
            return 0.0
        for shard, rnd, seconds in self.delay_shard:
            if shard == shard_index and rnd == round_id:
                return seconds
        return 0.0

    def should_corrupt(
        self, shard_index: int, round_id: int, attempt: int
    ) -> bool:
        for shard, rnd, attempts in self.corrupt_packet:
            if shard == shard_index and rnd == round_id:
                return attempt < attempts
        return False

    def hangs_on_stop(self, worker_index: int) -> bool:
        return worker_index in self.hang_worker

    def drops_connection(self, worker_index: int, round_id: int) -> bool:
        return (worker_index, round_id) in self.drop_connection

    def corrupts_frame(self, worker_index: int, round_id: int) -> bool:
        return (worker_index, round_id) in self.corrupt_frame

    # ------------------------------------------------------------------
    # Environment round trip
    # ------------------------------------------------------------------
    def to_env(self) -> str:
        """The JSON payload to place in ``KBT_FAULT_PLAN``."""
        payload = {
            field.name: [
                list(entry) if isinstance(entry, tuple) else entry
                for entry in getattr(self, field.name)
            ]
            for field in dataclass_fields(self)
            if getattr(self, field.name)
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_env(cls, environ: dict | None = None) -> "FaultPlan":
        """Parse ``KBT_FAULT_PLAN`` (missing/empty -> an empty plan).

        A malformed plan raises ``ValueError`` naming the variable: a
        fault plan is test input, and a typo silently injecting nothing
        would make a fault-tolerance test vacuously green.
        """
        raw = (os.environ if environ is None else environ).get(
            FAULT_PLAN_ENV, ""
        )
        if not raw:
            return cls()
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as err:
            raise ValueError(
                f"malformed {FAULT_PLAN_ENV} (not JSON): {err}"
            ) from err
        if not isinstance(data, dict):
            raise ValueError(
                f"malformed {FAULT_PLAN_ENV}: expected a JSON object, "
                f"got {type(data).__name__}"
            )
        known = {field.name for field in dataclass_fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown {FAULT_PLAN_ENV} fault kinds: {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        try:
            return cls(
                kill_worker=tuple(
                    (int(w), int(r)) for w, r in data.get("kill_worker", ())
                ),
                delay_shard=tuple(
                    (int(s), int(r), float(d))
                    for s, r, d in data.get("delay_shard", ())
                ),
                corrupt_packet=tuple(
                    (int(s), int(r), int(a))
                    for s, r, a in data.get("corrupt_packet", ())
                ),
                hang_worker=tuple(
                    int(w) for w in data.get("hang_worker", ())
                ),
                drop_connection=tuple(
                    (int(w), int(r))
                    for w, r in data.get("drop_connection", ())
                ),
                corrupt_frame=tuple(
                    (int(w), int(r))
                    for w, r in data.get("corrupt_frame", ())
                ),
            )
        except (TypeError, ValueError) as err:
            raise ValueError(
                f"malformed {FAULT_PLAN_ENV} entry: {err}"
            ) from err


__all__ = ["FAULT_PLAN_ENV", "FaultPlan"]
