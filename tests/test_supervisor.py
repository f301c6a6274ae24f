"""Unit tests of the supervision round engine (repro.exec.supervisor).

The engine is driven through a scripted fake transport and an injected
clock — no processes, no sockets, no sleeping — so retry timing,
speculation deadlines and event orderings that the integration suites
(test_fault_tolerance, test_remote) can only provoke by racing real
workers are asserted exactly here.
"""

from __future__ import annotations

import dataclasses
import heapq
from collections import deque
from types import SimpleNamespace

import pytest

from repro.core.config import ConvergenceConfig, MultiLayerConfig
from repro.core.multi_layer import MultiLayerModel
from repro.exec import driver
from repro.exec.remote import CONNECT_TIMEOUT_ENV, _connect_timeout_s
from repro.exec.supervisor import (
    ExecError,
    _POLL_S,
    _SupervisedSession,
    _Supervision,
)
from repro.exec.worker import run_shard_iteration

LATENCY = 0.01  # the fake workers' default time from task to ack


class FakeSession(_SupervisedSession):
    """A transport whose workers are a script.

    ``respond(send)`` is called for every task sent to a live worker and
    returns ``[(delay, event), ...]`` to deliver later; the default acks
    success after ``LATENCY``. ``send`` has ``time``, ``worker``,
    ``round``, ``shard`` and ``attempt``. Time only moves inside
    ``_next_event``.
    """

    def __init__(self, num_shards, workers, sup=None, respond=None):
        self.now = 0.0
        super().__init__(
            SimpleNamespace(num_shards=num_shards),  # all the engine reads
            None,
            sup=sup or _Supervision(),
            clock=lambda: self.now,
        )
        self.live = list(workers)
        self.next_worker = max(workers) + 1
        for shard in range(num_shards):
            self._home[shard] = workers[shard % len(workers)]
        self.respond = respond or (lambda send: [(LATENCY, ack(send))])
        self.sent: list[SimpleNamespace] = []
        self.delivered: list[tuple[int, object]] = []
        self.fences = 0
        self._queue: list = []
        self._seq = 0

    def post(self, delay: float, event: tuple) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, self._seq, event))

    # -- the transport seam -------------------------------------------
    def _send(self, worker, rnd, shard_index, attempt):
        send = SimpleNamespace(
            time=self.now,
            worker=worker,
            round=rnd.id,
            shard=shard_index,
            attempt=attempt,
        )
        self.sent.append(send)
        if worker in self.live:  # a dead worker swallows the task
            for delay, event in self.respond(send):
                self.post(delay, event)

    def _next_event(self, timeout):
        assert self.now < 60.0, "the round did not terminate"
        if self._queue and self._queue[0][0] <= self.now + timeout:
            due, _, event = heapq.heappop(self._queue)
            self.now = max(self.now, due)
            return event
        self.now += timeout
        return None

    def _live_workers(self):
        return list(self.live)

    def _replace_worker(self, worker):
        self.live.remove(worker)
        self.live.append(self.next_worker)
        self.next_worker += 1
        return self.live[-1]

    def _fence(self):
        self.fences += 1

    def _label(self, worker):
        return f"fake-{worker}"

    # -- helpers ------------------------------------------------------
    def round(self):
        self._run_round(None, lambda s, r: self.delivered.append((s, r)))

    def sends(self, shard, round_id=None):
        return [
            s
            for s in self.sent
            if s.shard == shard and round_id in (None, s.round)
        ]


def ack(send, error=None, result="ok"):
    return (
        "ack", send.worker, send.round, send.shard, send.attempt, error,
        result,
    )


def dead(worker, reason="died with exitcode 1"):
    return ("dead", worker, reason)


# ----------------------------------------------------------------------
# Retry budget and backoff
# ----------------------------------------------------------------------
def test_retries_back_off_exponentially_up_to_the_cap():
    sup = _Supervision(
        max_attempts=6, backoff_base_s=0.1, backoff_cap_s=0.3,
        straggler_factor=0.0,
    )

    def respond(send):
        if send.shard == 0 and send.attempt < 4:
            return [(LATENCY, ack(send, error="boom"))]
        return [(LATENCY, ack(send))]

    session = FakeSession(2, [0, 1], sup, respond)
    session.round()
    attempts = session.sends(0)
    assert [s.attempt for s in attempts] == [0, 1, 2, 3, 4]
    assert all(s.worker == 0 for s in attempts)  # retried at home
    gaps = [
        later.time - (earlier.time + LATENCY)
        for earlier, later in zip(attempts, attempts[1:])
    ]
    # 0.1, 0.2, then capped at 0.3; a retry fires at the first loop pass
    # after it is due, i.e. within one poll interval.
    for gap, delay in zip(gaps, [0.1, 0.2, 0.3, 0.3]):
        assert delay <= gap + 1e-9 and gap < delay + _POLL_S + 1e-9
    assert session.delivered == [(1, "ok"), (0, "ok")]
    assert session.fences == 1


def test_budget_exhaustion_raises_exec_error_naming_shard_and_worker():
    sup = _Supervision(
        max_attempts=3, backoff_base_s=0.01, straggler_factor=0.0
    )

    def respond(send):
        error = "boom" if send.shard == 1 else None
        return [(LATENCY, ack(send, error=error))]

    session = FakeSession(2, [0, 1], sup, respond)
    with pytest.raises(
        ExecError, match=r"shard 1 map step failed after 3 attempt"
    ) as excinfo:
        session.round()
    assert excinfo.value.shard_index == 1
    assert excinfo.value.attempts == 3
    assert "worker 1 (fake-1): boom" in str(excinfo.value)
    assert len(session.sends(1)) == 3


def test_error_ack_with_a_live_sibling_attempt_burns_no_budget():
    # max_attempts=1: any recorded failure would be terminal.
    sup = _Supervision(
        max_attempts=1, straggler_factor=1.0, straggler_min_s=0.5
    )

    def respond(send):
        if send.shard == 1 and send.attempt == 0:
            return [(1.0, ack(send, error="boom"))]  # fails while raced
        if send.shard == 1:
            return [(1.0, ack(send))]  # the speculative copy wins later
        return [(LATENCY, ack(send))]

    session = FakeSession(2, [0, 1], sup, respond)
    session.round()
    assert [s.attempt for s in session.sends(1)] == [0, 1]
    assert (1, "ok") in session.delivered


# ----------------------------------------------------------------------
# Speculation
# ----------------------------------------------------------------------
def test_speculation_waits_for_half_the_round_and_the_median_deadline():
    sup = _Supervision(straggler_factor=4.0, straggler_min_s=0.5)

    def respond(send):
        if send.shard == 2:
            # Both copies are slow: nothing may trigger a third.
            return [(10.0, ack(send))]
        return [(1.0, ack(send))]

    session = FakeSession(3, [0, 1, 2], sup, respond)
    session.round()
    first, copy = session.sends(2)  # exactly one speculative copy
    assert first.worker == 2
    # Two of three shards report at t=1.0 (median 1.0): the deadline is
    # 4 x 1.0 after the straggler's first dispatch, not the 0.5 floor,
    # and nothing fires before half the round has reported.
    assert 4.0 <= copy.time < 4.0 + _POLL_S + 1e-9
    # Placed on an idle worker (least loaded, never the one running it).
    assert copy.worker == 0
    assert session.delivered[-1] == (2, "ok")
    # First result wins: the original acked first and stays home.
    assert session._home[2] == 2


def test_speculation_floor_and_no_idle_worker():
    sup = _Supervision(straggler_factor=4.0, straggler_min_s=0.5)

    def respond(send):
        return [(3.0 if send.shard == 1 else LATENCY, ack(send))]

    # Two workers: the copy fires at the 0.5 s floor (4 x 0.01 is less).
    session = FakeSession(2, [0, 1], sup, respond)
    session.round()
    _, copy = session.sends(1)
    assert 0.5 <= copy.time < 0.5 + _POLL_S + 1e-9
    assert copy.worker == 0

    # One worker: it is already running the straggler, so no copy.
    session = FakeSession(2, [0], sup, respond)
    session.round()
    assert len(session.sends(1)) == 1


def test_speculation_disabled_by_factor_zero():
    sup = _Supervision(straggler_factor=0.0, straggler_min_s=0.0)
    session = FakeSession(
        2, [0, 1], sup,
        lambda send: [(3.0 if send.shard == 1 else LATENCY, ack(send))],
    )
    session.round()
    assert len(session.sends(1)) == 1


# ----------------------------------------------------------------------
# Ack matching
# ----------------------------------------------------------------------
def test_first_result_wins_and_stale_or_duplicate_acks_are_dropped():
    sup = _Supervision(straggler_factor=1.0, straggler_min_s=0.5)

    def respond(send):
        if send.shard == 1 and send.attempt == 0:
            return [(0.8, ack(send, result="original"))]
        if send.shard == 1:
            return [(0.1, ack(send, result="copy"))]
        return [(LATENCY, ack(send))]

    session = FakeSession(2, [0, 1], sup, respond)
    session.round()
    # The copy (sent at ~0.5, acked at ~0.6) beats the original (0.8).
    assert session.delivered == [(0, "ok"), (1, "copy")]
    assert session._home[1] == 0

    # Round 2 opens with the loser's ack of round 1 (a stale round) and
    # a forged duplicate of this round's shard 0 arriving after the real
    # one: neither may deliver, complete a task, or move a home.
    session.delivered.clear()
    session.post(0.001, ("ack", 1, 1, 1, 0, None, "original"))
    session.post(0.5, ("ack", 1, 2, 0, 0, None, "duplicate"))
    session.respond = lambda send: [
        (1.0 if send.shard == 1 else LATENCY, ack(send))
    ]
    session._sup = _Supervision(straggler_factor=0.0)
    session.round()
    assert session.delivered == [(0, "ok"), (1, "ok")]
    assert session._home == {0: 0, 1: 0}
    assert session.fences == 2


# ----------------------------------------------------------------------
# Lost workers
# ----------------------------------------------------------------------
def test_worker_death_rehomes_and_retries_on_the_replacement():
    sup = _Supervision(
        max_attempts=3, backoff_base_s=0.1, straggler_factor=0.0
    )

    def respond(send):
        if send.worker == 1 and send.shard == 3:
            # Worker 1 acks shard 1, then dies holding shard 3.
            return [(0.02, dead(1))]
        return [(LATENCY, ack(send))]

    session = FakeSession(4, [0, 1], sup, respond)
    session.round()
    # Shard 3's attempt died with its worker: one failure, backoff, then
    # a retry on the replacement (worker 2) — the same task, again.
    first, retry = session.sends(3)
    assert (first.worker, retry.worker) == (1, 2)
    assert retry.time >= 0.02 + 0.1
    assert session.live == [0, 2]
    # Shard 1 completed on worker 1 before it died: the result stands
    # and the shard is re-homed with the rest of the dead worker's.
    assert session._home == {0: 0, 1: 2, 2: 0, 3: 2}

    session.round()
    for shard in (1, 3):
        (again,) = session.sends(shard, round_id=2)
        assert again.worker == 2


def test_repeated_dead_events_for_one_worker_are_ignored():
    sup = _Supervision(max_attempts=2, straggler_factor=0.0)

    def respond(send):
        if send.worker == 1:
            # A condemned connection reports twice (reader + closer).
            return [(0.01, dead(1, "lost: torn frame")),
                    (0.01, dead(1, "lost: connection lost"))]
        return [(LATENCY, ack(send))]

    session = FakeSession(2, [0, 1], sup, respond)
    session.round()  # a second recorded failure would exhaust the budget
    assert session.live == [0, 2]
    assert len(session.sends(1)) == 2


def test_late_ack_from_a_retired_worker_completes_but_does_not_rehome():
    """Worker 0 acks its round-2 task and dies before the driver reads
    the ack; the liveness sweep reports the death first. The late ack
    completes the task (its bytes are in place) but the dead worker must
    not become home again — round 3 would dispatch into the void and,
    with speculation off, never return."""
    sup = _Supervision(
        max_attempts=3, backoff_base_s=0.2, straggler_factor=0.0
    )

    def respond(send):
        if send.worker == 0 and send.round == 2:
            return [(0.01, dead(0)), (0.02, ack(send))]
        return [(LATENCY, ack(send))]

    session = FakeSession(2, [0, 1], sup, respond)
    session.round()
    session.round()
    # The ack won; the retry scheduled by the death never had to run.
    assert len(session.sends(0, round_id=2)) == 1
    assert session.delivered.count((0, "ok")) == 2
    assert session.live == [1, 2]
    assert session._home[0] == 2

    session.round()  # terminates: dispatched to the live replacement
    (send,) = session.sends(0, round_id=3)
    assert send.worker == 2


# ----------------------------------------------------------------------
# A whole fit over an in-memory transport
# ----------------------------------------------------------------------
class LoopbackSession(_SupervisedSession):
    """The round engine as a working ``ExecutionSession`` with no
    process and no socket: ``_send`` runs the pure map task inline and
    queues its ack, results travel in the ack like ``remote``'s."""

    opened: list["LoopbackSession"] = []

    def __init__(self, source, cfg):
        super().__init__(source, cfg, sup=_Supervision(straggler_factor=0.0))
        self._home = dict.fromkeys(range(source.num_shards), 0)
        self._events: deque = deque()

    def __enter__(self):
        self.opened.append(self)
        return self

    def __exit__(self, *exc):
        pass

    def _send(self, worker, rnd, shard_index, attempt):
        shard = self._source.get_shard(shard_index)
        params = rnd.payload
        result = run_shard_iteration(
            shard, self._cfg, params, params.priors_for(shard)
        )
        self._events.append(
            ("ack", worker, rnd.id, shard_index, attempt, None, result)
        )

    def _next_event(self, timeout):
        return self._events.popleft() if self._events else None

    def _live_workers(self):
        return [0]

    def _label(self, worker):
        return "loopback"

    def run_iteration(self, params, out_p_correct, out_posterior):
        def scatter(shard_index, result):
            shard = self._source.get_shard(shard_index)
            out_p_correct[shard.coord_idx] = result[0]
            out_posterior[shard.triple_lo : shard.triple_hi] = result[1]

        self._run_round(params, scatter)


class LoopbackBackend:
    name = "serial"  # patched over the real one in driver.BACKENDS

    def open(self, source, cfg):
        return LoopbackSession(source, cfg)


def test_fit_dispatches_one_round_per_iteration_and_resumes_on_any_session(
    synthetic_matrix, tmp_path, monkeypatch
):
    """A fit is ``iterations_run`` map rounds and nothing else (no
    finalize round, no restore call), so a session that only implements
    ``run_iteration`` runs it, and resumes it from a checkpoint."""
    config = MultiLayerConfig(
        backend="serial",
        num_shards=3,
        convergence=ConvergenceConfig(max_iterations=5, tolerance=0.0),
    )
    reference = MultiLayerModel(config).fit(synthetic_matrix)
    assert reference.iterations_run == 5 and reference.priors

    monkeypatch.setitem(driver.BACKENDS, "serial", LoopbackBackend)
    monkeypatch.setattr(LoopbackSession, "opened", [])
    whole = MultiLayerModel(config).fit(synthetic_matrix)
    killed_at_2 = dataclasses.replace(
        config,
        checkpoint_dir=str(tmp_path),
        convergence=ConvergenceConfig(max_iterations=2, tolerance=0.0),
    )
    MultiLayerModel(killed_at_2).fit(synthetic_matrix)
    resumed = MultiLayerModel(
        dataclasses.replace(config, checkpoint_dir=str(tmp_path), resume=True)
    ).fit(synthetic_matrix)

    assert [s._round for s in LoopbackSession.opened] == [5, 2, 3]
    for result in (whole, resumed):
        assert result.iterations_run == 5
        assert result.source_accuracy == reference.source_accuracy
        assert result.value_posteriors == reference.value_posteriors
        assert result.extraction_posteriors == reference.extraction_posteriors
        assert result.priors == reference.priors


# ----------------------------------------------------------------------
# Environment knobs are outside input
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name, expected",
    [
        ("KBT_MAX_SHARD_ATTEMPTS", "an integer"),
        ("KBT_RETRY_BACKOFF_S", "a number"),
        ("KBT_RETRY_BACKOFF_CAP_S", "a number"),
        ("KBT_STRAGGLER_FACTOR", "a number"),
        ("KBT_STRAGGLER_MIN_S", "a number"),
        ("KBT_WORKER_GRACE_S", "a number"),
        (CONNECT_TIMEOUT_ENV, "a number"),
    ],
)
def test_unparseable_env_knob_names_the_variable(monkeypatch, name, expected):
    monkeypatch.setenv(name, "abc")
    with pytest.raises(ValueError, match=f"{name} must be {expected}.*'abc'"):
        _Supervision.from_env()
        _connect_timeout_s()


def test_env_knobs_parse_and_default(monkeypatch):
    monkeypatch.setenv("KBT_MAX_SHARD_ATTEMPTS", "0")  # floored at 1
    monkeypatch.setenv("KBT_STRAGGLER_FACTOR", "0")
    monkeypatch.delenv("KBT_RETRY_BACKOFF_S", raising=False)
    sup = _Supervision.from_env()
    assert sup.max_attempts == 1
    assert sup.straggler_factor == 0.0
    assert sup.backoff_base_s == _Supervision.backoff_base_s
