"""Fault tolerance: checkpointed fits, worker supervision, fault injection.

The contract under test mirrors the determinism ladder of the execution
subsystem: **every recovery path is bit-identical to the fault-free
fit**. Worker kills, corrupt-packet retries, straggler speculation, and
checkpoint resume all produce exactly the bytes an uninterrupted serial
fit produces. Faults are injected deterministically through
:class:`repro.exec.faults.FaultPlan` (the ``KBT_FAULT_PLAN`` environment
variable, inherited by worker processes), keyed to worker indices and
dispatch rounds the scheduler assigns deterministically.

Worker-index determinism across machines: every processes-backend test
uses ``num_shards=2``, which pins the session to exactly two initial
workers (indices 0 and 1, one shard each) regardless of the host's CPU
count; replacement workers then take indices 2, 3, ... in spawn order.
Round numbering: round ``t`` is iteration ``t``'s map, and a fit
dispatches no other round.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

pytest.importorskip("numpy")

import numpy as np

from repro.core.config import ConvergenceConfig, MultiLayerConfig
from repro.core.kbt import KBTEstimator
from repro.core.multi_layer import MultiLayerModel
from repro.exec.backends import ExecError
from repro.exec.checkpoint import (
    CHECKPOINT_FILE,
    CheckpointError,
    load_checkpoint,
)
from repro.exec.faults import FAULT_PLAN_ENV, FaultPlan
from repro.exec.spill import advise_dontneed

# Short grace/backoff so failure paths resolve in test time, not the
# production defaults' seconds.
FAST_SUPERVISION = {
    "KBT_RETRY_BACKOFF_S": "0.02",
    "KBT_RETRY_BACKOFF_CAP_S": "0.1",
    "KBT_WORKER_GRACE_S": "1.0",
    "KBT_STRAGGLER_FACTOR": "2.0",
    "KBT_STRAGGLER_MIN_S": "0.2",
}


def base_config(max_iterations: int = 4, **kwargs) -> MultiLayerConfig:
    """Numpy-engine config with a fixed iteration budget (tolerance 0:
    the loop never stops early, so round numbers are predictable)."""
    return MultiLayerConfig(
        engine="numpy",
        convergence=ConvergenceConfig(
            max_iterations=max_iterations, tolerance=0.0
        ),
        **kwargs,
    )


def fit_with(config, observations, **overrides):
    cfg = dataclasses.replace(config, **overrides) if overrides else config
    return MultiLayerModel(cfg).fit(observations)


def assert_identical(reference, other):
    """Bitwise result equality (the fault-tolerance acceptance bar)."""
    assert reference.iterations_run == other.iterations_run
    assert reference.source_accuracy == other.source_accuracy
    assert reference.value_posteriors == other.value_posteriors
    assert reference.extraction_posteriors == other.extraction_posteriors
    assert reference.extractor_quality == other.extractor_quality
    assert reference.priors == other.priors
    for snap_ref, snap_other in zip(reference.history, other.history):
        assert snap_ref.max_accuracy_delta == snap_other.max_accuracy_delta
        assert snap_ref.max_extractor_delta == snap_other.max_extractor_delta


def set_faults(monkeypatch, plan: FaultPlan) -> None:
    monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_env())
    for key, value in FAST_SUPERVISION.items():
        monkeypatch.setenv(key, value)


# ----------------------------------------------------------------------
# Worker supervision: kills, retries, stragglers (the tentpole's part 2)
# ----------------------------------------------------------------------
def test_worker_kill_recovers_bit_identically(synthetic_matrix, monkeypatch):
    """A worker hard-killed mid-fit is replaced; the replacement re-runs
    the lost (pure) map task and the fit finishes bit-identical to the
    fault-free serial fit."""
    config = base_config()
    reference = fit_with(config, synthetic_matrix, backend="serial",
                         num_shards=2)
    set_faults(monkeypatch, FaultPlan(kill_worker=((1, 2),)))
    recovered = fit_with(
        config, synthetic_matrix, backend="processes", num_shards=2
    )
    assert_identical(reference, recovered)


def test_kill_and_straggler_match_serial(synthetic_matrix, monkeypatch):
    """Acceptance criterion: one worker kill *and* one deliberate
    straggler (speculatively re-dispatched, first result wins) in the
    same processes fit still match the fault-free serial fit bit for
    bit."""
    config = base_config()
    reference = fit_with(config, synthetic_matrix, backend="serial",
                         num_shards=2)
    set_faults(
        monkeypatch,
        FaultPlan(kill_worker=((1, 2),), delay_shard=((0, 3, 1.0),)),
    )
    recovered = fit_with(
        config, synthetic_matrix, backend="processes", num_shards=2
    )
    assert_identical(reference, recovered)


def test_repeated_kills_exhaust_retry_budget(synthetic_matrix, monkeypatch):
    """Killing the shard's worker on every attempt consumes the retry
    budget; the terminal ExecError names the shard and attempt count."""
    config = base_config()
    # Worker 0 owns shard 0; replacements take indices 2 and 3.
    set_faults(
        monkeypatch, FaultPlan(kill_worker=((0, 2), (2, 2), (3, 2)))
    )
    monkeypatch.setenv("KBT_MAX_SHARD_ATTEMPTS", "3")
    # Speculation off: an idle worker outside the kill plan would
    # otherwise rescue the shard before the budget exhausts.
    monkeypatch.setenv("KBT_STRAGGLER_FACTOR", "0")
    with pytest.raises(
        ExecError, match=r"shard 0 map step failed after 3 attempt"
    ) as excinfo:
        fit_with(
            config, synthetic_matrix, backend="processes", num_shards=2
        )
    assert excinfo.value.shard_index == 0
    assert excinfo.value.attempts == 3
    assert "died with exitcode" in str(excinfo.value)


def test_corrupt_packet_retries_then_succeeds(synthetic_matrix, monkeypatch):
    """A transient SpillError on one attempt retries (with backoff) on
    the same worker and the fit stays bit-identical."""
    config = base_config()
    reference = fit_with(config, synthetic_matrix, backend="serial",
                         num_shards=2)
    set_faults(monkeypatch, FaultPlan(corrupt_packet=((1, 2, 1),)))
    recovered = fit_with(
        config, synthetic_matrix, backend="processes", num_shards=2
    )
    assert_identical(reference, recovered)


def test_teardown_ladder_kills_hung_worker(synthetic_matrix, monkeypatch):
    """Satellite: a worker that ignores both the stop message and
    SIGTERM cannot wedge session teardown — the escalation ladder
    (join -> terminate -> kill) ends it within the configured grace."""
    import multiprocessing

    config = base_config(max_iterations=2)
    set_faults(monkeypatch, FaultPlan(hang_worker=(0, 1)))
    monkeypatch.setenv("KBT_WORKER_GRACE_S", "0.3")
    started = time.monotonic()
    result = fit_with(
        config, synthetic_matrix, backend="processes", num_shards=2
    )
    elapsed = time.monotonic() - started
    assert result.iterations_run == 2
    # Two hung workers x three 0.3s rungs is ~2s of ladder; anything
    # near the 600s hang-sleep means the ladder did not escalate.
    assert elapsed < 60.0
    assert not multiprocessing.active_children()


def test_dead_worker_is_seen_within_one_poll_while_acks_flow(
    synthetic_matrix, monkeypatch
):
    """The liveness sweep runs at most once per ``_POLL_S``, not before
    every wait — yet a worker killed mid-round is still seen within
    ``_POLL_S`` (plus the backoff) while its sibling keeps acking more
    often than that, and the fit stays bit-identical to serial."""
    from repro.exec import backends
    from repro.exec.supervisor import _POLL_S

    config = base_config()
    reference = fit_with(config, synthetic_matrix, backend="serial",
                         num_shards=6)
    # Two workers x three shards each: worker 0 holds 0, 2, 4 and dies
    # on its round-2 task; worker 1 acks 1, 3, 5 at ~45 ms intervals,
    # so its waits end in acks, not timeouts, for the first 135 ms.
    monkeypatch.setattr(backends, "_worker_cap", lambda: 2)
    set_faults(
        monkeypatch,
        FaultPlan(
            kill_worker=((0, 2),),
            delay_shard=tuple((shard, 2, 0.045) for shard in (1, 3, 5)),
        ),
    )
    monkeypatch.setenv("KBT_STRAGGLER_FACTOR", "0")
    backoff_s = 0.05
    monkeypatch.setenv("KBT_RETRY_BACKOFF_S", str(backoff_s))

    sent, seen = [], []
    session = backends._ProcessSession
    send, on_dead = session._send, session._on_worker_dead

    def timed_send(self, worker, rnd, shard_index, attempt):
        if worker == 0 and rnd.id == 2:
            sent.append(time.monotonic())
        send(self, worker, rnd, shard_index, attempt)

    def timed_on_dead(self, worker, *args):
        seen.append((worker, time.monotonic()))
        on_dead(self, worker, *args)

    monkeypatch.setattr(session, "_send", timed_send)
    monkeypatch.setattr(session, "_on_worker_dead", timed_on_dead)
    recovered = fit_with(
        config, synthetic_matrix, backend="processes", num_shards=6
    )
    assert_identical(reference, recovered)
    assert [worker for worker, _ in seen] == [0]
    assert seen[0][1] - sent[0] < _POLL_S + backoff_s


# ----------------------------------------------------------------------
# Ack frames: one atomic pipe write, whatever the error text
# ----------------------------------------------------------------------
class _FrameSink:
    def __init__(self) -> None:
        self.frames: list[bytes] = []

    def send_bytes(self, payload: bytes) -> None:
        self.frames.append(payload)


@pytest.mark.parametrize("char", ["e", "é", "信", "𝄞"])
@pytest.mark.parametrize("length", [10, 1600, 5000])
def test_ack_frame_fits_pipe_buf_on_utf8_bytes(char, length):
    """Truncation counts the UTF-8 bytes pickle stores, not characters,
    and never splits a character."""
    import pickle
    import select

    from repro.exec.backends import _MAX_ACK_BYTES, _send_ack

    error = char * length
    sink = _FrameSink()
    _send_ack(sink, (3, 7, 11, 2, error))
    (frame,) = sink.frames
    assert 4 + len(frame) <= select.PIPE_BUF
    assert len(frame) <= _MAX_ACK_BYTES
    *head, sent = pickle.loads(frame)
    assert head == [3, 7, 11, 2]
    if sent != error:
        assert sent.endswith(" ... (truncated)")
        assert error.startswith(sent[: -len(" ... (truncated)")])


def test_multibyte_worker_error_travels_in_one_atomic_ack(
    synthetic_matrix, tmp_path, monkeypatch
):
    """A real worker's error naming a non-ASCII spill path (an injected
    corrupt packet read) is over the ack cap in UTF-8 bytes though not
    in characters: it must arrive truncated to one frame within
    ``PIPE_BUF`` — a longer frame could interleave with the sibling
    worker's ack on the shared pipe."""
    import pickle
    import select
    import types

    from repro.exec import backends

    # ~3.3 KB of three-byte characters: about 1 100 characters.
    spill_dir = tmp_path
    while len(str(spill_dir).encode("utf-8")) < 3300:
        spill_dir = spill_dir / ("信" * 80)
    frames: list[int] = []

    def loads(data):
        frames.append(len(data))
        return pickle.loads(data)

    monkeypatch.setattr(
        backends,
        "pickle",
        types.SimpleNamespace(
            dumps=pickle.dumps,
            loads=loads,
            HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
        ),
    )
    set_faults(monkeypatch, FaultPlan(corrupt_packet=((1, 2, 99),)))
    monkeypatch.setenv("KBT_MAX_SHARD_ATTEMPTS", "2")
    with pytest.raises(ExecError, match=r"shard 1 map step failed") as exc:
        fit_with(
            base_config(),
            synthetic_matrix,
            backend="processes",
            num_shards=2,
            spill_dir=str(spill_dir),
        )
    message = str(exc.value)
    assert "injected corrupt packet read for shard 1 at " in message
    assert "信" * 80 in message
    assert message.endswith(" ... (truncated)")
    assert max(frames) <= backends._MAX_ACK_BYTES
    assert 4 + max(frames) <= select.PIPE_BUF


# ----------------------------------------------------------------------
# Checkpointed fits + resume (the tentpole's part 1)
# ----------------------------------------------------------------------
def test_checkpoint_resume_is_bit_identical(synthetic_matrix, tmp_path):
    """A fit stopped by its iteration budget resumes from the checkpoint
    and finishes bit-identical to an uninterrupted fit."""
    config = base_config(max_iterations=5)
    reference = fit_with(config, synthetic_matrix, backend="serial")
    ckdir = tmp_path / "ck"

    interrupted = fit_with(
        base_config(max_iterations=2),
        synthetic_matrix,
        backend="serial",
        checkpoint_dir=str(ckdir),
    )
    assert interrupted.iterations_run == 2
    assert (ckdir / CHECKPOINT_FILE).is_file()

    resumed = fit_with(
        config,
        synthetic_matrix,
        backend="serial",
        checkpoint_dir=str(ckdir),
        resume=True,
    )
    assert_identical(reference, resumed)


def test_resume_across_backends_and_shard_counts(
    synthetic_matrix, tmp_path
):
    """Execution placement is excluded from the config digest by design:
    a fit checkpointed under serial/1-shard resumes under processes with
    a different shard count, still bit-identical."""
    config = base_config(max_iterations=4)
    reference = fit_with(config, synthetic_matrix, backend="serial")
    ckdir = tmp_path / "ck"
    fit_with(
        base_config(max_iterations=2),
        synthetic_matrix,
        backend="serial",
        num_shards=1,
        checkpoint_dir=str(ckdir),
    )
    resumed = fit_with(
        config,
        synthetic_matrix,
        backend="processes",
        num_shards=2,
        checkpoint_dir=str(ckdir),
        resume=True,
    )
    assert_identical(reference, resumed)


def test_killed_processes_fit_resumes_from_checkpoint(
    synthetic_matrix, tmp_path, monkeypatch
):
    """Acceptance criterion: a processes fit killed mid-run (retry budget
    exhausted in iteration 3) resumes from the iteration-2 checkpoint to
    the exact result of a never-interrupted fit."""
    config = base_config(max_iterations=4)
    reference = fit_with(config, synthetic_matrix, backend="serial")
    ckdir = tmp_path / "ck"

    set_faults(
        monkeypatch, FaultPlan(kill_worker=((0, 3), (2, 3), (3, 3)))
    )
    # Speculation off, as in test_repeated_kills_exhaust_retry_budget:
    # the kill must be terminal for the resume to have work to do.
    monkeypatch.setenv("KBT_STRAGGLER_FACTOR", "0")
    with pytest.raises(ExecError):
        fit_with(
            config,
            synthetic_matrix,
            backend="processes",
            num_shards=2,
            checkpoint_dir=str(ckdir),
        )
    ckpt = load_checkpoint(ckdir)
    assert ckpt is not None and ckpt.iteration == 2

    monkeypatch.delenv(FAULT_PLAN_ENV)
    resumed = fit_with(
        config,
        synthetic_matrix,
        backend="processes",
        num_shards=2,
        checkpoint_dir=str(ckdir),
        resume=True,
    )
    assert_identical(reference, resumed)


def test_resume_of_completed_fit_is_a_noop(synthetic_matrix, tmp_path):
    """Resuming a checkpoint that already spent the iteration budget
    reruns nothing but still assembles the identical result."""
    config = base_config(max_iterations=3)
    ckdir = tmp_path / "ck"
    completed = fit_with(
        config, synthetic_matrix, backend="serial",
        checkpoint_dir=str(ckdir),
    )
    resumed = fit_with(
        config, synthetic_matrix, backend="serial",
        checkpoint_dir=str(ckdir), resume=True,
    )
    assert_identical(completed, resumed)


def test_checkpoint_every_skips_intermediate_writes(
    synthetic_matrix, tmp_path
):
    """checkpoint_every=3 with a 4-iteration budget writes at iterations
    3 (periodic) and 4 (budget exhaustion) — the final state wins."""
    ckdir = tmp_path / "ck"
    fit_with(
        base_config(max_iterations=4),
        synthetic_matrix,
        backend="serial",
        checkpoint_dir=str(ckdir),
        checkpoint_every=3,
    )
    ckpt = load_checkpoint(ckdir)
    assert ckpt is not None and ckpt.iteration == 4


def test_checkpoint_rejects_foreign_problem(
    synthetic_matrix, example_matrix, tmp_path
):
    config = base_config(max_iterations=2)
    ckdir = tmp_path / "ck"
    fit_with(config, synthetic_matrix, backend="serial",
             checkpoint_dir=str(ckdir))
    with pytest.raises(CheckpointError, match="different[ \n]+problem"):
        fit_with(config, example_matrix, backend="serial",
                 checkpoint_dir=str(ckdir), resume=True)


def test_checkpoint_rejects_changed_model_config(
    synthetic_matrix, tmp_path
):
    ckdir = tmp_path / "ck"
    fit_with(base_config(max_iterations=2), synthetic_matrix,
             backend="serial", checkpoint_dir=str(ckdir))
    with pytest.raises(
        CheckpointError, match="different[ \n]+model[ \n]+configuration"
    ):
        fit_with(
            base_config(max_iterations=2, alpha=0.4),
            synthetic_matrix,
            backend="serial",
            checkpoint_dir=str(ckdir),
            resume=True,
        )


def test_unreadable_checkpoint_names_the_remedy(
    synthetic_matrix, tmp_path
):
    ckdir = tmp_path / "ck"
    ckdir.mkdir()
    (ckdir / CHECKPOINT_FILE).write_bytes(b"not an npz archive")
    with pytest.raises(CheckpointError, match="delete the file"):
        fit_with(base_config(), synthetic_matrix, backend="serial",
                 checkpoint_dir=str(ckdir), resume=True)


def _rewrite_checkpoint(ckdir, **changes):
    """Re-save the checkpoint under ``ckdir`` with some entries replaced;
    ``version=`` edits the JSON manifest."""
    import json

    path = ckdir / CHECKPOINT_FILE
    with np.load(path) as data:
        entries = {name: data[name] for name in data.files}
    if "version" in changes:
        meta = json.loads(str(entries["meta"][()]))
        meta["version"] = changes.pop("version")
        entries["meta"] = np.array(json.dumps(meta))
    entries.update(changes)
    np.savez(path, **entries)


@pytest.mark.parametrize(
    "changes, message",
    [
        # Version-1 priors are one Eq. 26 update behind what the loop
        # now resumes from: refused, never resumed to different bytes.
        ({"version": 1}, "unsupported fit checkpoint version 1"),
        ({"priors": np.full(3, 0.5)}, "checkpointed array 'priors' has shape"),
        ({"acc_deltas": np.zeros(1)}, "carries 1 accuracy and 2 extractor"),
    ],
    ids=["version-1", "short-priors", "truncated-history"],
)
def test_inconsistent_checkpoint_is_refused_with_one_line(
    changes, message, synthetic, synthetic_matrix, tmp_path, capsys
):
    from repro.cli import main
    from repro.io.jsonl import write_records

    ckdir = tmp_path / "library"
    fit_with(base_config(2), synthetic_matrix, checkpoint_dir=str(ckdir))
    _rewrite_checkpoint(ckdir, **changes)
    with pytest.raises(CheckpointError, match=message):
        fit_with(base_config(2), synthetic_matrix,
                 checkpoint_dir=str(ckdir), resume=True)

    records = tmp_path / "records.jsonl"
    write_records(synthetic.records, records)
    ckdir = tmp_path / "cli"
    fit = ["fit", str(records), "--iterations", "2", "--output",
           str(tmp_path / "scores.csv"), "--checkpoint-dir", str(ckdir)]
    assert main(fit) == 0
    _rewrite_checkpoint(ckdir, **changes)
    capsys.readouterr()
    assert main([*fit, "--resume"]) == 1
    error = capsys.readouterr().err
    assert error.startswith("error:") and error.count("\n") == 1
    assert message in error


# ----------------------------------------------------------------------
# SpillError surfacing + resume after regeneration (satellite)
# ----------------------------------------------------------------------
def test_cli_corrupt_packet_surfaces_hint_then_resumes(
    tmp_path, monkeypatch, capsys
):
    """Terminal corrupt-packet failures reach the CLI as a one-line
    ``error:`` with the regenerate remedy (no worker traceback), and a
    checkpoint written before the failure lets ``--resume`` finish the
    fit to the same scores as a clean run."""
    from repro.cli import main
    from repro.datasets.kv import KVConfig, generate_kv
    from repro.io.jsonl import write_records

    corpus = generate_kv(
        KVConfig(
            num_websites=15,
            items_per_predicate=8,
            num_systems=3,
            max_pages_per_site=4,
            max_claims_per_page=30,
            seed=13,
        )
    )
    records = tmp_path / "records.jsonl"
    write_records(corpus.campaign.records, records)
    ckdir = tmp_path / "ck"

    clean_csv = tmp_path / "clean.csv"
    assert main([
        "fit", str(records), "--iterations", "3",
        "--backend", "processes", "--shards", "2",
        "--output", str(clean_csv),
    ]) == 0
    capsys.readouterr()

    # Shard 1's packet reads fail on every attempt of round 2: the
    # budget exhausts and the fit dies after the iteration-1 checkpoint.
    set_faults(monkeypatch, FaultPlan(corrupt_packet=((1, 2, 99),)))
    monkeypatch.setenv("KBT_MAX_SHARD_ATTEMPTS", "2")
    failed_csv = tmp_path / "failed.csv"
    assert main([
        "fit", str(records), "--iterations", "3",
        "--backend", "processes", "--shards", "2",
        "--checkpoint-dir", str(ckdir), "--output", str(failed_csv),
    ]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "regenerate" in captured.err
    assert "Traceback" not in captured.err
    assert not failed_csv.exists()
    assert load_checkpoint(ckdir).iteration == 1

    # "Regenerated" spill (fault cleared): --resume continues from the
    # checkpoint and lands on the clean run's exact scores.
    monkeypatch.delenv(FAULT_PLAN_ENV)
    monkeypatch.delenv("KBT_MAX_SHARD_ATTEMPTS")
    resumed_csv = tmp_path / "resumed.csv"
    assert main([
        "fit", str(records), "--iterations", "3",
        "--backend", "processes", "--shards", "2",
        "--checkpoint-dir", str(ckdir), "--resume",
        "--output", str(resumed_csv),
    ]) == 0
    assert resumed_csv.read_bytes() == clean_csv.read_bytes()


# ----------------------------------------------------------------------
# advise_dontneed warning (satellite: no more silent except-pass)
# ----------------------------------------------------------------------
def test_advise_dontneed_warns_on_madvise_failure():
    class FailingMapping:
        def madvise(self, flag):
            raise OSError(12, "Cannot allocate memory")

    class FakeMapped:
        filename = "/spill/shard_0/entry_conf.npy"
        _mmap = FailingMapping()

    with pytest.warns(RuntimeWarning) as caught:
        advise_dontneed(FakeMapped())
    message = str(caught[0].message)
    assert "madvise" in message
    assert FakeMapped.filename in message
    assert "errno=12" in message


def test_advise_dontneed_ignores_resident_arrays():
    advise_dontneed(np.zeros(4), None)  # no mapping, no warning, no raise


# ----------------------------------------------------------------------
# FaultPlan environment round trip
# ----------------------------------------------------------------------
def test_fault_plan_env_round_trip():
    plan = FaultPlan(
        kill_worker=((0, 2), (3, 1)),
        delay_shard=((1, 3, 0.5),),
        corrupt_packet=((2, 2, 1),),
        hang_worker=(1,),
    )
    parsed = FaultPlan.from_env({FAULT_PLAN_ENV: plan.to_env()})
    assert parsed == plan
    assert FaultPlan.from_env({}).is_empty()
    assert not plan.is_empty()
    assert plan.should_kill(0, 2) and not plan.should_kill(0, 3)
    assert plan.delay_seconds(1, 3, 0) == 0.5
    assert plan.delay_seconds(1, 3, 1) == 0.0  # re-dispatch runs fast
    assert plan.should_corrupt(2, 2, 0) and not plan.should_corrupt(2, 2, 1)
    assert plan.hangs_on_stop(1) and not plan.hangs_on_stop(0)


@pytest.mark.parametrize(
    "raw, match",
    [
        ("{not json", "not JSON"),
        ('["a"]', "expected a JSON object"),
        ('{"typo_kind": []}', "unknown KBT_FAULT_PLAN fault kinds"),
        ('{"kill_worker": [[1]]}', "malformed KBT_FAULT_PLAN entry"),
    ],
)
def test_fault_plan_rejects_malformed_env(raw, match):
    with pytest.raises(ValueError, match=match):
        FaultPlan.from_env({FAULT_PLAN_ENV: raw})


# ----------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------
def test_checkpoint_config_validation():
    # Valid without a backend (the driver runs None as serial).
    assert MultiLayerConfig(engine="numpy", checkpoint_dir="/tmp/ck")
    with pytest.raises(ValueError, match="checkpoint_every"):
        MultiLayerConfig(
            engine="numpy", backend="serial", checkpoint_dir="/tmp/ck",
            checkpoint_every=0,
        )
    with pytest.raises(ValueError, match="resume"):
        MultiLayerConfig(engine="numpy", backend="serial", resume=True)


def test_estimator_checkpoint_dir_upgrades_backend(
    tmp_path, synthetic_matrix
):
    """Nothing is upgraded: a backend-less checkpointed fit runs on the
    default engine (as one serial shard), checkpoints, and matches the
    plain fit."""
    estimator = KBTEstimator(checkpoint_dir=str(tmp_path / "ck"))
    assert estimator._config.backend is None
    assert estimator._config.engine == "numpy"
    assert estimator._config.checkpoint_dir == str(tmp_path / "ck")
    fitted = estimator.fit(synthetic_matrix)
    assert (tmp_path / "ck" / "checkpoint.npz").exists()
    plain = KBTEstimator().fit(synthetic_matrix)
    assert fitted.result.source_accuracy == plain.result.source_accuracy
