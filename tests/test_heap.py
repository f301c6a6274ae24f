"""The heap policy: bulk builders run with the cyclic collector paused.

``repro.util.heap.paused_gc`` is reentrant, thread-safe and restores the
collector on every exit; the builders on the records -> served path run
under it, and nothing that forks does.
"""

from __future__ import annotations

import gc
import inspect
import sys
import threading
from contextlib import contextmanager

import pytest

from repro.core.config import AbsenceScope, MultiLayerConfig
from repro.core.kbt import FittedKBT, KBTEstimator
from repro.core.observation import ObservationMatrix
from repro.exec import backends
from repro.io import jsonl
from repro.io.artifact import load_artifact
from repro.io.jsonl import read_records, write_records
from repro.util.heap import paused_gc

CONFIG = MultiLayerConfig(absence_scope=AbsenceScope.ACTIVE)


@pytest.fixture(autouse=True)
def collector_enabled():
    """Every test starts, and must end, with the collector enabled."""
    assert gc.isenabled()
    yield
    assert gc.isenabled()


@contextmanager
def passes(*functions, threshold: int = 1):
    """Count the collector's passes, at ``threshold``: ``[all, inside]``,
    where ``inside`` counts those with a frame of one of ``functions``
    on the stack."""
    codes = {inspect.unwrap(function).__code__ for function in functions}
    counts = [0, 0]

    def callback(phase, _info):
        if phase != "start":
            return
        counts[0] += 1
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in codes:
                counts[1] += 1
                return
            frame = frame.f_back

    old = gc.get_threshold()
    gc.collect()
    gc.set_threshold(threshold)
    gc.callbacks.append(callback)
    try:
        yield counts
    finally:
        gc.callbacks.remove(callback)
        gc.set_threshold(*old)


class TestPausedGc:
    def test_nested_pauses_restore_at_the_outermost_exit(self):
        with paused_gc():
            assert not gc.isenabled()
            with paused_gc():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_an_exception_inside_restores_the_collector(self):
        with pytest.raises(KeyError):
            with paused_gc():
                with paused_gc():
                    raise KeyError("inside")
        assert gc.isenabled()

    def test_a_caller_disabled_collector_stays_disabled(self):
        gc.disable()
        try:
            with paused_gc():
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_overlapping_threads_restore_after_the_last_exit(self):
        entered, release = threading.Event(), threading.Event()
        seen = []

        def hold():
            with paused_gc():
                entered.set()
                release.wait(10)
            seen.append(gc.isenabled())

        thread = threading.Thread(target=hold)
        thread.start()
        assert entered.wait(10)
        with paused_gc():
            release.set()
            thread.join(10)
            assert not thread.is_alive()
            # The other thread left first; this pause still holds.
            assert seen == [False]
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_as_a_decorator(self):
        @paused_gc()
        def build():
            return gc.isenabled()

        assert build() is False
        assert build() is False
        assert gc.isenabled()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory, kv_small):
    path = tmp_path_factory.mktemp("heap") / "corpus.jsonl"
    write_records(kv_small.campaign.records[:600], path)
    return path


def test_the_fold_consumes_a_stream_paused(kv_small):
    seen = []

    def stream():
        for record in kv_small.campaign.records[:200]:
            seen.append(gc.isenabled())
            yield record

    matrix = ObservationMatrix.from_records(stream())
    assert matrix.num_records == 200
    assert seen and not any(seen)
    assert gc.isenabled()


def test_save_and_load_run_no_collector_pass(corpus, tmp_path):
    fitted = KBTEstimator(CONFIG, min_triples=1).fit(read_records(corpus))
    path = tmp_path / "model.kbt"
    with passes(FittedKBT.save) as counts:
        fitted.save(path)
    assert counts[1] == 0, counts
    with passes(load_artifact) as counts:
        artifact = load_artifact(path)
    assert counts[1] == 0, counts
    assert artifact.observations.num_records == 600


def test_read_records_collects_per_run_not_per_record(corpus, monkeypatch):
    runs = 6  # blocks of about 100 of the 600 lines
    monkeypatch.setattr(
        jsonl, "_BLOCK_BYTES", -(-corpus.stat().st_size // runs)
    )
    with passes(jsonl.JsonlLines.blocks) as counts:
        records = list(read_records(corpus))
    assert len(records) == 600
    assert counts[1] == 0, counts
    # Above the few allocations between two runs, below the hundreds a
    # run makes: one pass per run, where an unpaused parse makes ~40.
    with passes(threshold=50) as counts:
        assert len(list(read_records(corpus))) == 600
    assert counts[0] <= runs, counts


def test_a_processes_worker_runs_with_the_collector_on(
    corpus, tmp_path, monkeypatch
):
    """The fit forks after the paused fold, never inside a pause."""
    worker = backends._shard_worker

    def reporting_worker(index, *args):
        (tmp_path / f"worker-{index}").write_text(str(gc.isenabled()))
        worker(index, *args)

    monkeypatch.setattr(backends, "_shard_worker", reporting_worker)
    KBTEstimator(
        CONFIG, min_triples=1, backend="processes", num_shards=2
    ).fit(read_records(corpus))
    reports = sorted(tmp_path.glob("worker-*"))
    assert reports
    assert {path.read_text() for path in reports} == {"True"}
