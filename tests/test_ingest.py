"""Continuous-ingestion tests: spool tailing, micro-batching, the
staleness/drift policy, the live pipeline end to end, and the replay-
identity rung of the determinism ladder."""

import hashlib
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.kbt import FittedKBT, KBTEstimator
from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    page_source,
)
from repro.ingest import (
    IngestPipeline,
    InProcessPublisher,
    MicroBatcher,
    QueueRecordSource,
    SpoolDirectorySource,
    StalenessPolicy,
    StatusBoard,
)
from repro.io.jsonl import record_to_dict, write_records
from repro.serving.gateway import GatewayThread
from repro.serving.manager import StoreManager
from repro.serving.mmap_store import MmapTrustStore


def page_records(website, url, extractor, items, value_fn):
    return [
        ExtractionRecord(
            extractor=ExtractorKey((extractor,)),
            source=page_source(website, "p", url),
            item=DataItem(s, "p"),
            value=value_fn(s),
        )
        for s in items
    ]


def corpus():
    records = []
    subjects = [f"s{i}" for i in range(12)]
    for i, site in enumerate(["a.com", "b.com", "c.com", "good.com"]):
        records.extend(
            page_records(site, f"{site}/p", f"e{i % 2}", subjects,
                         lambda s: f"true-{s}")
        )
    records.extend(
        page_records("bad.com", "bad.com/p", "e0", subjects,
                     lambda s: f"false-{s}")
    )
    return records


def batch_for(site, tag, n=8, truthful=True):
    """One micro-batch: ``n`` fresh subjects claimed by ``site``."""
    subjects = [f"{tag}-{i}" for i in range(n)]
    value_fn = (
        (lambda s: f"true-{s}") if truthful else (lambda s: f"false-{s}")
    )
    return page_records(site, f"{site}/{tag}", "e0", subjects, value_fn)


@pytest.fixture(scope="module")
def fitted():
    return KBTEstimator().fit(corpus())


@pytest.fixture(scope="module")
def artifact(tmp_path_factory, fitted):
    path = tmp_path_factory.mktemp("artifacts") / "model.kbt"
    fitted.save(path)
    return path


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Satellite regression: tail-safe reads of a spool still being appended to
# ---------------------------------------------------------------------------
class TestTailSafeChunks:
    def test_truncated_trailing_line_returns_cleanly(self, tmp_path):
        records = corpus()[:7]
        write_records(records, tmp_path / "spool.jsonl")
        with open(tmp_path / "spool.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"extractor": ["e0"], "sou')  # torn mid-append
        source = SpoolDirectorySource(tmp_path)
        chunks = [source.poll(3) for _ in range(4)]
        assert [len(c) for c in chunks] == [3, 3, 1, 0]
        assert [r.value for c in chunks for r in c] == [
            r.value for r in records
        ]

    def test_truncated_valid_json_prefix_is_not_consumed(self, tmp_path):
        # The torn tail parses as JSON on its own ("1") but is still
        # unterminated — a writer may be mid-append of "12345".
        path = tmp_path / "spool.jsonl"
        write_records(corpus()[:2], path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("1")
        source = SpoolDirectorySource(tmp_path)
        assert len(source.poll(100)) == 2
        assert source.poll(100) == []
        # Left unread, the "1" is judged whole once its newline lands.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("2345\n")
        with pytest.raises(ValueError, match="malformed record"):
            source.poll(100)

    def test_interior_garbage_still_raises(self, tmp_path):
        with open(tmp_path / "spool.jsonl", "w", encoding="utf-8") as handle:
            handle.write("not json\n")
            handle.write(json.dumps(record_to_dict(corpus()[0])) + "\n")
        with pytest.raises(ValueError, match="invalid JSON"):
            SpoolDirectorySource(tmp_path).poll(100)


# ---------------------------------------------------------------------------
# Stream sources + micro-batcher
# ---------------------------------------------------------------------------
class TestSpoolDirectorySource:
    def test_tails_appends_and_new_files(self, tmp_path):
        source = SpoolDirectorySource(tmp_path)
        assert source.poll(100) == []
        write_records(corpus()[:3], tmp_path / "a.jsonl")
        assert len(source.poll(100)) == 3
        # Appends to an already-visited file are picked up...
        with open(tmp_path / "a.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record_to_dict(corpus()[3])) + "\n")
        # ...as are files that appear later.
        write_records(corpus()[4:6], tmp_path / "b.jsonl")
        assert len(source.poll(100)) == 3
        assert source.poll(100) == []
        assert not source.exhausted

    @staticmethod
    def append(path, records):
        with open(path, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record_to_dict(record)) + "\n")

    def test_rename_and_recreate_reads_the_new_file(self, tmp_path):
        spool = tmp_path / "spool.jsonl"
        write_records(corpus()[:3], spool)
        source = SpoolDirectorySource(tmp_path)
        assert len(source.poll(100)) == 3
        spool.rename(tmp_path / "spool.jsonl.1")
        write_records(corpus()[3:5], spool)
        assert [r.value for r in source.poll(100)] == [
            r.value for r in corpus()[3:5]
        ]
        self.append(spool, corpus()[5:7])
        assert [r.value for r in source.poll(100)] == [
            r.value for r in corpus()[5:7]
        ]
        assert source.poll(100) == []

    def test_rotation_drains_the_tail_appended_before_it(self, tmp_path):
        # A record appended after the last poll and before a rename
        # rotation is read from the held file, before the new file's.
        spool = tmp_path / "spool.jsonl"
        write_records(corpus()[:3], spool)
        source = SpoolDirectorySource(tmp_path)
        assert len(source.poll(100)) == 3
        self.append(spool, corpus()[3:4])
        spool.rename(tmp_path / "spool.jsonl.1")
        write_records(corpus()[4:6], spool)
        assert [r.value for r in source.poll(100)] == [
            r.value for r in corpus()[3:6]
        ]
        assert source.poll(100) == []
        source.close()

    def test_a_deleted_file_is_drained_and_closed(self, tmp_path):
        spool = tmp_path / "spool.jsonl"
        write_records(corpus()[:3], spool)
        source = SpoolDirectorySource(tmp_path)
        assert len(source.poll(100)) == 3
        self.append(spool, corpus()[3:5])
        spool.unlink()
        assert [r.value for r in source.poll(100)] == [
            r.value for r in corpus()[3:5]
        ]
        assert source._files == {}

    def test_close_closes_every_held_file(self, tmp_path):
        write_records(corpus()[:2], tmp_path / "a.jsonl")
        write_records(corpus()[2:4], tmp_path / "b.jsonl")
        source = SpoolDirectorySource(tmp_path)
        assert len(source.poll(100)) == 4
        handles = [held.handle for held in source._files.values()]
        assert len(handles) == 2 and not any(h.closed for h in handles)
        source.close()
        assert all(h.closed for h in handles)

    def test_copy_truncate_rereads_from_the_start(self, tmp_path):
        spool = tmp_path / "spool.jsonl"
        write_records(corpus()[:3], spool)
        source = SpoolDirectorySource(tmp_path)
        assert len(source.poll(100)) == 3
        (tmp_path / "spool.jsonl.1").write_bytes(spool.read_bytes())
        with open(spool, "r+b") as handle:
            handle.truncate(0)
        self.append(spool, corpus()[3:5])
        assert [r.value for r in source.poll(100)] == [
            r.value for r in corpus()[3:5]
        ]
        self.append(spool, corpus()[5:7])
        assert [r.value for r in source.poll(100)] == [
            r.value for r in corpus()[5:7]
        ]

    def test_a_vanished_name_is_forgotten(self, tmp_path):
        spool = tmp_path / "spool.jsonl"
        write_records(corpus()[:3], spool)
        source = SpoolDirectorySource(tmp_path)
        assert len(source.poll(100)) == 3
        spool.unlink()
        assert source.poll(100) == []
        # The same bytes again, maybe on the same inode: a new file.
        write_records(corpus()[:3], spool)
        assert len(source.poll(100)) == 3

    def test_partial_tail_reread_once_complete(self, tmp_path):
        # Only a newline-terminated line is trusted to be whole: a tail
        # cut mid-append waits for its newline — as the first line,
        # after complete records, and even when it parses as JSON on its
        # own (the whole record, its newline still to come).
        records = corpus()
        for name, before, cut in [
            ("first-line", 0, 10),
            ("after-records", 7, 26),
            ("parses-on-its-own", 2, None),
        ]:
            spool = tmp_path / name
            spool.mkdir()
            source = SpoolDirectorySource(spool)
            line = json.dumps(record_to_dict(records[before]))
            cut = len(line) if cut is None else cut
            path = spool / "a.jsonl"
            write_records(records[:before], path)
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(line[:cut])  # writer caught mid-append
            got = source.poll(100)
            assert [r.value for r in got] == [
                r.value for r in records[:before]
            ], name
            assert source.poll(100) == [], name
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(line[cut:] + "\n")
            got = source.poll(100)
            assert [r.value for r in got] == [records[before].value], name

    def test_poll_cap_carries_overflow(self, tmp_path):
        write_records(corpus()[:5], tmp_path / "a.jsonl")
        source = SpoolDirectorySource(tmp_path)
        assert len(source.poll(2)) == 2
        assert len(source.poll(2)) == 2
        assert len(source.poll(2)) == 1

    def test_terminated_garbage_raises(self, tmp_path):
        (tmp_path / "a.jsonl").write_text("garbage\n")
        source = SpoolDirectorySource(tmp_path)
        with pytest.raises(ValueError, match="invalid JSON"):
            source.poll(100)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="spool directory"):
            SpoolDirectorySource(tmp_path / "nope")


class TestMicroBatcher:
    def test_flushes_on_max_records(self):
        source = QueueRecordSource()
        source.push(corpus()[:10])
        source.close()
        batcher = MicroBatcher(source, max_records=4, max_latency=60.0)
        batches = list(batcher.batches())
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_flushes_on_latency(self):
        # Virtual clock: the first poll returns 2 records (below the
        # size threshold); the clock then jumps past the latency bound.
        source = QueueRecordSource()
        source.push(corpus()[:2])
        now = [0.0]
        batcher = MicroBatcher(
            source,
            max_records=100,
            max_latency=1.0,
            clock=lambda: now[0],
            sleep=lambda s: now.__setitem__(0, now[0] + 5.0),
        )
        iterator = batcher.batches()
        batch = next(iterator)
        assert len(batch) == 2

    def test_stop_drains_pending(self):
        source = QueueRecordSource()
        source.push(corpus()[:3])
        batcher = MicroBatcher(source, max_records=100, max_latency=60.0)
        batcher.stop()
        assert [len(b) for b in batcher.batches()] == [3]

    def test_validation(self):
        source = QueueRecordSource()
        with pytest.raises(ValueError, match="max_records"):
            MicroBatcher(source, max_records=0)
        with pytest.raises(ValueError, match="max_latency"):
            MicroBatcher(source, max_latency=0.0)

    def test_queue_source_close_semantics(self):
        source = QueueRecordSource()
        source.push(corpus()[0])
        source.close()
        with pytest.raises(RuntimeError, match="closed"):
            source.push(corpus()[1])
        assert not source.exhausted  # one record still queued
        assert len(source.poll(10)) == 1
        assert source.exhausted


# ---------------------------------------------------------------------------
# Staleness + drift policy
# ---------------------------------------------------------------------------
class TestStalenessPolicy:
    def scores(self, **sites):
        return dict(sites)

    def test_count_trigger(self):
        policy = StalenessPolicy(refit_after_batches=2)
        policy.rebaseline(self.scores(a=0.9))
        policy.observe(self.scores(a=0.9))
        assert policy.refit_due() is None
        assert policy.refit_countdown == 1
        policy.observe(self.scores(a=0.9))
        assert "warm updates" in policy.refit_due()
        policy.rebaseline(self.scores(a=0.9))
        assert policy.refit_due() is None
        assert policy.refit_countdown == 2

    def test_drift_trigger_measures_against_baseline(self):
        policy = StalenessPolicy(drift_refit_threshold=0.1)
        policy.rebaseline(self.scores(a=0.5, b=0.5))
        stats, _ = policy.observe(self.scores(a=0.56, b=0.5))
        assert stats.max_delta == pytest.approx(0.06)
        assert policy.refit_due() is None
        # Small per-batch moves accumulate vs the *baseline*: the drift
        # trigger catches a slow walk that per-generation deltas miss.
        stats, _ = policy.observe(self.scores(a=0.62, b=0.5))
        assert stats.worst_site == "a"
        assert stats.max_delta == pytest.approx(0.12)
        assert "drift" in policy.refit_due()

    def test_alerts_fire_between_generations(self):
        policy = StalenessPolicy(alert_band=0.05)
        policy.rebaseline(self.scores(a=0.9, b=0.9))
        _, alerts = policy.observe(self.scores(a=0.9, b=0.8))
        assert [a.site for a in alerts] == ["b"]
        assert alerts[0].delta == pytest.approx(-0.1)
        # No further move, no further alert — the band is generation
        # over generation, not vs baseline.
        _, alerts = policy.observe(self.scores(a=0.9, b=0.8))
        assert alerts == []
        assert [a.site for a in policy.alerts] == ["b"]

    def test_new_sites_counted_not_alerted(self):
        policy = StalenessPolicy()
        policy.rebaseline(self.scores(a=0.9))
        stats, alerts = policy.observe(self.scores(a=0.9, z=0.2))
        assert stats.new_sites == 1
        assert alerts == []

    def test_validation(self):
        with pytest.raises(ValueError, match="refit_after_batches"):
            StalenessPolicy(refit_after_batches=0)
        with pytest.raises(ValueError, match="drift_refit_threshold"):
            StalenessPolicy(drift_refit_threshold=0.0)
        with pytest.raises(ValueError, match="alert_band"):
            StalenessPolicy(alert_band=-1.0)


# ---------------------------------------------------------------------------
# StoreManager introspection + closed-swap safety (satellite)
# ---------------------------------------------------------------------------
class TestManagerStatus:
    def test_status_reports_generation_and_etag(self, artifact):
        manager = StoreManager(MmapTrustStore.open(artifact))
        try:
            status = manager.status()
            assert status["generation"] == 0
            assert status["etag"] == manager.etag
            manager.swap(artifact)
            assert manager.status()["generation"] == 1
        finally:
            manager.close()

    def test_swap_after_close_refuses(self, artifact):
        manager = StoreManager(MmapTrustStore.open(artifact))
        manager.close()
        with pytest.raises(RuntimeError, match="closed"):
            manager.swap(artifact)

    def test_close_racing_build_closes_fresh_store(self, artifact):
        closed = []

        class Probe:
            etag = "x"

            def close(self):
                closed.append(True)

        manager = StoreManager(
            MmapTrustStore.open(artifact),
            opener=lambda path: (manager.close(), Probe())[1],
        )
        with pytest.raises(RuntimeError, match="closed while building"):
            manager.swap(artifact)
        assert closed == [True]


# ---------------------------------------------------------------------------
# The pipeline end to end (in-process publisher + gateway)
# ---------------------------------------------------------------------------
class TestPipelineLive:
    def test_live_path(self, artifact, tmp_path):
        manager = StoreManager(MmapTrustStore.open(artifact))
        board = StatusBoard()
        with GatewayThread(manager, ingest_board=board) as url:
            def get(route):
                return json.loads(
                    urllib.request.urlopen(f"{url}{route}").read()
                )

            before = get("/readyz")
            assert before["generation"] == 0
            # No pipeline has attached yet: the board is empty.
            with pytest.raises(urllib.error.HTTPError) as err:
                get("/ingest/status")
            assert err.value.code == 404

            pipeline = IngestPipeline(
                FittedKBT.load(artifact),
                tmp_path / "gens",
                publisher=InProcessPublisher(manager),
                policy=StalenessPolicy(refit_after_batches=10),
                board=board,
                keep_generations=2,
            )
            # The served model advances without a restart...
            pipeline.process_batch(batch_for("fresh.example", "t0"))
            after = get("/readyz")
            assert after["generation"] == 1
            assert after["etag"] != before["etag"]
            # ...and the new site is queryable immediately.
            scored = get("/score?site=fresh.example")
            assert scored["key"] == "fresh.example"

            status = get("/ingest/status")
            assert status["generation"] == 1
            assert status["batches_applied"] == 1
            assert status["records_ingested"] == 8
            assert status["served_etag"] == after["etag"]
            assert status["last_drift"]["new_sites"] == 1

    def test_generation_monotonic_and_retention(self, artifact, tmp_path):
        manager = StoreManager(MmapTrustStore.open(artifact))
        pipeline = IngestPipeline(
            FittedKBT.load(artifact),
            tmp_path / "gens",
            publisher=InProcessPublisher(manager),
            keep_generations=2,
        )
        try:
            seen = []
            for i in range(5):
                pipeline.process_batch(batch_for("a.com", f"t{i}", n=4))
                seen.append(manager.status()["generation"])
            assert seen == [1, 2, 3, 4, 5]  # strictly monotonic
            kept = sorted(
                p.name
                for p in (tmp_path / "gens").glob("gen-*.kbt")
            )
            assert kept == ["gen-000004.kbt", "gen-000005.kbt"]
            # The retained artifacts' layouts survive; older are gone.
            layouts = list((tmp_path / "gens").glob("*.layout-*"))
            assert all(
                l.name.startswith(("gen-000004", "gen-000005"))
                for l in layouts
            )
        finally:
            manager.close()

    def test_drift_policy_triggers_cold_refit(self, artifact, tmp_path):
        # bad.com starts near 0; a stream of truthful claims from it
        # drags its score up until drift exceeds the threshold.
        pipeline = IngestPipeline(
            FittedKBT.load(artifact),
            tmp_path / "gens",
            policy=StalenessPolicy(drift_refit_threshold=0.15),
        )
        baseline = pipeline.fitted.website_scores()["bad.com"].score
        for i in range(6):
            if pipeline.refits:
                break
            pipeline.process_batch(
                batch_for("bad.com", f"honest{i}", n=16)
            )
        assert pipeline.refits >= 1
        reason = pipeline.board.snapshot()["last_refit_reason"]
        assert reason is not None and "drift" in reason
        # The refit re-decided bad.com's score from the combined
        # evidence and the drift baseline moved with it.
        assert (
            pipeline.fitted.website_scores()["bad.com"].score > baseline
        )

    def test_empty_batch_rejected(self, artifact, tmp_path):
        pipeline = IngestPipeline(
            FittedKBT.load(artifact), tmp_path / "gens"
        )
        with pytest.raises(ValueError, match="empty batch"):
            pipeline.process_batch([])

    def test_artifact_without_observations_rejected(
        self, fitted, tmp_path
    ):
        path = tmp_path / "slim.kbt"
        fitted.save(path, include_observations=False)
        with pytest.raises(ValueError, match="include_observations"):
            IngestPipeline(FittedKBT.load(path), tmp_path / "gens")


# ---------------------------------------------------------------------------
# Chained updates stay healthy over many generations (satellite)
# ---------------------------------------------------------------------------
class TestChainedUpdates:
    def test_ten_generations_bounded_drift_and_roundtrip(
        self, artifact, tmp_path
    ):
        pipeline = IngestPipeline(
            FittedKBT.load(artifact),
            tmp_path / "gens",
            keep_generations=12,
        )
        subjects = [f"s{i}" for i in range(12)]
        for i in range(10):
            # Corroborating claims on existing items from alternating
            # sites — the regime update() is specified for (the delta
            # touches items whose truth the full evidence decides).
            site = ["good.com", "a.com"][i % 2]
            pipeline.process_batch(
                page_records(
                    site, f"{site}/g{i}", "e1", subjects[i % 6 :][:6],
                    lambda s: f"true-{s}",
                )
            )
            # Every generation's artifact round-trips.
            path = (
                tmp_path / "gens" / f"gen-{pipeline.generation:06d}.kbt"
            )
            reloaded = FittedKBT.load(path)
            assert reloaded.website_scores().keys() == (
                pipeline.fitted.website_scores().keys()
            )
        assert pipeline.generation == 10

        # Ten warm generations stay close to a cold fit over the same
        # combined evidence (the update()-vs-refit agreement bound).
        cold = KBTEstimator(
            config=pipeline.fitted.config,
            min_triples=pipeline.fitted.min_triples,
            seed=pipeline.fitted.seed,
        ).fit(pipeline.fitted.observations)
        warm_scores = pipeline.fitted.website_scores()
        cold_scores = cold.website_scores()
        assert warm_scores.keys() == cold_scores.keys()
        for site, warm in warm_scores.items():
            assert warm.score == pytest.approx(
                cold_scores[site].score, abs=0.05
            ), site


# ---------------------------------------------------------------------------
# Replay identity (determinism ladder, rung 6)
# ---------------------------------------------------------------------------
class TestReplayIdentity:
    def batches(self):
        return [
            batch_for("fresh.example", "t0"),
            batch_for("a.com", "t1", n=5),
            batch_for("bad.com", "t2", n=7, truthful=False),
        ]

    def test_pipeline_replay_is_bit_identical(self, artifact, tmp_path):
        digests = []
        for run in ("first", "second"):
            pipeline = IngestPipeline(
                FittedKBT.load(artifact), tmp_path / run
            )
            for batch in self.batches():
                pipeline.process_batch(batch)
            digests.append(
                [
                    sha256(p)
                    for p in sorted((tmp_path / run).glob("gen-*.kbt"))
                ]
            )
        assert digests[0] == digests[1]

    def test_pipeline_matches_manual_update_chain(
        self, artifact, tmp_path
    ):
        pipeline = IngestPipeline(
            FittedKBT.load(artifact), tmp_path / "pipe"
        )
        for batch in self.batches():
            pipeline.process_batch(batch)

        # The same update() sequence run by hand, saved with the same
        # metadata, must produce byte-identical artifacts.
        fitted = FittedKBT.load(artifact)
        manual_dir = tmp_path / "manual"
        manual_dir.mkdir()
        for generation, batch in enumerate(self.batches(), start=1):
            fitted = fitted.update(batch, sweeps=2)
            fitted.save(
                manual_dir / f"gen-{generation:06d}.kbt",
                metadata={
                    "ingest_generation": generation,
                    "batch_records": len(batch),
                    "cold_refit": False,
                },
            )
        pipe_digests = [
            sha256(p) for p in sorted((tmp_path / "pipe").glob("*.kbt"))
        ]
        manual_digests = [
            sha256(p) for p in sorted(manual_dir.glob("*.kbt"))
        ]
        assert pipe_digests == manual_digests

    def test_save_is_time_independent(self, fitted, tmp_path):
        # The underpinning guarantee: artifact bytes are a pure
        # function of the fitted state, not of when save() ran.
        a = fitted.save(tmp_path / "a.kbt")
        time.sleep(1.1)  # cross a zip-timestamp second boundary
        b = fitted.save(tmp_path / "b.kbt")
        assert a.read_bytes() == b.read_bytes()


class TestIngestPlacement:
    @pytest.fixture
    def fits(self, monkeypatch):
        """(backend, shards, iterations) of every fit, as it opens."""
        from repro.exec import driver

        seen = []

        def recording(backend, real):
            class Recording(real):
                def open(self, source, cfg):
                    seen.append(
                        (
                            backend,
                            cfg.num_shards,
                            cfg.convergence.max_iterations,
                        )
                    )
                    return super().open(source, cfg)

            return Recording

        for backend, real in driver.BACKENDS.items():
            monkeypatch.setitem(
                driver.BACKENDS, backend, recording(backend, real)
            )
        # Keep the suite's own SIGINT/SIGTERM handlers.
        monkeypatch.setattr("signal.signal", lambda *_: None)
        return seen

    def ingest(self, workdir, *flags) -> bytes:
        """One CLI ingest run: one batch, then a forced cold refit."""
        from repro.cli import main

        workdir.mkdir()
        model = workdir / "model.kbt"
        KBTEstimator().fit(corpus()).save(model)
        batch = batch_for("fresh.example", "t0")
        (workdir / "spool").mkdir()
        write_records(batch, workdir / "spool" / "a.jsonl")
        assert main([
            "ingest", str(model), "--watch", str(workdir / "spool"),
            "--batch-records", str(len(batch)), "--max-batches", "1",
            "--refit-after", "1", *flags,
        ]) == 0
        return (
            workdir / "model.kbt.generations" / "gen-000001.kbt"
        ).read_bytes()

    def test_cold_refit_runs_where_the_updates_run(self, tmp_path, fits):
        placed = self.ingest(
            tmp_path / "placed", "--backend", "threads", "--shards", "2"
        )
        # The starting fit; then, where the flags say, the warm update
        # (2 sweeps) and the cold refit (the model's 5 iterations).
        start = ("serial", None, 5)
        assert fits == [start, ("threads", 2, 2), ("threads", 2, 5)]
        del fits[:]
        plain = self.ingest(tmp_path / "plain")
        assert fits == [start, ("serial", None, 2), ("serial", None, 5)]
        assert placed == plain


# ---------------------------------------------------------------------------
# Status board + remote status publishing
# ---------------------------------------------------------------------------
class TestStatusBoard:
    def test_alert_ring_bounded(self):
        board = StatusBoard(alert_ring_size=3)
        for i in range(5):
            board.add_alert({"site": f"s{i}"})
        snapshot = board.snapshot()
        assert [a["site"] for a in snapshot["alerts"]] == [
            "s2", "s3", "s4",
        ]

    def test_empty_board_snapshot_is_none(self):
        assert StatusBoard().snapshot() is None

    def test_replace_validates(self):
        board = StatusBoard()
        with pytest.raises(ValueError, match="must be an object"):
            board.replace([1, 2])
        with pytest.raises(ValueError, match="alerts"):
            board.replace({"alerts": "nope"})
        # A snapshot rejected part-way through its alerts changes nothing.
        board.replace({"generation": 3, "alerts": [{"site": "a"}]})
        before = board.snapshot()
        with pytest.raises(TypeError):
            board.replace({"generation": 99, "alerts": [{"site": "b"}, 1]})
        assert board.snapshot() == before

    def test_remote_status_post(self, artifact):
        manager = StoreManager(MmapTrustStore.open(artifact))
        with GatewayThread(manager, admin_token="sekrit") as url:
            snapshot = json.dumps(
                {"generation": 7, "alerts": [{"site": "a.com"}]}
            ).encode()

            def post(token=None):
                request = urllib.request.Request(
                    f"{url}/ingest/status",
                    data=snapshot,
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                if token:
                    request.add_header("X-Admin-Token", token)
                return urllib.request.urlopen(request)

            # The publish side is admin-gated like /admin/swap...
            with pytest.raises(urllib.error.HTTPError) as err:
                post()
            assert err.value.code == 403
            assert json.loads(post("sekrit").read()) == {
                "status": "accepted"
            }
            # ...the read side is open.
            served = json.loads(
                urllib.request.urlopen(f"{url}/ingest/status").read()
            )
            assert served["generation"] == 7
            assert served["alerts"] == [{"site": "a.com"}]


# ---------------------------------------------------------------------------
# The batcher drives the pipeline (threaded, as `kbt ingest` runs it)
# ---------------------------------------------------------------------------
class TestBatcherIntegration:
    def test_spool_to_pipeline(self, artifact, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        source = SpoolDirectorySource(spool)
        batcher = MicroBatcher(
            source, max_records=8, max_latency=0.2, poll_interval=0.01
        )
        pipeline = IngestPipeline(
            FittedKBT.load(artifact), tmp_path / "gens"
        )

        def feed():
            write_records(
                batch_for("fresh.example", "w0"), spool / "a.jsonl"
            )
            time.sleep(0.05)
            write_records(batch_for("a.com", "w1", n=3), spool / "b.jsonl")
            time.sleep(0.4)
            batcher.stop()

        feeder = threading.Thread(target=feed)
        feeder.start()
        processed = pipeline.run(batcher.batches())
        feeder.join()
        assert processed >= 1
        assert pipeline.records_ingested == 11
        assert "fresh.example" in pipeline.fitted.website_scores()
