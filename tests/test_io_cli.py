"""Unit tests for JSONL/CSV serialisation and the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.core.kbt import KBTScore
from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    SourceKey,
)
from repro.io.jsonl import (
    read_records,
    record_from_dict,
    record_to_dict,
    write_records,
)
from repro.io.reports import write_score_csv


def sample_records():
    return [
        ExtractionRecord(
            extractor=ExtractorKey(("sys", "pat", "capital", "geo.example")),
            source=SourceKey(("geo.example", "capital", "geo.example/fr")),
            item=DataItem("france", "capital"),
            value="paris",
            confidence=0.9,
        ),
        ExtractionRecord(
            extractor=ExtractorKey(("sys",)),
            source=SourceKey(("num.example",), bucket=2),
            item=DataItem("france", "population"),
            value=67.5,
        ),
    ]


class TestJsonlRoundtrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "records.jsonl"
        originals = sample_records()
        assert write_records(originals, path) == 2
        loaded = list(read_records(path))
        assert loaded == originals

    def test_dict_roundtrip_preserves_buckets(self):
        record = sample_records()[1]
        assert record_from_dict(record_to_dict(record)) == record

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "records.jsonl"
        record = sample_records()[0]
        path.write_text(
            json.dumps(record_to_dict(record)) + "\n\n\n", encoding="utf-8"
        )
        assert list(read_records(path)) == [record]

    def test_invalid_json_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="invalid JSON"):
            list(read_records(path))

    def test_missing_field_reported(self):
        with pytest.raises(ValueError, match="malformed record"):
            record_from_dict({"subject": "x"})

    def test_numeric_values_survive(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records(sample_records(), path)
        loaded = list(read_records(path))
        assert loaded[1].value == 67.5


class TestScoreCsv:
    def test_sorted_output(self, tmp_path):
        path = tmp_path / "scores.csv"
        scores = {
            "b.com": KBTScore("b.com", 0.5, 10.0),
            "a.com": KBTScore("a.com", 0.9, 7.0),
        }
        assert write_score_csv(scores, path) == 2
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "key,kbt,support"
        assert lines[1].startswith("a.com,0.9")

    def test_tuple_keys_joined(self, tmp_path):
        path = tmp_path / "scores.csv"
        scores = {
            ("a.com", "a.com/p"): KBTScore(("a.com", "a.com/p"), 0.7, 6.0)
        }
        write_score_csv(scores, path)
        assert "a.com|a.com/p" in path.read_text()

    def test_ties_break_on_key(self, tmp_path):
        path = tmp_path / "scores.csv"
        scores = {
            "b.com": KBTScore("b.com", 0.5, 10.0),
            "a.com": KBTScore("a.com", 0.5, 7.0),
            "c.com": KBTScore("c.com", 0.5, 3.0),
        }
        write_score_csv(scores, path)
        keys = [line.split(",")[0]
                for line in path.read_text().strip().splitlines()[1:]]
        assert keys == ["a.com", "b.com", "c.com"]

    def test_output_deterministic_across_dict_orders(self, tmp_path):
        entries = [
            ("b.com", 0.5, 10.0), ("a.com", 0.5, 7.0), ("x.com", 0.9, 1.0)
        ]
        forward = {k: KBTScore(k, s, n) for k, s, n in entries}
        backward = {
            k: KBTScore(k, s, n) for k, s, n in reversed(entries)
        }
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_score_csv(forward, path_a)
        write_score_csv(backward, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()


class TestAtomicWrite:
    def test_fsyncs_parent_directory_after_rename(
        self, tmp_path, monkeypatch
    ):
        """Power-loss safety: the rename must be made durable by fsyncing
        the parent directory *after* ``os.replace``, not just the file
        data before it."""
        import os
        import stat

        from repro.io.atomic import atomic_write

        target = tmp_path / "manifest.json"
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            st = os.fstat(fd)
            synced.append(
                (
                    st.st_ino,
                    stat.S_ISDIR(st.st_mode),
                    target.exists(),
                )
            )
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        with atomic_write(target, "w", encoding="utf-8") as handle:
            handle.write("{}")

        assert target.read_text(encoding="utf-8") == "{}"
        dir_ino = os.stat(tmp_path).st_ino
        dir_syncs = [s for s in synced if s[0] == dir_ino]
        # The parent directory fd was opened and fsynced exactly once,
        # after the rename had already published the target.
        assert [(is_dir, visible) for _, is_dir, visible in dir_syncs] == [
            (True, True)
        ]
        # The file data itself was fsynced before the rename.
        file_syncs = [s for s in synced if not s[1]]
        assert file_syncs and not file_syncs[0][2]

    def test_no_dir_fsync_when_body_raises(self, tmp_path, monkeypatch):
        import os

        from repro.io.atomic import atomic_write

        target = tmp_path / "manifest.json"
        synced_dirs = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            import stat

            if stat.S_ISDIR(os.fstat(fd).st_mode):
                synced_dirs.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        with pytest.raises(RuntimeError):
            with atomic_write(target, "w", encoding="utf-8") as handle:
                handle.write("partial")
                raise RuntimeError("boom")
        assert not target.exists()
        assert synced_dirs == []
        assert list(tmp_path.iterdir()) == []


class TestCli:
    def test_demo_then_estimate(self, tmp_path, capsys):
        demo_path = tmp_path / "demo.jsonl"
        scores_path = tmp_path / "scores.csv"
        assert main([
            "demo", str(demo_path), "--websites", "30", "--systems", "4",
            "--items-per-predicate", "15", "--seed", "5",
        ]) == 0
        assert demo_path.exists()
        assert main([
            "fit", str(demo_path), "-o", str(scores_path),
            "--top", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "KBT for" in out
        assert scores_path.exists()
        header = scores_path.read_text().splitlines()[0]
        assert header == "key,kbt,support"

    def test_estimate_with_split_merge(self, tmp_path):
        demo_path = tmp_path / "demo.jsonl"
        main(["demo", str(demo_path), "--websites", "30", "--systems", "4",
              "--items-per-predicate", "15", "--seed", "5"])
        assert main([
            "fit", str(demo_path), "--split-merge",
            "--min-size", "3", "--max-size", "500",
        ]) == 0

    def test_estimate_empty_file_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["fit", str(empty)]) == 1
        assert "no records" in capsys.readouterr().err

    def test_estimate_threshold_too_high_fails(self, tmp_path, capsys):
        path = tmp_path / "one.jsonl"
        write_records(sample_records()[:1], path)
        assert main(
            ["fit", str(path), "--min-triples", "100"]
        ) == 1
        assert "support threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("spill", [False, True], ids=["plain", "spill"])
    def test_fit_refuses_a_torn_last_line(self, spill, tmp_path, capsys):
        """Every batch fit reads strictly: a file whose last line was cut
        mid-record is a located error, never a silent fit of the prefix
        (``--spill-dir`` used to read through the tailers' tolerant
        chunk reader)."""
        path = tmp_path / "torn.jsonl"
        write_records(sample_records(), path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"extractor": ["e"], "sou')
        argv = ["fit", str(path), "--min-triples", "0"]
        if spill:
            argv += ["--spill-dir", str(tmp_path / "spill")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert f"error: {path}:3: invalid JSON" in captured.err
        assert "KBT for" not in captured.out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestLifecycleCli:
    """demo -> fit -> query/update round trips through the CLI."""

    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("lifecycle")
        demo = root / "demo.jsonl"
        artifact = root / "model.kbt"
        assert main([
            "demo", str(demo), "--websites", "30", "--systems", "4",
            "--items-per-predicate", "15", "--seed", "5",
        ]) == 0
        assert main(["fit", str(demo), "--artifact", str(artifact)]) == 0
        return root, demo, artifact

    def query_json(self, capsys, argv):
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    def test_fit_writes_loadable_artifact(self, artifact, capsys):
        _root, _demo, path = artifact
        payload = self.query_json(
            capsys, ["query", str(path), "--stats"]
        )
        assert payload["status"] == "ok"
        assert payload["websites"] > 0

    def test_query_matches_estimate_scores(self, artifact, capsys):
        _root, demo, path = artifact
        top = self.query_json(capsys, ["query", str(path), "--top", "3"])
        assert len(top) == 3
        assert top[0]["score"] >= top[-1]["score"]
        site = top[0]["key"]
        single = self.query_json(
            capsys, ["query", str(path), "--site", site]
        )
        assert single == top[0]
        breakdown = self.query_json(
            capsys, ["query", str(path), "--breakdown", site]
        )
        assert breakdown["num_sources"] >= 1

    def test_query_unknown_site_fails(self, artifact, capsys):
        _root, _demo, path = artifact
        assert main(["query", str(path), "--site", "nosuch"]) == 1
        assert "no score" in capsys.readouterr().err

    def test_update_cli_round_trip(self, artifact, capsys):
        root, demo, path = artifact
        new = root / "new.jsonl"
        new_records = [
            ExtractionRecord(
                extractor=ExtractorKey(("sys",)),
                source=SourceKey(
                    ("fresh.example", "p", f"fresh.example/{i % 2}")
                ),
                item=DataItem(f"item{i}", "p"),
                value=f"v{i}",
            )
            for i in range(8)
        ]
        write_records(new_records, new)
        out = root / "updated.kbt"
        assert main([
            "update", str(path), str(new), "--artifact-out", str(out),
            "--sweeps", "2",
        ]) == 0
        capsys.readouterr()
        payload = self.query_json(
            capsys, ["query", str(out), "--site", "fresh.example"]
        )
        assert payload["key"] == "fresh.example"

    def test_fit_with_backend_matches_plain_fit(self, artifact, capsys):
        """--backend/--shards change execution, never the scores."""
        root, demo, path = artifact
        sharded = root / "sharded.kbt"
        assert main([
            "fit", str(demo), "--artifact", str(sharded),
            "--backend", "processes", "--shards", "3",
        ]) == 0
        capsys.readouterr()
        plain = self.query_json(
            capsys, ["query", str(path), "--top", "5"]
        )
        via_backend = self.query_json(
            capsys, ["query", str(sharded), "--top", "5"]
        )
        assert via_backend == plain

    def test_update_with_backend_flag(self, artifact, capsys):
        root, demo, path = artifact
        out = root / "updated_sharded.kbt"
        assert main([
            "update", str(path), str(demo), "--artifact-out", str(out),
            "--backend", "serial", "--shards", "2",
        ]) == 0
        capsys.readouterr()
        payload = self.query_json(capsys, ["query", str(out), "--stats"])
        assert payload["status"] == "ok"

    def test_unknown_backend_rejected_by_parser(self, artifact, capsys):
        _root, demo, _path = artifact
        with pytest.raises(SystemExit):
            main(["fit", str(demo), "--backend", "gpu"])

    def test_update_refuses_serving_only_artifact(
        self, artifact, capsys
    ):
        root, demo, path = artifact
        slim = root / "slim.kbt"
        assert main([
            "fit", str(demo), "--artifact", str(slim), "--no-observations",
        ]) == 0
        capsys.readouterr()
        assert main(["update", str(slim), str(demo)]) == 1
        assert "observation" in capsys.readouterr().err

    def test_signals_on_plain_artifact_fails(self, artifact, capsys):
        _root, _demo, path = artifact
        assert main(["signals", str(path)]) == 1
        assert "no trust signals" in capsys.readouterr().err

    def test_query_rejects_future_artifact(self, artifact, tmp_path, capsys):
        import zipfile

        _root, _demo, path = artifact
        future = tmp_path / "future.kbt"
        with zipfile.ZipFile(path) as archive:
            members = {
                name: archive.read(name) for name in archive.namelist()
            }
        header = json.loads(members["header.json"])
        header["format_version"] += 1
        members["header.json"] = json.dumps(header)
        with zipfile.ZipFile(future, "w") as archive:
            for name, data in members.items():
                archive.writestr(name, data)
        assert main(["query", str(future), "--stats"]) == 1
        assert "format version" in capsys.readouterr().err


class TestSignalsCli:
    """demo --gold -> fit --signals -> signals/compare round trips."""

    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("signals-cli")
        demo = root / "demo.jsonl"
        gold = root / "gold.jsonl"
        artifact = root / "model.kbt"
        assert main([
            "demo", str(demo), "--websites", "30", "--systems", "4",
            "--items-per-predicate", "15", "--seed", "5",
            "--gold", str(gold),
        ]) == 0
        assert gold.exists()
        assert main([
            "fit", str(demo), "--artifact", str(artifact),
            "--signals", "kbt,pagerank,copydetect", "--gold", str(gold),
        ]) == 0
        return root, artifact

    def test_fit_embeds_selected_signals(self, artifact, capsys):
        _root, path = artifact
        assert main(["signals", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [s["name"] for s in payload["signals"]] == [
            "kbt", "pagerank", "copydetect"
        ]
        # calibrated weights are normalised and every signal scores sites
        weights = {s["name"]: s["weight"] for s in payload["signals"]}
        assert sum(weights.values()) == pytest.approx(1.0)
        assert all(weight > 0 for weight in weights.values())
        assert all(s["websites"] >= 1 for s in payload["signals"])

    def test_signals_site_breakdown(self, artifact, capsys):
        _root, path = artifact
        assert main(["signals", str(path)]) == 0
        capsys.readouterr()
        from repro.serving.store import TrustStore

        site = TrustStore.open(str(path)).top(1)[0].key
        assert main(["signals", str(path), "--site", site]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["key"] == site
        assert payload["signals"]["kbt"]["score"] is not None
        assert payload["fused"] is not None

    def test_signals_unknown_site_fails(self, artifact, capsys):
        _root, path = artifact
        assert main(["signals", str(path), "--site", "nosuch"]) == 1
        assert "no signal scores" in capsys.readouterr().err

    def test_compare_prints_quadrants(self, artifact, capsys):
        _root, path = artifact
        assert main([
            "compare", str(path), "--a", "kbt", "--b", "pagerank",
            "--k", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "Pearson correlation" in out
        assert "high kbt, low pagerank" in out
        assert "high pagerank, low kbt" in out

    def test_compare_json_payload(self, artifact, capsys):
        _root, path = artifact
        assert main([
            "compare", str(path), "--a", "kbt", "--b", "copydetect",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["a"] == "kbt"
        assert payload["b"] == "copydetect"
        assert payload["websites_compared"] >= 1

    def test_compare_unknown_signal_fails(self, artifact, capsys):
        _root, path = artifact
        assert main(["compare", str(path), "--a", "kbt", "--b", "x"]) == 1
        assert "unknown signal" in capsys.readouterr().err

    def test_fit_unknown_signal_fails(self, artifact, tmp_path, capsys):
        root, _path = artifact
        assert main([
            "fit", str(root / "demo.jsonl"),
            "--artifact", str(tmp_path / "x.kbt"),
            "--signals", "nosuch",
        ]) == 1
        assert "unknown signal" in capsys.readouterr().err

    def test_update_drops_stale_signals_with_notice(
        self, artifact, tmp_path, capsys
    ):
        root, path = artifact
        out = tmp_path / "updated.kbt"
        assert main([
            "update", str(path), str(root / "demo.jsonl"),
            "--artifact-out", str(out),
        ]) == 0
        assert "trust signals" in capsys.readouterr().err
        from repro.io.artifact import load_artifact

        assert load_artifact(str(out)).signals == {}

    def test_fit_gold_requires_signals(self, artifact, capsys):
        root, _path = artifact
        assert main([
            "fit", str(root / "demo.jsonl"),
            "--gold", str(root / "gold.jsonl"),
        ]) == 1
        assert "--signals" in capsys.readouterr().err

    def test_fit_signals_without_artifact_notes(self, artifact, capsys):
        root, _path = artifact
        assert main([
            "fit", str(root / "demo.jsonl"), "--signals", "kbt,pagerank",
        ]) == 0
        assert "not persisted" in capsys.readouterr().err

    def test_fit_rejects_malformed_gold(self, artifact, tmp_path, capsys):
        root, _path = artifact
        bad_gold = tmp_path / "bad.jsonl"
        bad_gold.write_text('{"website": "a"}\n', encoding="utf-8")
        assert main([
            "fit", str(root / "demo.jsonl"),
            "--artifact", str(tmp_path / "x.kbt"),
            "--signals", "kbt", "--gold", str(bad_gold),
        ]) == 1
        assert "malformed gold label" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "label",
        ['"accurate": "false"', '"accurate": 0', '"accuracy": "0.2"',
         '"accuracy": true', '"accurate": null'],
    )
    def test_gold_label_must_be_a_json_boolean_or_number(
        self, label, tmp_path
    ):
        """``"accurate": "false"`` used to label the site accurate."""
        from repro.cli import _read_gold_labels

        gold = tmp_path / "gold.jsonl"
        gold.write_text(
            '{"website": "a", "accurate": false}\n'
            '{"website": "b", "accuracy": 0.5}\n'
            '{"website": "c", "accuracy": 0}\n',
            encoding="utf-8",
        )
        assert _read_gold_labels(str(gold)) == {
            "a": False, "b": True, "c": False,
        }
        with gold.open("a", encoding="utf-8") as handle:
            handle.write('{"website": "d", %s}\n' % label)
        with pytest.raises(
            ValueError, match=rf"{gold}:4: malformed gold label"
        ):
            _read_gold_labels(str(gold))
