"""Out-of-core shard streaming: spill round-trips, parity, failure modes.

The contract under test extends the PR 4 guarantee to residency: a fit
that spills its shard packets and global arrays to disk and streams them
back as memory-mapped views (``MultiLayerConfig.spill_dir``) is
**bit-identical** to the resident numpy engine for every backend, shard
count, and ``max_resident_shards`` cap — spilling changes where arrays
live, never a single bit of the result. Alongside parity: a matrix fed
from record chunks compiles to bit-identical arrays, spill failure modes
raise clear ``SpillError``s (not tracebacks from deep inside numpy), the
new config fields validate and round-trip through artifacts, and the
chunked dataset readers reproduce their resident generators.
"""

from __future__ import annotations

import dataclasses
import json
from itertools import chain

import pytest

pytest.importorskip("numpy")

import numpy as np

from repro.core.config import AbsenceScope, MultiLayerConfig
from repro.core.indexing import compile_problem
from repro.core.multi_layer import MultiLayerModel
from repro.core.observation import ObservationMatrix
from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    SourceKey,
)
from repro.exec.driver import fit_sharded
from repro.exec.plan import ShardPlan, _contiguous_cuts
from repro.exec.spill import (
    OutOfCoreShardSource,
    SpillError,
    persist_plan,
    spill_problem_arrays,
)
from tests.test_exec_backends import assert_parity

SOURCES = [SourceKey((f"w{i}",)) for i in range(5)]
EXTRACTORS = [ExtractorKey((f"e{i}",)) for i in range(4)]
ITEMS = [DataItem(f"s{i}", "p") for i in range(4)]

#: The CompiledProblem numpy-array fields compared for bit-identity.
PROBLEM_ARRAYS = (
    "coord_source",
    "coord_triple",
    "coord_item",
    "entry_coord",
    "entry_col",
    "entry_conf",
    "claim_coord",
    "claim_triple",
    "triple_item",
    "item_ptr",
    "item_num_values",
    "active_src",
    "active_col",
)


def chunked(records, size):
    return [records[i : i + size] for i in range(0, len(records), size)]


# ----------------------------------------------------------------------
# A matrix fed from record chunks: what the out-of-core pipeline builds
# ----------------------------------------------------------------------
def chunk_fed(records, chunk_size):
    """The matrix of a chunked reader (a single-pass iterator)."""
    return ObservationMatrix.from_records(
        chain.from_iterable(iter(chunked(records, chunk_size)))
    )


class TestChunkFedMatrix:
    def assert_compile_identical(self, records, cfg, chunk_size=7):
        matrix = ObservationMatrix.from_records(records)
        corpus = chunk_fed(records, chunk_size)
        prob_a = compile_problem(matrix, cfg)
        prob_b = compile_problem(corpus, cfg)
        for name in PROBLEM_ARRAYS:
            assert np.array_equal(
                getattr(prob_a, name), getattr(prob_b, name)
            ), name
        assert prob_a.coords == prob_b.coords
        assert prob_a.sources == prob_b.sources
        assert prob_a.extractors == prob_b.extractors
        assert prob_a.cols == prob_b.cols
        assert prob_a.items == prob_b.items
        assert prob_a.triple_value == prob_b.triple_value
        assert prob_a.estimable_sources == prob_b.estimable_sources
        assert prob_a.estimable_extractors == prob_b.estimable_extractors
        assert corpus.num_triples == matrix.num_triples
        assert corpus.num_records == matrix.num_records
        return corpus

    def test_matches_matrix_on_synthetic(self, synthetic_matrix):
        records = list(synthetic_matrix.iter_records())
        self.assert_compile_identical(
            records, MultiLayerConfig(engine="numpy")
        )

    def test_matches_matrix_with_supports_and_threshold(self):
        records = [
            ExtractionRecord(
                extractor=EXTRACTORS[i % 4],
                source=SOURCES[i % 5],
                item=ITEMS[i % 4],
                value=f"v{i % 3}",
                confidence=(i % 10 + 1) / 10.0,
            )
            for i in range(60)
        ]
        cfg = MultiLayerConfig(
            engine="numpy",
            min_source_support=2,
            min_extractor_support=2,
            confidence_threshold=0.5,
            absence_scope=AbsenceScope.ACTIVE,
        )
        self.assert_compile_identical(records, cfg, chunk_size=11)

    def test_replicates_cell_quirks(self):
        """What a duplicate record does to the maintained counters.

        Duplicates keep the max confidence, a weaker later record
        changes nothing, and a stronger one overwrites the confidence
        without re-counting the (coord, extractor) pair toward support —
        yet every record counts and marks its extractor active.
        """
        records = [
            ExtractionRecord(
                extractor=EXTRACTORS[0], source=SOURCES[0],
                item=ITEMS[0], value="a", confidence=0.3,
            ),
            ExtractionRecord(
                extractor=EXTRACTORS[1], source=SOURCES[1],
                item=ITEMS[0], value="a", confidence=0.4,
            ),
            ExtractionRecord(
                extractor=EXTRACTORS[1], source=SOURCES[1],
                item=ITEMS[0], value="a", confidence=0.9,
            ),
            ExtractionRecord(
                extractor=EXTRACTORS[1], source=SOURCES[1],
                item=ITEMS[0], value="a", confidence=0.2,
            ),
        ]
        corpus = self.assert_compile_identical(
            records, MultiLayerConfig(engine="numpy"), chunk_size=1
        )
        assert corpus.num_records == 4
        assert corpus.cell((SOURCES[1], ITEMS[0], "a")) == {
            EXTRACTORS[1]: 0.9
        }
        assert corpus.source_sizes() == {SOURCES[0]: 1, SOURCES[1]: 1}
        assert corpus.extractor_sizes() == {
            EXTRACTORS[0]: 1,
            EXTRACTORS[1]: 1,
        }
        assert list(corpus.sources()) == SOURCES[:2]
        assert list(corpus.extractors()) == EXTRACTORS[:2]
        assert corpus.active_extractors(SOURCES[1]) == {EXTRACTORS[1]}

    def test_release_frees_cells_keeps_stats(self, synthetic_matrix):
        records = list(synthetic_matrix.iter_records())
        cfg = MultiLayerConfig(engine="numpy")
        corpus = chunk_fed(records, 13)
        problem = compile_problem(corpus, cfg)
        corpus.release()
        assert problem.num_coords > 0
        assert corpus.num_triples == synthetic_matrix.num_triples
        assert corpus.num_records == synthetic_matrix.num_records
        assert list(corpus.sources()) == list(synthetic_matrix.sources())
        with pytest.raises(RuntimeError, match="released"):
            list(corpus.cells())
        with pytest.raises(RuntimeError, match="released"):
            list(corpus.items())
        with pytest.raises(RuntimeError, match="released"):
            corpus.extended(synthetic_matrix)

    def test_chunk_fed_fit_updates_like_a_list_fed_one(
        self, kv_small, tmp_path
    ):
        """The removed restriction's opposite: a fit fed from chunks
        warm-updates, to the same artifact bytes as a list-fed one."""
        from repro.core.kbt import KBTEstimator

        records = list(kv_small.campaign.records)
        held_site = records[-1].source.website
        base = [r for r in records if r.source.website != held_site]
        new = [r for r in records if r.source.website == held_site]
        estimator = KBTEstimator(engine="numpy", min_triples=0.0)
        streamed = estimator.fit(chunk_fed(base, 17)).update(new)
        listed = estimator.fit(base).update(new)
        assert (
            streamed.save(tmp_path / "streamed.kbt").read_bytes()
            == listed.save(tmp_path / "listed.kbt").read_bytes()
        )

    def test_chunk_fed_fit_runs_python_engine_and_granularity(
        self, synthetic_matrix
    ):
        """Also no longer refused: the python engine and SPLITANDMERGE
        read the same matrix whichever way it was fed."""
        from repro.core.config import GranularityConfig
        from repro.core.kbt import KBTEstimator

        records = list(synthetic_matrix.iter_records())
        for options in (
            {"engine": "python"},
            {
                "engine": "numpy",
                "granularity": GranularityConfig(min_size=2, max_size=20),
            },
        ):
            estimator = KBTEstimator(min_triples=0.0, **options)
            assert (
                estimator.fit(chunk_fed(records, 17)).result.source_accuracy
                == estimator.fit(records).result.source_accuracy
            )


# ----------------------------------------------------------------------
# Spill round-trip + failure modes
# ----------------------------------------------------------------------
def small_plan(synthetic_matrix, num_shards=3):
    cfg = MultiLayerConfig(engine="numpy")
    prob = compile_problem(synthetic_matrix, cfg)
    return cfg, prob, ShardPlan.from_problem(prob, cfg, num_shards)


class TestSpillRoundTrip:
    def test_persist_and_reopen_bit_identical(
        self, synthetic_matrix, tmp_path
    ):
        _cfg, _prob, plan = small_plan(synthetic_matrix)
        plan.persist(tmp_path)
        source = OutOfCoreShardSource(tmp_path)
        assert source.num_shards == plan.num_shards
        assert source.num_coords == plan.num_coords
        assert source.num_triples == plan.num_triples
        assert source.stage_stats == plan.stage_stats
        for shard in plan.shards:
            mapped = source.get_shard(shard.index)
            assert mapped.triple_lo == shard.triple_lo
            assert mapped.triple_hi == shard.triple_hi
            for name in (
                "coord_idx",
                "coord_source",
                "entry_coord",
                "entry_col",
                "entry_conf",
                "claim_coord",
                "claim_triple",
                "claim_source",
                "triple_item",
                "item_ptr",
                "num_unobserved",
            ):
                assert np.array_equal(
                    getattr(mapped, name), getattr(shard, name)
                ), name
            assert (mapped.claim_log_pop is None) == (
                shard.claim_log_pop is None
            )

    def test_lru_cap_bounds_materialized_packets(
        self, synthetic_matrix, tmp_path
    ):
        _cfg, _prob, plan = small_plan(synthetic_matrix, num_shards=4)
        persist_plan(plan, tmp_path)
        source = OutOfCoreShardSource(tmp_path, max_resident_shards=2)
        for index in range(4):
            source.get_shard(index)
            assert len(source._cache) <= 2
        # Cached packet is reused, not re-mapped.
        assert source.get_shard(3) is source.get_shard(3)

    def test_spilled_problem_arrays_are_mapped_views(
        self, synthetic_matrix, tmp_path
    ):
        cfg, prob, _plan = small_plan(synthetic_matrix)
        mapped = spill_problem_arrays(prob, tmp_path)
        assert isinstance(mapped.entry_conf, np.memmap)
        for name in PROBLEM_ARRAYS:
            assert np.array_equal(
                getattr(mapped, name), getattr(prob, name)
            ), name
        # Python-object tables are shared, not copied.
        assert mapped.coords is prob.coords
        assert mapped.sources is prob.sources

    def test_missing_directory_is_a_clear_error(self, tmp_path):
        with pytest.raises(SpillError, match="re-run the fit"):
            OutOfCoreShardSource(tmp_path / "never-written")

    def test_corrupt_manifest_is_a_clear_error(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json", "utf-8")
        with pytest.raises(SpillError, match="unreadable"):
            OutOfCoreShardSource(tmp_path)

    def test_foreign_manifest_is_a_clear_error(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"format": "something-else"}), "utf-8"
        )
        with pytest.raises(SpillError, match="not a shard spill"):
            OutOfCoreShardSource(tmp_path)

    def test_deleted_shard_file_is_a_clear_error(
        self, synthetic_matrix, tmp_path
    ):
        _cfg, _prob, plan = small_plan(synthetic_matrix)
        plan.persist(tmp_path)
        victim = next((tmp_path / "shard0001").glob("*.npy"))
        victim.unlink()
        source = OutOfCoreShardSource(tmp_path)
        source.get_shard(0)  # intact shards still load
        with pytest.raises(SpillError, match="missing"):
            source.get_shard(1)

    def test_refit_regenerates_a_deleted_spill_dir(
        self, synthetic_matrix, tmp_path
    ):
        """Resumption: losing the spill dir never loses the model —
        the next fit rewrites it from scratch."""
        import shutil

        spill = tmp_path / "spill"
        cfg = MultiLayerConfig(
            engine="numpy",
            backend="serial",
            num_shards=3,
            spill_dir=str(spill),
        )
        first = MultiLayerModel(cfg).fit(synthetic_matrix)
        shutil.rmtree(spill)
        second = MultiLayerModel(cfg).fit(synthetic_matrix)
        assert first.source_accuracy == second.source_accuracy
        assert (spill / "manifest.json").is_file()


# ----------------------------------------------------------------------
# Parity: out-of-core fits are bit-identical to the resident engine
# ----------------------------------------------------------------------
OOC_CONFIG_AXES = {
    "defaults": MultiLayerConfig(engine="numpy"),
    "active-scope": MultiLayerConfig(
        engine="numpy", absence_scope=AbsenceScope.ACTIVE
    ),
    "popaccu": MultiLayerConfig(
        engine="numpy",
        false_value_model=__import__(
            "repro.core.config", fromlist=["FalseValueModel"]
        ).FalseValueModel.POPACCU,
        use_weighted_vcv=False,
    ),
}


class TestOutOfCoreParity:
    @pytest.mark.parametrize(
        "config", OOC_CONFIG_AXES.values(), ids=OOC_CONFIG_AXES
    )
    @pytest.mark.parametrize("shards", [1, 3, 7])
    def test_serial_spill_parity(
        self, config, shards, synthetic_matrix, tmp_path
    ):
        reference = MultiLayerModel(config).fit(synthetic_matrix)
        spilled = MultiLayerModel(
            dataclasses.replace(
                config,
                backend="serial",
                num_shards=shards,
                spill_dir=str(tmp_path),
                max_resident_shards=1,
            )
        ).fit(synthetic_matrix)
        assert_parity(reference, spilled, exact=True)

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_parallel_spill_parity(
        self, backend, synthetic_matrix, tmp_path
    ):
        config = MultiLayerConfig(
            engine="numpy", absence_scope=AbsenceScope.ACTIVE
        )
        reference = MultiLayerModel(config).fit(synthetic_matrix)
        spilled = MultiLayerModel(
            dataclasses.replace(
                config,
                backend=backend,
                num_shards=4,
                spill_dir=str(tmp_path),
                max_resident_shards=2,
            )
        ).fit(synthetic_matrix)
        assert_parity(reference, spilled, exact=True)

    def test_fully_streamed_fit_parity(self, synthetic_matrix, tmp_path):
        """Chunks -> matrix -> compile -> release -> spill fit == resident.

        Both pipelines consume the *same* record stream (first-seen key
        order defines the compiled array order, so the comparison must
        be like for like).
        """
        records = list(synthetic_matrix.iter_records())
        cfg = dataclasses.replace(
            MultiLayerConfig(engine="numpy"),
            backend="serial",
            num_shards=5,
            spill_dir=str(tmp_path),
            max_resident_shards=1,
        )
        corpus = chunk_fed(records, 19)
        problem = compile_problem(corpus, cfg)
        corpus.release()
        streamed = fit_sharded(cfg, corpus, problem=problem)
        reference = MultiLayerModel(MultiLayerConfig(engine="numpy")).fit(
            ObservationMatrix.from_records(records)
        )
        assert_parity(reference, streamed, exact=True)
        assert streamed.num_triples_total == reference.num_triples_total

    def test_update_under_spill(self, kv_small, tmp_path):
        from repro.core.kbt import KBTEstimator

        records = list(kv_small.campaign.records)
        held_site = records[-1].source.website
        base = [r for r in records if r.source.website != held_site]
        new = [r for r in records if r.source.website == held_site]
        fitted = KBTEstimator(engine="numpy", min_triples=0.0).fit(base)
        plain = fitted.update(new, sweeps=2)
        spilled = fitted.update(
            new,
            sweeps=2,
            backend="serial",
            num_shards=3,
            spill_dir=str(tmp_path),
            max_resident_shards=1,
        )
        assert (
            plain.result.source_accuracy == spilled.result.source_accuracy
        )
        assert (
            plain.result.value_posteriors
            == spilled.result.value_posteriors
        )


# ----------------------------------------------------------------------
# Config validation + artifact round-trip + estimator plumbing
# ----------------------------------------------------------------------
class TestSpillConfig:
    def test_spill_dir_requires_backend(self, synthetic_matrix, tmp_path):
        """It no longer does: a backend-less spill config is valid (the
        driver runs it as ``serial``, one packet per CPU) and fits
        bit-identically to resident execution. What it does require is
        the numpy engine."""
        cfg = MultiLayerConfig(engine="numpy", spill_dir=str(tmp_path))
        assert cfg.backend is None
        assert_parity(
            MultiLayerModel(MultiLayerConfig(engine="numpy")).fit(
                synthetic_matrix
            ),
            MultiLayerModel(cfg).fit(synthetic_matrix),
            exact=True,
        )
        assert (tmp_path / "manifest.json").exists()
        with pytest.raises(ValueError, match='spill_dir.*engine="numpy"'):
            MultiLayerConfig(engine="python", spill_dir="/tmp/x")

    def test_max_resident_requires_spill_dir(self):
        with pytest.raises(ValueError, match="max_resident_shards"):
            MultiLayerConfig(
                engine="numpy", backend="serial", max_resident_shards=1
            )

    def test_max_resident_must_be_positive(self):
        with pytest.raises(ValueError, match="max_resident_shards"):
            MultiLayerConfig(
                engine="numpy",
                backend="serial",
                spill_dir="/tmp/x",
                max_resident_shards=0,
            )

    def test_spill_config_roundtrips_through_artifact(self):
        from repro.io.artifact import config_from_dict, config_to_dict

        config = MultiLayerConfig(
            engine="numpy",
            backend="processes",
            num_shards=8,
            spill_dir="/var/tmp/kbt-spill",
            max_resident_shards=2,
        )
        restored = config_from_dict(config_to_dict(config))
        assert restored == config
        assert restored.spill_dir == "/var/tmp/kbt-spill"
        assert restored.max_resident_shards == 2

    def test_saved_artifact_roundtrips_spill_fields(
        self, synthetic_matrix, tmp_path
    ):
        from repro.core.kbt import FittedKBT, KBTEstimator

        spill = tmp_path / "spill"
        fitted = KBTEstimator(
            backend="serial",
            num_shards=2,
            spill_dir=str(spill),
            max_resident_shards=1,
            min_triples=0.0,
        ).fit(synthetic_matrix)
        path = fitted.save(tmp_path / "model.kbt")
        loaded = FittedKBT.load(path)
        # Where the fit ran is not model state: nothing of it is saved.
        assert loaded.config == loaded.config.without_execution()
        assert loaded.config.spill_dir is None
        assert loaded.config.backend is None
        assert loaded.config.engine == "numpy"
        assert (
            loaded.result.source_accuracy == fitted.result.source_accuracy
        )

    def test_estimator_spill_dir_upgrades_backend_and_engine(self):
        from repro.core.kbt import KBTEstimator

        estimator = KBTEstimator(
            spill_dir="/tmp/x", max_resident_shards=3
        )
        # Spilling runs over the default engine's compiled arrays; no
        # backend is implied — the driver runs None as serial.
        assert estimator._config.backend is None
        assert estimator._config.engine == "numpy"
        assert estimator._config.spill_dir == "/tmp/x"
        assert estimator._config.max_resident_shards == 3

    def test_estimator_spill_dir_keeps_explicit_backend(self):
        from repro.core.kbt import KBTEstimator

        estimator = KBTEstimator(backend="threads", spill_dir="/tmp/x")
        assert estimator._config.backend == "threads"


# ----------------------------------------------------------------------
# ShardPlan shard-count validation (satellite fix)
# ----------------------------------------------------------------------
class TestShardCountValidation:
    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_from_problem_rejects_with_valid_range(
        self, bad, synthetic_matrix
    ):
        cfg = MultiLayerConfig(engine="numpy")
        prob = compile_problem(synthetic_matrix, cfg)
        with pytest.raises(ValueError, match=r"num_shards must be >= 1"):
            ShardPlan.from_problem(prob, cfg, bad)

    def test_contiguous_cuts_rejects_with_valid_range(self):
        with pytest.raises(ValueError, match=r"num_shards must be >= 1"):
            _contiguous_cuts(np.ones(5), 0)

    def test_error_names_the_offending_value(self, synthetic_matrix):
        cfg = MultiLayerConfig(engine="numpy")
        prob = compile_problem(synthetic_matrix, cfg)
        with pytest.raises(ValueError, match="got -3"):
            ShardPlan.from_problem(prob, cfg, -3)


# ----------------------------------------------------------------------
# Chunked dataset readers
# ----------------------------------------------------------------------
class TestChunkedReaders:
    def test_synthetic_chunks_match_generate(self):
        from repro.datasets.synthetic import (
            SyntheticConfig,
            generate,
            iter_synthetic_record_chunks,
        )

        cfg = SyntheticConfig(num_items=24, seed=3)
        flat = [
            record
            for chunk in iter_synthetic_record_chunks(cfg)
            for record in chunk
        ]
        assert flat == generate(cfg).records

    def test_kv_chunks_match_campaign_record_set(self):
        from repro.datasets.kv import (
            KVConfig,
            generate_kv,
            iter_kv_record_chunks,
        )

        cfg = KVConfig(num_websites=8, items_per_predicate=10, seed=5)
        streamed = [
            record
            for chunk in iter_kv_record_chunks(cfg)
            for record in chunk
        ]
        resident = generate_kv(cfg).campaign.records
        # Site-major vs system-major order; identical record multiset.
        assert sorted(map(repr, streamed)) == sorted(map(repr, resident))

    def test_kv_chunks_are_per_website(self):
        from repro.datasets.kv import KVConfig, iter_kv_record_chunks

        cfg = KVConfig(num_websites=4, items_per_predicate=10, seed=5)
        chunks = list(iter_kv_record_chunks(cfg))
        assert len(chunks) == 4
        for chunk in chunks:
            assert len({record.source.website for record in chunk}) <= 1

    def test_jsonl_chunked_reader_matches_flat(self, tmp_path):
        from repro.io.jsonl import (
            read_record_chunks,
            read_records,
            write_records,
        )

        records = [
            ExtractionRecord(
                extractor=EXTRACTORS[i % 4],
                source=SOURCES[i % 5],
                item=ITEMS[i % 4],
                value=f"v{i}",
                confidence=0.5,
            )
            for i in range(23)
        ]
        path = tmp_path / "records.jsonl"
        write_records(records, path)
        chunks = list(read_record_chunks(path, chunk_size=10))
        assert [len(chunk) for chunk in chunks] == [10, 10, 3]
        flat = [record for chunk in chunks for record in chunk]
        assert flat == list(read_records(path))
        with pytest.raises(ValueError, match="chunk_size"):
            list(read_record_chunks(path, chunk_size=0))


# ----------------------------------------------------------------------
# CLI round trip
# ----------------------------------------------------------------------
def test_cli_fit_spill_matches_plain_fit(kv_small, tmp_path, capsys):
    from repro.cli import main
    from repro.io.jsonl import write_records

    records_path = tmp_path / "records.jsonl"
    write_records(kv_small.campaign.records, records_path)
    plain_csv = tmp_path / "plain.csv"
    spill_csv = tmp_path / "spill.csv"
    assert main(
        ["fit", str(records_path), "--output", str(plain_csv)]
    ) == 0
    assert main(
        [
            "fit",
            str(records_path),
            "--output",
            str(spill_csv),
            "--spill-dir",
            str(tmp_path / "spill"),
            "--shards",
            "4",
            "--max-resident-shards",
            "1",
        ]
    ) == 0
    assert plain_csv.read_text() == spill_csv.read_text()
    assert (tmp_path / "spill" / "manifest.json").is_file()


# ----------------------------------------------------------------------
# Page-release plumbing: chunk windows and the madvise warning limiter
# ----------------------------------------------------------------------
class _FailingMapping:
    """Stands in for an ``mmap.mmap`` whose madvise always fails."""

    def __init__(self, size=1 << 20):
        self._size = size
        self.calls = 0

    def __len__(self):
        return self._size

    def madvise(self, *args):
        self.calls += 1
        raise OSError(22, "madvise rejected")


class _FakeMapped:
    """Duck-typed np.memmap: just the attributes the release path reads."""

    def __init__(self, filename, mapping):
        self.filename = filename
        self._mmap = mapping
        self.offset = 0
        self.itemsize = 8


class TestMadviseWarningCap:
    def test_warns_once_per_path(self):
        import warnings

        from repro.exec.spill import (
            _reset_madvise_warning_cache,
            advise_dontneed,
            advise_dontneed_window,
        )

        _reset_madvise_warning_cache()
        mapping = _FailingMapping()
        array = _FakeMapped("/tmp/shard0.npy", mapping)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(50):
                advise_dontneed(array)
            for lo in range(0, 500, 100):
                advise_dontneed_window(array, lo, lo + 100)
        assert mapping.calls == 55  # the release is still attempted
        messages = [w for w in caught if w.category is RuntimeWarning]
        assert len(messages) == 1, (
            "madvise failure must be reported exactly once per mapped "
            f"file per process, saw {len(messages)} warnings"
        )
        text = str(messages[0].message)
        assert "/tmp/shard0.npy" in text
        assert "once per mapped file" in text

    def test_distinct_paths_each_warn(self):
        import warnings

        from repro.exec.spill import (
            _reset_madvise_warning_cache,
            advise_dontneed,
        )

        _reset_madvise_warning_cache()
        arrays = [
            _FakeMapped(f"/tmp/shard{i}.npy", _FailingMapping())
            for i in range(3)
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(10):
                advise_dontneed(*arrays)
        paths = sorted(
            str(w.message).split(" failed for ")[1].split(" (errno")[0]
            for w in caught
            if w.category is RuntimeWarning
        )
        assert paths == [f"/tmp/shard{i}.npy" for i in range(3)]

    def test_reset_hook_rearms_the_warning(self):
        import warnings

        from repro.exec.spill import (
            _reset_madvise_warning_cache,
            advise_dontneed,
        )

        _reset_madvise_warning_cache()
        array = _FakeMapped("/tmp/rearm.npy", _FailingMapping())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            advise_dontneed(array)
            advise_dontneed(array)
            _reset_madvise_warning_cache()
            advise_dontneed(array)
        assert (
            len([w for w in caught if w.category is RuntimeWarning]) == 2
        )


class TestChunkWindows:
    def test_iter_chunks_covers_range(self):
        from repro.core.engine_numpy import iter_chunks

        for total in (0, 1, 5, 16, 17):
            for chunk in (1, 3, 16, 100):
                windows = list(iter_chunks(total, chunk))
                flat = [i for lo, hi in windows for i in range(lo, hi)]
                assert flat == list(range(total)), (total, chunk)
                assert all(hi - lo <= chunk for lo, hi in windows)
                # ascending, non-overlapping: the alignment trick in
                # advise_dontneed_window depends on this order.
                assert windows == sorted(windows)

    def test_iter_chunks_rejects_nonpositive(self):
        from repro.core.engine_numpy import iter_chunks

        with pytest.raises(ValueError, match="chunk"):
            list(iter_chunks(10, 0))

    def test_window_release_on_real_memmap(self, tmp_path):
        """Releasing windows of a real spilled array is harmless: no
        warning, and the data reads back intact afterwards."""
        import warnings

        from repro.core.engine_numpy import iter_chunks
        from repro.exec.spill import (
            _reset_madvise_warning_cache,
            advise_dontneed_window,
        )

        _reset_madvise_warning_cache()
        path = tmp_path / "window.npy"
        reference = np.arange(5000, dtype=np.float64)
        np.save(path, reference)
        mapped = np.load(path, mmap_mode="r")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for lo, hi in iter_chunks(len(mapped), 512):
                chunk = np.asarray(mapped[lo:hi])
                assert np.array_equal(chunk, reference[lo:hi])
                advise_dontneed_window(mapped, lo, hi)
        assert not [w for w in caught if w.category is RuntimeWarning]
        assert np.array_equal(np.asarray(mapped), reference)

    def test_window_release_noop_for_resident_arrays(self):
        from repro.exec.spill import advise_dontneed_window

        advise_dontneed_window(np.arange(10.0), 0, 10)  # must not raise
