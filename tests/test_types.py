"""Unit tests for the core type system (keys, hierarchy, records)."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys

import pytest

from repro.core.observation import ObservationMatrix
from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    SourceKey,
    Triple,
    page_source,
    pattern_extractor,
    website_source,
)


class TestDataItemAndTriple:
    def test_triple_item_roundtrip(self):
        triple = Triple("obama", "nationality", "USA")
        assert triple.item == DataItem("obama", "nationality")
        assert triple.value == "USA"

    def test_items_hashable_and_equal(self):
        assert DataItem("s", "p") == DataItem("s", "p")
        assert len({DataItem("s", "p"), DataItem("s", "p")}) == 1

    def test_str_forms(self):
        assert str(DataItem("s", "p")) == "(s, p)"
        assert str(Triple("s", "p", "o")) == "(s, p, o)"


class TestSourceKey:
    def test_hierarchy_parents(self):
        fine = page_source("wiki.com", "dob", "wiki.com/p1")
        mid = fine.parent()
        top = mid.parent()
        assert mid == SourceKey(("wiki.com", "dob"))
        assert top == website_source("wiki.com")
        assert top.parent() is None

    def test_levels(self):
        assert website_source("a").level == 1
        assert page_source("a", "p", "u").level == 3

    def test_website_accessor(self):
        assert page_source("wiki.com", "dob", "u").website == "wiki.com"

    def test_bucket_parent_is_unsplit_key(self):
        key = SourceKey(("wiki.com",))
        split = key.child_bucket(3)
        assert split.bucket == 3
        assert split.parent() == key

    def test_cannot_split_twice(self):
        with pytest.raises(ValueError):
            SourceKey(("a",), bucket=0).child_bucket(1)

    def test_feature_count_validated(self):
        with pytest.raises(ValueError):
            SourceKey(())
        with pytest.raises(ValueError):
            SourceKey(("a", "b", "c", "d"))

    def test_str_shows_bucket(self):
        assert str(SourceKey(("a", "b"), bucket=2)) == "<a, b>#2"


class TestExtractorKey:
    def test_hierarchy_parents(self):
        fine = pattern_extractor("sys", "pat", "dob", "wiki.com")
        chain = [fine]
        while chain[-1].parent() is not None:
            chain.append(chain[-1].parent())
        assert [k.level for k in chain] == [4, 3, 2, 1]
        assert chain[-1] == ExtractorKey(("sys",))

    def test_system_accessor(self):
        assert pattern_extractor("sys", "p", "d", "w").system == "sys"

    def test_feature_count_validated(self):
        with pytest.raises(ValueError):
            ExtractorKey(())
        with pytest.raises(ValueError):
            ExtractorKey(("a", "b", "c", "d", "e"))

    def test_bucketing(self):
        key = ExtractorKey(("sys", "pat"))
        assert key.child_bucket(0).parent() == key


class TestExtractionRecord:
    def test_defaults_to_full_confidence(self):
        record = ExtractionRecord(
            extractor=ExtractorKey(("e",)),
            source=website_source("w"),
            item=DataItem("s", "p"),
            value="v",
        )
        assert record.confidence == 1.0
        assert record.triple == Triple("s", "p", "v")

    def test_zero_confidence_rejected(self):
        with pytest.raises(ValueError):
            ExtractionRecord(
                extractor=ExtractorKey(("e",)),
                source=website_source("w"),
                item=DataItem("s", "p"),
                value="v",
                confidence=0.0,
            )

    def test_above_one_confidence_rejected(self):
        with pytest.raises(ValueError):
            ExtractionRecord(
                extractor=ExtractorKey(("e",)),
                source=website_source("w"),
                item=DataItem("s", "p"),
                value="v",
                confidence=1.5,
            )


# ----------------------------------------------------------------------
# The cached hash: same value as before, and it never leaves the process
# ----------------------------------------------------------------------
KEYS = [
    SourceKey(("wiki.com", "dob", "wiki.com/p1")),
    SourceKey(("wiki.com",), bucket=2),
    ExtractorKey(("sys", "pat", "dob", "wiki.com")),
    ExtractorKey(("sys",), bucket=0),
    DataItem("obama", "nationality"),
]


def rebuilt(key):
    """An equal key constructed from scratch, sharing nothing."""
    if isinstance(key, DataItem):
        return DataItem(str(key.subject), str(key.predicate))
    return type(key)(tuple(key.features), bucket=key.bucket)


class TestCachedHash:
    @pytest.mark.parametrize("key", KEYS, ids=str)
    def test_hash_is_the_dataclass_hash(self, key):
        fields = tuple(
            getattr(key, field.name) for field in dataclasses.fields(key)
        )
        assert hash(key) == hash(fields)

    @pytest.mark.parametrize("key", KEYS, ids=str)
    def test_equal_across_distinct_objects(self, key):
        other = rebuilt(key)
        assert other is not key
        assert other == key and hash(other) == hash(key)
        assert {key: 1}[other] == 1
        assert key != KEYS[(KEYS.index(key) + 1) % len(KEYS)]

    def test_public_surface_unchanged(self):
        names = lambda cls: [f.name for f in dataclasses.fields(cls)]
        assert names(SourceKey) == ["features", "bucket"]
        assert names(ExtractorKey) == ["features", "bucket"]
        assert names(DataItem) == ["subject", "predicate"]
        assert repr(KEYS[1]) == "SourceKey(features=('wiki.com',), bucket=2)"
        assert repr(KEYS[3]) == "ExtractorKey(features=('sys',), bucket=0)"
        assert repr(KEYS[4]) == (
            "DataItem(subject='obama', predicate='nationality')"
        )
        assert SourceKey(features=("a",), bucket=None) == SourceKey(("a",))
        with pytest.raises(dataclasses.FrozenInstanceError):
            KEYS[0].features = ("x",)
        with pytest.raises(TypeError):
            DataItem("s")

    def test_str_ordering_unchanged(self):
        keys = [
            SourceKey(("b",)),
            SourceKey(("a", "z")),
            SourceKey(("a",), bucket=1),
            SourceKey(("a",)),
        ]
        assert [str(key) for key in sorted(keys, key=str)] == [
            "<a, z>", "<a>", "<a>#1", "<b>",
        ]

    @pytest.mark.parametrize("key", KEYS, ids=str)
    def test_copies_hash_like_fresh_keys(self, key):
        for copied in (
            copy.copy(key),
            copy.deepcopy(key),
            pickle.loads(pickle.dumps(key)),
            dataclasses.replace(key),
        ):
            assert copied == key and hash(copied) == hash(rebuilt(key))

    def test_derived_keys_hash_like_fresh_keys(self):
        source = SourceKey(("wiki.com", "dob"))
        for derived, fresh in [
            (dataclasses.replace(source, bucket=1),
             SourceKey(("wiki.com", "dob"), bucket=1)),
            (source.child_bucket(3), SourceKey(("wiki.com", "dob"), bucket=3)),
            (source.child_bucket(3).parent(), source),
            (source.parent(), SourceKey(("wiki.com",))),
            (ExtractorKey(("sys", "pat")).parent(), ExtractorKey(("sys",))),
            (ExtractorKey(("sys",)).child_bucket(0),
             ExtractorKey(("sys",), bucket=0)),
        ]:
            assert derived == fresh and hash(derived) == hash(fresh)
            assert derived in {fresh}

    def test_hash_does_not_travel_to_another_interpreter(self, tmp_path):
        """A child with another PYTHONHASHSEED unpickles keys, a record
        and a matrix pickled here and must find every key in containers
        it builds itself — and its own keys in the ones it was sent."""
        source = SourceKey(("wiki.com", "dob", "wiki.com/p1"))
        extractor = ExtractorKey(("sys", "pat", "dob", "wiki.com"))
        record = ExtractionRecord(
            extractor=extractor,
            source=source,
            item=DataItem("obama", "nationality"),
            value="USA",
            confidence=0.75,
        )
        other = ExtractionRecord(
            extractor=ExtractorKey(("sys2",), bucket=1),
            source=source,
            item=DataItem("obama", "spouse"),
            value="michelle",
        )
        matrix = ObservationMatrix.from_records([record, other])
        payload = tmp_path / "keys.pickle"
        payload.write_bytes(pickle.dumps((source, record, matrix)))

        seed = os.environ.get("PYTHONHASHSEED", "")
        child_seed = "1" if seed != "1" else "2"
        env = dict(os.environ, PYTHONHASHSEED=child_seed)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        done = subprocess.run(
            [sys.executable, "-c", _CHILD, str(payload), str(hash("wiki.com"))],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"


_CHILD = """
import pickle, sys
from repro.core.types import DataItem, ExtractorKey, SourceKey

assert hash("wiki.com") != int(sys.argv[2]), "child shares the parent's salt"
with open(sys.argv[1], "rb") as handle:
    source, record, matrix = pickle.load(handle)

fresh_source = SourceKey(("wiki.com", "dob", "wiki.com/p1"))
fresh_extractor = ExtractorKey(("sys", "pat", "dob", "wiki.com"))
fresh_item = DataItem("obama", "nationality")
for sent, fresh in [
    (source, fresh_source),
    (record.source, fresh_source),
    (record.extractor, fresh_extractor),
    (record.item, fresh_item),
]:
    assert hash(sent) == hash(fresh)
    assert sent in {fresh} and fresh in {sent}
    assert {fresh: 1}[sent] == 1

# Their keys in my containers, my keys in theirs.
assert matrix.source_claims(fresh_source) == [
    (fresh_item, "USA"), (DataItem("obama", "spouse"), "michelle")
]
assert matrix.cell((fresh_source, fresh_item, "USA")) == {fresh_extractor: 0.75}
assert matrix.active_extractors(fresh_source) == {
    fresh_extractor, ExtractorKey(("sys2",), bucket=1)
}
assert set(matrix.sources()) == {fresh_source}
assert set(matrix.items()) <= {fresh_item, DataItem("obama", "spouse")}
print("ok")
"""


def test_spawned_workers_fit_bit_identically(monkeypatch):
    """``processes`` x 2 forced onto ``spawn`` — the start method that
    pickles what it ships — equals ``serial`` x 1 to the bit."""
    pytest.importorskip("numpy")
    import multiprocessing

    from test_determinism_ladder import CORPUS, fit_ladder, result_digest

    from repro.io.jsonl import read_records

    observations = ObservationMatrix.from_records(read_records(CORPUS))
    serial = fit_ladder(observations, backend="serial", num_shards=1)
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )
    methods = []
    get_context = multiprocessing.get_context
    monkeypatch.setattr(
        multiprocessing,
        "get_context",
        lambda method=None: methods.append(method) or get_context(method),
    )
    spawned = fit_ladder(observations, backend="processes", num_shards=2)
    assert methods == ["spawn"]
    assert result_digest(spawned) == result_digest(serial)
