"""The JSONL writer: its bytes are the per-record ``json.dumps`` lines.

``write_records`` encodes each key's JSON once per call and joins lines
into blocks; none of that may show in the file. Every test here holds
its output to ``json.dumps(record_to_dict(record)) + "\\n"`` per record,
and reads it back.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    SourceKey,
    new_record,
)
from repro.io import jsonl
from repro.io.jsonl import read_records, record_to_dict, write_records


def expected_bytes(records) -> bytes:
    return "".join(
        json.dumps(record_to_dict(record)) + "\n" for record in records
    ).encode("utf-8")


#: Text with escapes, quotes, controls and non-ASCII (a lone surrogate
#: cannot be read back, so none is drawn).
TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€𝄞ß'),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=8,
)
BUCKETS = st.sampled_from([None, 0, 7])
SCALARS = st.one_of(
    TEXT,
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
)
CONFIDENCES = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True), st.just(1)
)


@st.composite
def record_streams(draw) -> list[ExtractionRecord]:
    """Records over small key pools, so keys repeat — as one object or
    as equal but distinct objects."""
    extractors = draw(
        st.lists(
            st.builds(
                ExtractorKey,
                st.lists(TEXT, min_size=1, max_size=4).map(tuple),
                BUCKETS,
            ),
            min_size=1,
            max_size=4,
        )
    )
    sources = draw(
        st.lists(
            st.builds(
                SourceKey,
                st.lists(TEXT, min_size=1, max_size=3).map(tuple),
                BUCKETS,
            ),
            min_size=1,
            max_size=4,
        )
    )
    items = draw(st.lists(st.builds(DataItem, TEXT, TEXT), min_size=1, max_size=4))
    copies = st.booleans()

    def pick(pool, rebuild):
        key = draw(st.sampled_from(pool))
        return rebuild(key) if draw(copies) else key

    records = [
        ExtractionRecord(
            pick(extractors, lambda k: ExtractorKey(k.features, k.bucket)),
            pick(sources, lambda k: SourceKey(k.features, k.bucket)),
            pick(items, lambda k: DataItem(k.subject, k.predicate)),
            draw(SCALARS),
            draw(CONFIDENCES),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=12)))
    ]
    # 1, 1.0 and True are equal to each other and write differently.
    extractor, source, item = extractors[0], sources[0], items[0]
    for value in (1, 1.0, True, 0.0, -0.0, 1.0):
        records.append(ExtractionRecord(extractor, source, item, value, 1.0))
    return draw(st.permutations(records))


@settings(max_examples=60, deadline=None)
@given(records=record_streams())
def test_bytes_and_read_back_equal_the_per_record_dumps(
    records, tmp_path_factory
):
    path = tmp_path_factory.mktemp("writer") / "records.jsonl"
    assert write_records(records, path) == len(records)
    assert path.read_bytes() == expected_bytes(records)
    back = list(read_records(path))
    assert back == records
    # Equal values of different types stay apart on the way back.
    assert [type(r.value) for r in back] == [type(r.value) for r in records]


def test_blocks_and_memo_restarts_do_not_show(tmp_path, monkeypatch):
    monkeypatch.setattr(jsonl, "_WRITE_LINES", 3)
    monkeypatch.setattr(jsonl, "_MEMO_KEYS", 2)
    records = [
        ExtractionRecord(
            ExtractorKey(("sys", f"pat{i % 5}")),
            SourceKey((f"site{i % 3}.example",), bucket=i % 2 or None),
            DataItem(f"s{i % 4}", "p"),
            [i, float(i), bool(i % 2), f"v{i % 3}", None][i % 5],
            0.5,
        )
        for i in range(40)
    ]
    path = tmp_path / "records.jsonl"
    assert write_records(records, path) == 40
    assert path.read_bytes() == expected_bytes(records)


def test_values_json_dumps_decides(tmp_path):
    # Not remembered, written as json.dumps writes them: a non-finite
    # float, a str subclass, and a tuple (an array, equal to another of
    # 1.0 that writes differently).
    class Name(str):
        pass

    key = ExtractorKey(("sys",))
    source = SourceKey(("site.example",))
    item = DataItem("s", "p")
    values = [float("inf"), float("-inf"), Name("x"), (1, 2), (1.0, 2)]
    records = [
        new_record(ExtractionRecord, (key, source, item, value, 1.0))
        for value in values
    ]
    path = tmp_path / "records.jsonl"
    write_records(records, path)
    assert path.read_bytes() == expected_bytes(records)


def test_a_record_that_fails_raises_after_the_lines_before_it(tmp_path):
    key = ExtractorKey(("sys",))
    source = SourceKey(("site.example",))
    item = DataItem("s", "p")
    good = ExtractionRecord(key, source, item, "v", 1.0)
    bad = new_record(ExtractionRecord, (key, source, item, object(), 1.0))
    path = tmp_path / "records.jsonl"
    with pytest.raises(TypeError):
        write_records([good, good, bad, good], path)
    assert path.read_bytes() == expected_bytes([good, good])
