"""The JSONL readers' boundary: what they accept, and how they refuse.

Every reader — ``read_records``, ``read_record_chunks``, the spool
tailer — parses through one ``RecordParser``, so each rule below is
checked against all three: feature vectors are arrays of scalars,
values are scalars, and a bad line is reported with its place whether
it is bad JSON or a well-formed JSON value of the wrong shape.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.types import DataItem, ExtractorKey, SourceKey
from repro.ingest.stream import SpoolDirectorySource
from repro.io.jsonl import (
    RecordParser,
    read_record_chunks,
    read_records,
    record_from_dict,
)


def good(**changes) -> dict:
    record = {
        "extractor": ["sys", "pat"],
        "source": ["site.example", "capital"],
        "subject": "france",
        "predicate": "capital",
        "value": "paris",
        "confidence": 0.9,
    }
    record.update(changes)
    return record


def file_of(tmp_path, *records, name="records.jsonl"):
    path = tmp_path / name
    path.write_text(
        "".join(json.dumps(record) + "\n" for record in records),
        encoding="utf-8",
    )
    return path


def read_whole(path):
    return list(read_records(path))


def read_chunked(path):
    return [record for chunk in read_record_chunks(path, 2) for record in chunk]


def poll_spool(path):
    return SpoolDirectorySource(path.parent).poll(10**6)


READERS = pytest.mark.parametrize(
    "reader", [read_whole, read_chunked, poll_spool], ids=lambda f: f.__name__
)

MALFORMED = {
    "string-for-source-features": good(source="abc"),
    "string-for-extractor-features": good(extractor="sys"),
    "object-for-features": good(source={"website": "a"}),
    "array-inside-features": good(extractor=["sys", ["pat"]]),
    "array-value": good(value=[1, 2]),
    "object-value": good(value={"city": "paris"}),
    "array-subject": good(subject=["france"]),
    "boolean-bucket": good(source_bucket=True),
    "string-bucket": good(extractor_bucket="1"),
    "missing-field": {"subject": "x"},
    "not-an-object": [1, 2, 3],
    "bare-number": 7,
    "confidence-out-of-range": good(confidence=0.0),
    "too-many-features": good(source=["a", "b", "c", "d"]),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_record_rejected(case):
    with pytest.raises(ValueError):
        record_from_dict(MALFORMED[case])


def test_string_features_are_not_read_character_by_character():
    # The parent built SourceKey(('a', 'b', 'c')) out of "abc".
    with pytest.raises(ValueError, match="malformed record"):
        record_from_dict(good(source="abc"))
    with pytest.raises(ValueError, match="malformed record"):
        record_from_dict(good(extractor="sys"))


@pytest.mark.parametrize("value", ["paris", 3, 2.5, True, None])
def test_scalar_values_accepted_unchanged(value):
    record = record_from_dict(good(value=value))
    assert record.value == value and type(record.value) is type(value)


def test_scalar_features_are_stringified_like_before():
    record = record_from_dict(
        good(extractor=["sys", 7], source=[True, None], subject=1, predicate=2.5)
    )
    assert record.extractor == ExtractorKey(("sys", "7"))
    assert record.source == SourceKey(("True", "None"))
    assert record.item == DataItem("1", "2.5")


def test_equal_raw_values_that_stringify_differently_stay_apart():
    # 1 == 1.0 == True as dict keys; "1", "1.0" and "True" are three
    # different features. One parser must not let the first decide.
    parser = RecordParser()
    keys = [
        parser.from_dict(good(source=["site", raw], subject=raw)).source
        for raw in (1, 1.0, True, "1")
    ]
    assert [key.features[1] for key in keys] == ["1", "1.0", "True", "1"]
    assert keys[0] is keys[3]
    items = [
        parser.from_dict(good(subject=raw)).item.subject
        for raw in (1, 1.0, True, "1")
    ]
    assert items == ["1", "1.0", "True", "1"]


@READERS
@pytest.mark.parametrize("case", ["array-value", "string-for-source-features"])
def test_wrong_shape_is_reported_with_its_place(reader, case, tmp_path):
    # The parent located invalid JSON but not a malformed record.
    path = file_of(tmp_path, good(), good(value="rome"), MALFORMED[case])
    with pytest.raises(ValueError) as caught:
        reader(path)
    message = str(caught.value)
    assert "malformed record" in message
    if reader is poll_spool:
        offset = sum(
            len(json.dumps(record)) + 1
            for record in (good(), good(value="rome"))
        )
        assert message.startswith(f"{path}:byte {offset}: ")
    else:
        assert message.startswith(f"{path}:3: ")


@READERS
def test_invalid_json_is_reported_with_its_place(reader, tmp_path):
    path = tmp_path / "records.jsonl"
    first = json.dumps(good()) + "\n"
    path.write_text(first + "\n" + "{not json}\n", encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        reader(path)
    message = str(caught.value)
    if reader is poll_spool:
        assert message == f"{path}:byte {len(first) + 1}: invalid JSON"
    else:
        assert message == f"{path}:3: invalid JSON"


@READERS
def test_trailing_garbage_after_a_record_is_invalid_json(reader, tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(good()) + " x\n", encoding="utf-8")
    with pytest.raises(ValueError, match="invalid JSON"):
        reader(path)


@READERS
def test_blank_and_padded_lines(reader, tmp_path):
    path = tmp_path / "records.jsonl"
    line = json.dumps(good())
    path.write_text(f"\n  {line}  \n\t\n{line}\n", encoding="utf-8")
    assert reader(path) == [record_from_dict(good())] * 2


def test_undecodable_bytes_in_the_spool_are_invalid_json(tmp_path):
    (tmp_path / "a.jsonl").write_bytes(b'{"subject": "\xff"}\n')
    with pytest.raises(ValueError, match=r"a\.jsonl:byte 0: invalid JSON"):
        SpoolDirectorySource(tmp_path).poll(10)


def test_kbt_fit_on_a_composite_value_is_one_error_line(tmp_path, capsys):
    # The parent accepted the record and died in ObservationMatrix._add
    # with "TypeError: unhashable type: 'list'", which main() lets through.
    records = [good(subject=f"s{i}") for i in range(5)] + [good(value=[1, 2])]
    path = file_of(tmp_path, *records, name="bad.jsonl")
    assert main(["fit", str(path), "--output", str(tmp_path / "s.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}:6: malformed record")
    assert "Traceback" not in captured.err
