"""The JSONL readers' boundary: what they accept, and how they refuse.

Every reader — ``read_records``, the spool tailer and ``kbt ingest
--stdin`` — parses through one ``RecordParser``, so each rule below is
checked against them, the tailer reading a whole file and a file as it
arrives: feature vectors are arrays of scalars, values are scalars, a
line ends at ``"\n"`` only (a CR is whitespace inside it), and a bad
line is reported with its place (a line number, or the tailer's byte
offset) whether it is bad JSON or a well-formed JSON value of the
wrong shape.
"""

from __future__ import annotations

import io
import json
import re
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reader_reference import jsonl_records
from repro.cli import main
from repro.core.kbt import KBTEstimator
from repro.core.types import DataItem, ExtractorKey, SourceKey
from repro.ingest.stream import SpoolDirectorySource
from repro.io import jsonl
from repro.io.jsonl import RecordParser, read_records, record_from_dict


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
    """The spool tailer reading ``path`` as a writer appends it, seven
    bytes at a time with a poll after each: every line is torn, often
    inside a character, before its newline lands."""
    data = path.read_bytes()
    with open(path, "wb") as handle:
        source = SpoolDirectorySource(path.parent)
        records = []
        for start in range(0, len(data), 7):
            handle.write(data[start:start + 7])
            handle.flush()
            records += source.poll(10**6)
    return records


def poll_spool(path):
    return SpoolDirectorySource(path.parent).poll(10**6)


#: The readers that place a bad line by its byte offset.
TAILERS = (read_chunked, poll_spool)

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
    "negative-source-bucket": good(source_bucket=-1),
    "negative-extractor-bucket": good(extractor_bucket=-3),
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
@pytest.mark.parametrize(
    "case",
    ["array-value", "string-for-source-features", "negative-source-bucket"],
)
def test_wrong_shape_is_reported_with_its_place(reader, case, tmp_path):
    # The parent located invalid JSON but not a malformed record.
    path = file_of(tmp_path, good(), good(value="rome"), MALFORMED[case])
    with pytest.raises(ValueError) as caught:
        reader(path)
    message = str(caught.value)
    assert "malformed record" in message
    if reader in TAILERS:
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
    if reader in TAILERS:
        assert message == f"{path}:byte {len(first) + 1}: invalid JSON"
    else:
        assert message == f"{path}:3: invalid JSON"


@pytest.mark.parametrize("run_lines", [2, 3, 8192])
def test_records_before_a_bad_line_come_before_its_error(
    run_lines, tmp_path, monkeypatch
):
    # read_records parses a run of lines at a time; whatever the run,
    # what precedes the bad line reaches the consumer first, and line
    # numbers count across runs.
    monkeypatch.setattr(jsonl, "_RUN_LINES", run_lines)
    path = tmp_path / "records.jsonl"
    lines = [json.dumps(good(subject=f"s{k}")) for k in range(4)]
    lines.insert(3, "{not json}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    seen = []
    with pytest.raises(ValueError) as caught:
        for record in read_records(path):
            seen.append(record.item.subject)
    assert str(caught.value) == f"{path}:4: invalid JSON"
    assert seen == ["s0", "s1", "s2"]


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


@pytest.mark.parametrize("run_lines", [2, 3, 8192])
@pytest.mark.parametrize("reader", [read_whole, read_chunked],
                         ids=lambda f: f.__name__)
def test_undecodable_bytes_in_a_file_name_their_line(
    reader, run_lines, tmp_path, monkeypatch
):
    # The text-mode decoder fails a block ahead of the lines it hands
    # out; the error still names the line (the tailer, reading bytes,
    # its offset), and what precedes it is read.
    monkeypatch.setattr(jsonl, "_RUN_LINES", run_lines)
    path = tmp_path / "records.jsonl"
    lines = [json.dumps(good(subject=f"s{k}")).encode() for k in range(6)]
    lines.insert(4, b'{"subject": "\xff"}')
    path.write_bytes(b"\n".join(lines) + b"\n")
    seen = []
    with pytest.raises(ValueError) as caught:
        if reader is read_whole:
            for record in read_records(path):
                seen.append(record.item.subject)
        else:
            reader(path)
    where = (
        f"byte {sum(len(line) + 1 for line in lines[:4])}"
        if reader in TAILERS else 5
    )
    assert str(caught.value) == f"{path}:{where}: invalid JSON"
    if reader is read_whole:
        assert seen == ["s0", "s1", "s2", "s3"]


def test_a_torn_multibyte_tail_is_left_for_the_next_read(tmp_path):
    path = tmp_path / "records.jsonl"
    line = json.dumps(good(value="café"), ensure_ascii=False).encode()
    torn = line[: line.index("é".encode()) + 1]  # cut inside the "é"
    path.write_bytes(line + b"\n" + torn)
    assert read_chunked(path) == [record_from_dict(good(value="café"))]
    with pytest.raises(ValueError, match=r"records\.jsonl:2: invalid JSON"):
        read_whole(path)


def test_kbt_fit_on_undecodable_bytes_is_one_error_line(tmp_path, capsys):
    # The parent printed "error: 'utf-8' codec can't decode byte 0xff in
    # position 8: invalid start byte", with no file and no line.
    path = file_of(tmp_path, *[good(subject=f"s{i}") for i in range(5)])
    lines = path.read_bytes().split(b"\n")
    lines[1] = b"\xff"
    path.write_bytes(b"\n".join(lines))
    assert main(["fit", str(path), "--output", str(tmp_path / "s.csv")]) == 1
    assert capsys.readouterr().err == f"error: {path}:2: invalid JSON\n"


#: Confidences float() accepts but the contract ("a number in (0, 1]")
#: does not: the parent built records from all of these.
NON_NUMBER_CONFIDENCES = {
    "string": "0.9",
    "padded-string": " 1 ",
    "true": True,
    "false": False,
    "null": None,
    "array": [0.5],
    "huge-integer": 10**400,
}


@pytest.mark.parametrize("case", NON_NUMBER_CONFIDENCES)
def test_confidence_must_be_a_json_number(case):
    with pytest.raises(ValueError, match="malformed record"):
        record_from_dict(good(confidence=NON_NUMBER_CONFIDENCES[case]))


@READERS
@pytest.mark.parametrize("case", NON_NUMBER_CONFIDENCES)
def test_non_number_confidence_is_reported_with_its_place(
    reader, case, tmp_path
):
    path = file_of(tmp_path, good(), good(confidence=NON_NUMBER_CONFIDENCES[case]))
    with pytest.raises(ValueError) as caught:
        reader(path)
    where = f"byte {len(json.dumps(good())) + 1}" if reader in TAILERS else 2
    assert str(caught.value).startswith(f"{path}:{where}: malformed record")


@READERS
def test_numeric_confidences_are_read_as_floats(reader, tmp_path):
    path = tmp_path / "records.jsonl"
    lines = [json.dumps(good(confidence=c)) for c in (1, 0.25, 1.0)]
    lines.append(json.dumps({k: v for k, v in good().items() if k != "confidence"}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    confidences = [record.confidence for record in reader(path)]
    assert confidences == [1.0, 0.25, 1.0, 1.0]
    assert all(type(c) is float for c in confidences)


@READERS
@pytest.mark.parametrize("raw", ["0", "1.5", "-1", "NaN", "Infinity", "2"])
def test_out_of_range_confidence_is_reported_with_its_place(
    reader, raw, tmp_path
):
    path = tmp_path / "records.jsonl"
    line = json.dumps(good()).replace('"confidence": 0.9', f'"confidence": {raw}')
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        reader(path)
    where = "byte 0" if reader in TAILERS else 1
    assert str(caught.value).startswith(
        f"{path}:{where}: confidence must be in (0, 1]"
    )


def test_kbt_fit_on_a_composite_value_is_one_error_line(tmp_path, capsys):
    # The parent accepted the record and died in ObservationMatrix._add
    # with "TypeError: unhashable type: 'list'", which main() lets through.
    records = [good(subject=f"s{i}") for i in range(5)] + [good(value=[1, 2])]
    path = file_of(tmp_path, *records, name="bad.jsonl")
    assert main(["fit", str(path), "--output", str(tmp_path / "s.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}:6: malformed record")
    assert "Traceback" not in captured.err


# ----------------------------------------------------------------------
# Line ends: "\n" only, as JSON Lines has it
# ----------------------------------------------------------------------
def ingest_stdin(tmp_path, data: bytes, capsys) -> tuple[int, str, str]:
    """``kbt ingest --stdin`` over ``data``: its exit code, stdout and
    stderr. It runs on a thread of its own, so it installs no signal
    handler in this process."""
    model = tmp_path / "model.kbt"
    KBTEstimator().fit(
        [record_from_dict(good(subject=f"s{i}")) for i in range(4)]
    ).save(model)
    args = [
        "ingest", str(model), "--stdin", "--batch-seconds", "0.05",
        "--generations-dir", str(tmp_path / "generations"),
    ]
    stdin, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(data))
    code = []
    try:
        runner = threading.Thread(target=lambda: code.append(main(args)))
        runner.start()
        runner.join(60)
    finally:
        sys.stdin = stdin
    captured = capsys.readouterr()
    return code[0], captured.out, captured.err


def ingested(out: str) -> int:
    return int(re.search(r"drained: \d+ batches, (\d+) records", out)[1])


#: One record with a CR between two of its tokens, as JSON allows.
CR_BETWEEN_TOKENS = json.dumps(good()).replace(', "source"', ',\r"source"')


@READERS
def test_a_cr_between_tokens_is_whitespace(reader, tmp_path):
    # A reader that splits at the CR refuses the line ("FILE:1:
    # invalid JSON"), or, tailing, stalls on it for good and returns
    # nothing on every poll.
    path = tmp_path / "records.jsonl"
    second = json.dumps(good(value="rome"))
    path.write_bytes(f"{CR_BETWEEN_TOKENS}\n{second}\r\n".encode())
    assert reader(path) == [
        record_from_dict(good()), record_from_dict(good(value="rome"))
    ]


def test_kbt_ingest_stdin_reads_a_cr_between_tokens(tmp_path, capsys):
    data = f"{CR_BETWEEN_TOKENS}\n{json.dumps(good(value='rome'))}\n"
    code, out, err = ingest_stdin(tmp_path, data.encode(), capsys)
    assert (code, err) == (0, "")
    assert ingested(out) == 2


@READERS
def test_a_lone_cr_line_end_is_one_invalid_json_error(reader, tmp_path):
    # No reader splits at the CR: the two records are one line, which
    # is refused where it starts, and the tailer does not stall on it.
    path = tmp_path / "records.jsonl"
    record = json.dumps(good())
    path.write_bytes(f"{record}\r{record}\n".encode())
    where = "byte 0" if reader in TAILERS else 1
    with pytest.raises(ValueError) as caught:
        reader(path)
    assert str(caught.value) == f"{path}:{where}: invalid JSON"


def test_kbt_ingest_stdin_refuses_a_lone_cr_line_end(tmp_path, capsys):
    record = json.dumps(good())
    data = f"{record}\n{record}\r{record}\n".encode()
    code, _out, err = ingest_stdin(tmp_path, data, capsys)
    assert code == 1
    assert err == "error: bad record on stdin: <stdin>:2: invalid JSON\n"


GOLDEN_LINES = (
    Path(__file__).parent / "goldens" / "corpus.jsonl"
).read_text(encoding="utf-8").splitlines()[:60]


@st.composite
def spool_lines(draw) -> bytes:
    """Golden-corpus lines with "\n" or "\r\n" endings, blank lines
    between them and CRs between their tokens."""
    pieces = []
    for line in draw(st.lists(st.sampled_from(GOLDEN_LINES), max_size=12)):
        if draw(st.booleans()):
            pieces.append(draw(st.sampled_from(["\n", "\r\n", " \t\n"])))
        separators = [m.end() for m in re.finditer(r"[,:] ", line)]
        for cut in sorted(
            draw(st.sets(st.sampled_from(separators), max_size=3)),
            reverse=True,
        ):
            line = line[:cut] + "\r" + line[cut:]
        pieces.append(line + draw(st.sampled_from(["\n", "\r\n"])))
    return "".join(pieces).encode("utf-8")


@settings(max_examples=60, deadline=None)
@given(data=spool_lines(), cuts=st.lists(st.integers(0, 4096), max_size=8))
def test_the_tailer_reads_a_file_appended_in_any_chunks(data, cuts):
    """Appended in arbitrary byte chunks with a poll after each, the
    spool reads what the whole file holds, and its offset always stands
    just past the last complete line: it never stalls on one."""
    bounds = sorted({cut % (len(data) + 1) for cut in cuts} | {len(data)})
    with tempfile.TemporaryDirectory() as spool:
        path = Path(spool) / "records.jsonl"
        path.write_bytes(b"")
        source = SpoolDirectorySource(spool)
        records, start = source.poll(10**6), 0
        with open(path, "ab") as handle:
            for end in bounds:
                handle.write(data[start:end])
                handle.flush()
                records += source.poll(10**6)
                [held] = source._files.values()
                assert held.offset == data.rfind(b"\n", 0, end) + 1
                start = end
        source.close()
    assert records == jsonl_records(data)
