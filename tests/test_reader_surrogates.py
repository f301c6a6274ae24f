"""Lone surrogates: JSON that decodes to strings UTF-8 cannot encode.

A ``"\\ud800"`` escape is valid JSON, but the string it decodes to holds
a lone surrogate, which no UTF-8 file — an artifact, a layout, a CSV —
can carry. Every reader refuses such a record where it reads it, as
``path:line: malformed record``, instead of letting a fit run to its end
and fail in the save without naming a file or a line.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.kbt import KBTEstimator
from repro.io.jsonl import RecordParser, record_from_dict

from test_reader_boundary import READERS, TAILERS, file_of, good

HIGH, LOW = "\ud800", "\udfff"

#: One lone surrogate in each string a record carries.
LONE_SURROGATES = {
    "subject": good(subject="fr" + HIGH),
    "predicate": good(predicate=LOW),
    "value": good(value="par" + HIGH + "is"),
    "source-feature": good(source=["site.example", LOW]),
    "extractor-feature": good(extractor=["sys", "pat" + HIGH]),
    "reversed-pair": good(value=LOW + HIGH),
}


@pytest.mark.parametrize("case", LONE_SURROGATES)
def test_lone_surrogate_is_a_malformed_record(case):
    with pytest.raises(ValueError, match="malformed record"):
        record_from_dict(LONE_SURROGATES[case])


@pytest.mark.parametrize("case", LONE_SURROGATES)
def test_rejected_after_the_same_keys_were_seen(case):
    # The memo holds every key of a good record; the bad one differs
    # from it only in one string, and must not slip in on a hit.
    parser = RecordParser()
    parser.from_dict(good())
    with pytest.raises(ValueError, match="malformed record"):
        parser.from_dict(LONE_SURROGATES[case])


@READERS
@pytest.mark.parametrize("case", LONE_SURROGATES)
def test_lone_surrogate_is_reported_with_its_place(reader, case, tmp_path):
    path = file_of(tmp_path, good(), LONE_SURROGATES[case])
    text = path.read_text(encoding="utf-8")
    assert text.isascii() and "\\ud" in text  # escapes, not raw bytes
    with pytest.raises(ValueError) as caught:
        reader(path)
    where = f"byte {len(json.dumps(good())) + 1}" if reader in TAILERS else 2
    assert str(caught.value).startswith(f"{path}:{where}: malformed record")


@READERS
def test_surrogate_pairs_and_other_unicode_are_accepted(reader, tmp_path):
    record = good(subject="café", value="\U0001f600", source=["süd.example"])
    path = file_of(tmp_path, record)
    assert "\\ud83d\\ude00" in path.read_text(encoding="utf-8")
    assert reader(path) == [record_from_dict(record)]


def test_kbt_fit_names_the_line_and_saves_nothing(tmp_path, capsys):
    # The parent fitted the corpus, then failed in save_artifact with
    # "'utf-8' codec can't encode character '\ud800'", naming no file.
    records = [good(subject=f"s{i}") for i in range(5)]
    records.append(good(subject="s" + HIGH))
    path = file_of(tmp_path, *records, name="bad.jsonl")
    artifact = tmp_path / "model.kbt"
    assert main(["fit", str(path), "--artifact", str(artifact),
                 "--output", str(tmp_path / "s.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}:6: malformed record")
    assert len(captured.err.splitlines()) == 1
    assert not artifact.exists()


def test_kbt_ingest_refuses_the_spooled_record(tmp_path, capsys):
    # The parent took the record into the batch and died saving the
    # generation it made.
    model = tmp_path / "model.kbt"
    KBTEstimator().fit(
        [record_from_dict(good(subject=f"s{i}")) for i in range(6)]
    ).save(model)
    spool = tmp_path / "spool"
    spool.mkdir()
    bad = file_of(spool, good(), good(value=HIGH), name="a.jsonl")
    code = main([
        "ingest", str(model), "--watch", str(spool),
        "--batch-records", "2", "--max-batches", "1",
    ])
    assert code == 1
    captured = capsys.readouterr()
    offset = len(json.dumps(good())) + 1
    assert captured.err.startswith(
        f"error: {bad}:byte {offset}: malformed record"
    )
    assert "Traceback" not in captured.err
    generations = tmp_path / "model.kbt.generations"
    assert not list(generations.glob("gen-*.kbt"))
