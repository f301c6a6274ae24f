"""What a write the file system refuses leaves behind.

``save_artifact`` and ``save_checkpoint`` write through
``repro.io.atomic.atomic_write``; a full disk (``ENOSPC``), hit before a
chunk is written or after part of it (a short write), must leave the
previous file byte-identical, no temporary file, and, for an artifact,
no serving layout for bytes that never landed. ``kbt fit`` and ``kbt
update`` refuse an output in a missing directory before reading a
record: one ``error:`` line, exit 1.
"""

from __future__ import annotations

import errno
import hashlib
from contextlib import contextmanager
from dataclasses import replace

import pytest

pytest.importorskip("numpy")

import repro.exec.checkpoint as checkpoint_module
import repro.io.artifact as artifact_module
import repro.io.jsonl as jsonl_module
from repro.cli import main as cli_main
from repro.core.config import ConvergenceConfig, MultiLayerConfig
from repro.core.kbt import FittedKBT, KBTEstimator
from repro.core.multi_layer import MultiLayerModel
from repro.core.observation import ObservationMatrix
from repro.exec.checkpoint import load_checkpoint
from repro.io.artifact import ArtifactError, TrustArtifact, save_artifact
from repro.io.atomic import atomic_write
from repro.io.jsonl import read_records, write_records
from repro.io.mmap_layout import cached_layout_dirs, layout_cache_dir
from repro.serving.mmap_store import MmapTrustStore

from test_artifact import corpus
from test_determinism_ladder import CORPUS, result_digest


class _FullDisk:
    """A write handle over a disk with ``room`` bytes left: the write
    that does not fit raises ``ENOSPC``, after writing the part that
    fits when ``short``."""

    def __init__(self, handle, room: int, short: bool) -> None:
        self._handle = handle
        self._room = room
        self._short = short

    def write(self, data) -> int:
        view = memoryview(data).cast("B")
        if view.nbytes <= self._room:
            self._room -= view.nbytes
            return self._handle.write(data)
        if self._short and self._room:
            self._handle.write(bytes(view[: self._room]))
            self._room = 0
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._handle, name)


def full_disk(room: int, short: bool, after: int = 0):
    """An ``atomic_write`` whose writes after the first ``after`` calls
    go to a disk with ``room`` bytes left."""
    calls = []

    @contextmanager
    def faulty(path, mode="wb", encoding=None):
        calls.append(path)
        with atomic_write(path, mode, encoding) as handle:
            yield handle if len(calls) <= after else _FullDisk(
                handle, room, short
            )

    return faulty


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


FAULTS = {"enospc": False, "short-write": True}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_failed_overwrite_keeps_the_old_artifact(tmp_path, monkeypatch, fault):
    old = KBTEstimator().fit(corpus())
    path = old.save(tmp_path / "model.kbt")
    before = path.read_bytes()
    layouts = cached_layout_dirs(path)
    assert layouts == [layout_cache_dir(path, sha256(path))]
    new = KBTEstimator(min_triples=1.0).fit(corpus()[:40])

    monkeypatch.setattr(
        artifact_module, "atomic_write", full_disk(600, FAULTS[fault])
    )
    with pytest.raises(ArtifactError, match="No space left") as raised:
        new.save(path)
    assert f"cannot write artifact {path}" in str(raised.value)
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
    assert cached_layout_dirs(path) == layouts
    assert FittedKBT.load(path).website_scores() == old.website_scores()
    store = MmapTrustStore.open(path)
    try:
        # The old bytes' layout, still on disk, is what is mapped.
        assert [store.directory] == layouts
        assert store.etag == sha256(path)
    finally:
        store.close()


def test_missing_directory_is_an_artifact_error(tmp_path):
    fitted = KBTEstimator().fit(corpus())
    target = tmp_path / "nodir" / "model.kbt"
    artifact = TrustArtifact(
        result=fitted.result, config=fitted.config, min_triples=5.0
    )
    with pytest.raises(ArtifactError, match=f"cannot write artifact {target}"):
        save_artifact(artifact, target)
    assert not (tmp_path / "nodir").exists()


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_failed_checkpoint_write_keeps_the_last_one(
    tmp_path, monkeypatch, fault
):
    matrix = ObservationMatrix.from_records(read_records(CORPUS))
    plain = MultiLayerConfig(
        convergence=ConvergenceConfig(max_iterations=4, tolerance=0.0)
    )
    cfg = replace(plain, checkpoint_dir=str(tmp_path), checkpoint_every=1)
    # Iterations 1 and 2 checkpoint; the disk fills during the third.
    monkeypatch.setattr(
        checkpoint_module,
        "atomic_write",
        full_disk(2000, FAULTS[fault], after=2),
    )
    with pytest.raises(OSError, match="No space left"):
        MultiLayerModel(cfg).fit(matrix)
    monkeypatch.undo()

    assert load_checkpoint(tmp_path).iteration == 2
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
    resumed = MultiLayerModel(replace(cfg, resume=True)).fit(matrix)
    assert result_digest(resumed) == result_digest(
        MultiLayerModel(plain).fit(matrix)
    )


# ----------------------------------------------------------------------
# An output in a missing directory costs no fit
# ----------------------------------------------------------------------
@pytest.fixture
def records_file(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records(corpus(), path)
    return path


@pytest.fixture
def no_reading(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a record was read")

    monkeypatch.setattr(jsonl_module, "read_records", refuse)


def one_error_line(capsys, what: str) -> None:
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {what} ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--artifact", "--output", "--trace"])
def test_fit_checks_its_output_directories_first(
    tmp_path, records_file, no_reading, capsys, flag
):
    target = tmp_path / "nodir" / "out"
    assert cli_main(["fit", str(records_file), flag, str(target)]) == 1
    one_error_line(capsys, flag[2:])
    assert not (tmp_path / "nodir").exists()


def test_update_checks_its_output_directory_first(
    tmp_path, records_file, capsys, monkeypatch
):
    artifact = KBTEstimator().fit(corpus()).save(tmp_path / "model.kbt")
    before = artifact.read_bytes()
    monkeypatch.setattr(
        jsonl_module,
        "read_records",
        lambda *_args: pytest.fail("a record was read"),
    )
    target = tmp_path / "nodir" / "updated.kbt"
    assert cli_main([
        "update", str(artifact), str(records_file),
        "--artifact-out", str(target),
    ]) == 1
    one_error_line(capsys, "artifact")
    assert artifact.read_bytes() == before
