"""A saved fit opens by its file stamp; a replaced one never does.

``FittedKBT.save`` records the artifact file's stamp — ``(st_dev,
st_ino, st_size, st_mtime_ns, st_ctime_ns)`` — in the manifest of the
layout it writes beside the file. ``MmapTrustStore.open``,
``StoreManager.swap`` and ``kbt serve`` find that layout by the stamp
and read no byte of the artifact: here ``artifact_etag`` raises, and
each still serves the ETag ``sha256(file)``. Any other file at that
path (rewritten in place, replaced by rename, touched) and any manifest
without a stamp goes through the hash, and is refused unless the layout
of those bytes is there.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import pytest

pytest.importorskip("numpy")

from repro.cli import main
from repro.core.kbt import KBTEstimator
from repro.io import mmap_layout
from repro.io.mmap_layout import (
    LayoutError,
    artifact_stamp,
    cached_layout_dirs,
    layout_cache_dir,
)
from repro.serving import gateway, mmap_store
from repro.serving.manager import StoreManager
from repro.serving.mmap_store import MmapTrustStore

from test_ingest import batch_for, corpus


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def hashing(monkeypatch, refuse: bool = False) -> list[Path]:
    """Route every ``artifact_etag`` call through a recorder; with
    ``refuse``, every call fails."""
    calls: list[Path] = []
    real = mmap_layout.artifact_etag

    def recorded(path):
        calls.append(Path(path))
        if refuse:
            raise AssertionError(f"read the bytes of {path}")
        return real(path)

    for module in (mmap_layout, mmap_store):
        monkeypatch.setattr(module, "artifact_etag", recorded)
    return calls


def manifest_of(path: Path) -> Path:
    return layout_cache_dir(path, sha256(path)) / "manifest.json"


@pytest.fixture(scope="module")
def fitted():
    return KBTEstimator().fit(corpus())


@pytest.fixture
def saved(fitted, tmp_path) -> Path:
    return fitted.save(tmp_path / "model.kbt")


def test_the_manifest_records_the_files_stamp(saved):
    manifest = manifest_of(saved)
    recorded = json.loads(manifest.read_text())["stamp"]
    assert recorded == artifact_stamp(saved)
    # Written after the change the stamp records: a later change of the
    # file, within the same clock tick or not, changes its stamp.
    assert manifest.stat().st_mtime_ns > recorded[4]


def test_open_swap_and_serve_read_no_byte_of_a_saved_fit(
    fitted, saved, tmp_path, monkeypatch
):
    (tmp_path / "next").mkdir()
    other = KBTEstimator().fit(corpus() + batch_for("a.com", "more")).save(
        tmp_path / "next" / "model.kbt"
    )
    etags = {path: sha256(path) for path in (saved, other)}
    layouts = {path: cached_layout_dirs(path) for path in (saved, other)}
    hashing(monkeypatch, refuse=True)

    store = MmapTrustStore.open(saved)
    assert store.etag == etags[saved]
    manager = StoreManager(store)
    manager.swap(other)
    assert manager.etag == etags[other]
    manager.close()

    served = []
    monkeypatch.setattr(
        gateway, "serve_gateway", lambda store, **_: served.append(store)
    )
    assert main(["serve", str(saved), "--port", "0"]) == 0
    [store] = served
    assert store.etag == etags[saved]
    store.close()
    assert {path: cached_layout_dirs(path) for path in layouts} == layouts


def test_an_in_place_rewrite_is_served_only_through_the_hash(
    saved, monkeypatch
):
    data = bytearray(saved.read_bytes())
    inode = saved.stat().st_ino
    calls = hashing(monkeypatch)

    # The same bytes written back: the stamp moved, the hash finds the
    # layout of these bytes.
    with open(saved, "r+b") as handle:
        handle.write(data)
    assert MmapTrustStore.open(saved).etag == sha256(saved)
    assert calls == [saved]

    # New bytes, same inode and size: no layout holds them.
    data[len(data) // 2] ^= 0xFF
    with open(saved, "r+b") as handle:
        handle.write(data)
    assert (saved.stat().st_ino, saved.stat().st_size) == (inode, len(data))
    with pytest.raises(LayoutError, match="no serving-layout manifest"):
        MmapTrustStore.open(saved)
    assert calls == [saved, saved]


def test_a_replacement_by_rename_is_served_only_through_the_hash(
    saved, tmp_path, monkeypatch
):
    (tmp_path / "other").mkdir()
    other = KBTEstimator().fit(corpus() + batch_for("b.com", "other")).save(
        tmp_path / "other" / "model.kbt"
    )
    copy = tmp_path / "copy.kbt"
    shutil.copyfile(saved, copy)
    calls = hashing(monkeypatch)

    # A copy of the same bytes renamed over it: a new inode, the hash
    # finds the layout of these bytes.
    os.replace(copy, saved)
    assert MmapTrustStore.open(saved).etag == sha256(saved)
    assert calls == [saved]

    # Another fit renamed over it: its layout lives beside its old name.
    os.replace(other, saved)
    with pytest.raises(LayoutError, match="no serving-layout manifest"):
        MmapTrustStore.open(saved)
    assert calls == [saved, saved]


def test_a_touched_artifact_falls_back_to_the_hash(saved, monkeypatch):
    etag = sha256(saved)
    calls = hashing(monkeypatch)
    os.utime(saved)
    assert MmapTrustStore.open(saved).etag == etag
    assert calls == [saved]


def test_a_manifest_without_a_stamp_is_served_through_the_hash(
    saved, monkeypatch
):
    # What a layout written before stamps holds.
    manifest = manifest_of(saved)
    document = json.loads(manifest.read_text())
    del document["stamp"]
    manifest.write_text(json.dumps(document, indent=1) + "\n")
    calls = hashing(monkeypatch)
    assert MmapTrustStore.open(saved).etag == sha256(saved)
    assert calls == [saved]


def test_a_stamp_no_newer_than_its_manifest_does_not_count(
    saved, monkeypatch
):
    # A manifest last written within the clock tick of the change its
    # stamp records could not tell a second change in that tick.
    manifest = manifest_of(saved)
    changed = json.loads(manifest.read_text())["stamp"][4]
    os.utime(manifest, ns=(changed, changed))
    calls = hashing(monkeypatch)
    assert MmapTrustStore.open(saved).etag == sha256(saved)
    assert calls == [saved]


def test_a_stamp_in_a_directory_of_another_etag_does_not_count(
    saved, monkeypatch
):
    # The stamp speaks for the ETag its manifest names, and only in the
    # directory of that ETag.
    directory = manifest_of(saved).parent
    moved = layout_cache_dir(saved, "0" * 64)
    directory.rename(moved)
    calls = hashing(monkeypatch)
    with pytest.raises(LayoutError, match="no serving-layout manifest"):
        MmapTrustStore.open(saved)
    assert calls == [saved]
