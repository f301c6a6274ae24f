"""The column directory both on-disk formats share, and the shard packet.

:mod:`repro.io.container` is what the shard spill and the serving layout
write and read through; one suite, parametrized over both formats,
holds every failure to its caller's error class and remedy. The shard
packet encoding (:meth:`repro.exec.plan.Shard.encode`) is what the
spill writes and the ``remote`` wire ships; it must round-trip a packet
exactly, ``None`` fields included.
"""

from __future__ import annotations

import dataclasses
import errno
import json

import pytest

pytest.importorskip("numpy")

import numpy as np

from repro.core.config import FalseValueModel, MultiLayerConfig
from repro.core.indexing import compile_problem
from repro.exec import remote
from repro.exec.plan import Shard, ShardPlan
from repro.exec.protocol import decode_message, encode_message
from repro.exec.spill import _SPILL, OutOfCoreShardSource, SpillError
from repro.io.container import MANIFEST
from repro.io.mmap_layout import _LAYOUT, LayoutError

#: format -> (its error class, a fragment of its remedy)
FORMATS = {
    "spill": (_SPILL, SpillError, "re-run the fit with --spill-dir"),
    "layout": (_LAYOUT, LayoutError, "re-export the layout from the artifact"),
}


@pytest.fixture(params=sorted(FORMATS))
def fmt(request):
    fmt, error, remedy = FORMATS[request.param]
    assert fmt.error is error and remedy in fmt.remedy
    return fmt


def written(fmt, directory):
    """A complete two-column directory of ``fmt`` (one in a subdirectory)."""
    fmt.write(
        directory,
        {"col": np.arange(64, dtype=np.int64), "sub/col": np.ones(3)},
        {"n": 1},
    )
    return directory


# ----------------------------------------------------------------------
# The container: writing
# ----------------------------------------------------------------------
def test_manifest_text_and_columns(fmt, tmp_path):
    directory = written(fmt, tmp_path / "d")
    table = {"col": ["<i8", [64], 128], "sub/col": ["<f8", [3], 128]}
    assert (directory / MANIFEST).read_text("utf-8") == json.dumps(
        {"format": fmt.format, "version": fmt.version, "n": 1,
         "columns": table},
        indent=1,
    ) + "\n"
    assert fmt.read_manifest(directory)["n"] == 1
    column = fmt.map(directory, "col")
    assert isinstance(column, np.memmap) and not column.flags.writeable
    assert np.array_equal(column, np.arange(64))
    assert np.array_equal(fmt.map(directory, "sub/col"), np.ones(3))
    # Through the manifest's entry: no header parsed, a read-only typed
    # memoryview of the same values.
    for name, want in (("col", np.arange(64)), ("sub/col", np.ones(3))):
        mapped = fmt.map(directory, name, table[name])
        assert isinstance(mapped, memoryview) and mapped.readonly
        assert mapped.format == {"int64": "q", "float64": "d"}[want.dtype.name]
        assert mapped.tolist() == want.tolist()


def test_failed_rewrite_leaves_no_manifest(fmt, tmp_path, monkeypatch):
    """A write that dies mid-way (here: the disk fills on the second
    column) is the caller's error naming the directory, and leaves no
    manifest behind — not even the stale one."""
    directory = written(fmt, tmp_path / "d")
    save = np.save
    saves = []

    def filling_save(path, values):
        saves.append(path)
        if len(saves) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        save(path, values)

    monkeypatch.setattr(np, "save", filling_save)
    with pytest.raises(fmt.error, match="No space left") as caught:
        written(fmt, directory)
    assert str(directory) in str(caught.value)
    assert not (directory / MANIFEST).exists()
    monkeypatch.undo()
    with pytest.raises(fmt.error, match="no .*manifest"):
        fmt.read_manifest(directory)


def test_directory_that_is_a_file(fmt, tmp_path):
    path = tmp_path / "afile"
    path.write_text("not a directory")
    with pytest.raises(fmt.error) as caught:
        written(fmt, path)
    assert str(path) in str(caught.value)
    with pytest.raises(fmt.error) as caught:
        fmt.read_manifest(path)
    assert str(path) in str(caught.value)
    assert fmt.remedy in str(caught.value)
    assert path.read_text() == "not a directory"


# ----------------------------------------------------------------------
# The container: reading a damaged directory
# ----------------------------------------------------------------------
def _rewrite_manifest(directory, text):
    (directory / MANIFEST).write_text(text, "utf-8")


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 8])


def _read_manifest(fmt, directory):
    return fmt.read_manifest(directory)


def _read_column(fmt, directory):
    return fmt.map(directory, "col")


def _map_column(fmt, directory):
    """The column through its manifest entry, as a layout maps it."""
    return fmt.map(directory, "col", ["<i8", [64], 128])


def _map_big_endian_column(fmt, directory):
    """The column through an entry whose dtype no typed view maps."""
    return fmt.map(directory, "col", [">i8", [64], 128])


#: name -> (damage(directory, fmt), read(fmt, directory), message pattern)
DAMAGE = {
    "no manifest": (
        lambda d, fmt: (d / MANIFEST).unlink(),
        _read_manifest,
        "no .*manifest",
    ),
    "unreadable manifest": (
        lambda d, fmt: _rewrite_manifest(d, "{not json"),
        _read_manifest,
        "unreadable",
    ),
    "foreign format": (
        lambda d, fmt: _rewrite_manifest(
            d, json.dumps({"format": "other", "version": fmt.version})
        ),
        _read_manifest,
        "is not a .* manifest",
    ),
    "next version": (
        lambda d, fmt: _rewrite_manifest(
            d, json.dumps({"format": fmt.format, "version": fmt.version + 1})
        ),
        _read_manifest,
        "unsupported .* version",
    ),
    # A manifest of version 1 records no column table.
    "previous version": (
        lambda d, fmt: _rewrite_manifest(
            d, json.dumps({"format": fmt.format, "version": fmt.version - 1})
        ),
        _read_manifest,
        "unsupported .* version",
    ),
    "deleted column": (
        lambda d, fmt: (d / "col.npy").unlink(),
        _read_column,
        "missing or torn",
    ),
    "truncated column": (
        lambda d, fmt: _truncate(d / "col.npy"),
        _read_column,
        "missing or torn",
    ),
    "deleted mapped column": (
        lambda d, fmt: (d / "col.npy").unlink(),
        _map_column,
        "missing or torn",
    ),
    "truncated mapped column": (
        lambda d, fmt: _truncate(d / "col.npy"),
        _map_column,
        "missing or torn",
    ),
    "unmapped dtype": (
        lambda d, fmt: None,
        _map_big_endian_column,
        "not a 1-D column of a dtype this build maps",
    ),
}


@pytest.mark.parametrize("case", sorted(DAMAGE))
def test_damaged_directory_is_the_callers_error(fmt, case, tmp_path):
    damage, read, pattern = DAMAGE[case]
    directory = written(fmt, tmp_path / "d")
    damage(directory, fmt)
    with pytest.raises(fmt.error, match=pattern) as caught:
        read(fmt, directory)
    message = str(caught.value)
    assert str(directory) in message
    assert fmt.remedy in message
    assert isinstance(caught.value, ValueError)


def test_a_version_1_layout_cache_is_exported_again(tmp_path):
    """An artifact's cached layout from before the column table is not
    reused: the read side refuses it, writing nothing, and ``kbt serve``
    exports it again, under the same name."""
    from repro.core.kbt import KBTEstimator
    from repro.io.mmap_layout import (
        LAYOUT_VERSION,
        LayoutError,
        artifact_etag,
        layout_cache_dir,
    )
    from repro.serving.mmap_store import MmapTrustStore

    from test_artifact import corpus, serving_open

    path = KBTEstimator().fit(corpus()).save(tmp_path / "model.kbt")
    directory = layout_cache_dir(path, artifact_etag(path))
    manifest = json.loads((directory / MANIFEST).read_text("utf-8"))
    del manifest["columns"]
    manifest["version"] = 1
    _rewrite_manifest(directory, json.dumps(manifest))
    with pytest.raises(LayoutError, match="serving-layout version 1 "):
        MmapTrustStore.open(path)
    assert json.loads((directory / MANIFEST).read_text("utf-8")) == manifest
    store = serving_open(path)
    try:
        assert store.directory == directory
        assert _LAYOUT.read_manifest(directory)["version"] == LAYOUT_VERSION
    finally:
        store.close()


def _big_endian_scores(directory):
    manifest = json.loads((directory / MANIFEST).read_text("utf-8"))
    manifest["columns"]["site_score"][0] = ">f8"
    _rewrite_manifest(directory, json.dumps(manifest))


@pytest.mark.parametrize(
    "damage, pattern",
    [
        # Eight bytes short: a whole float64 row, so the view would
        # still cast; only the length check tells the file is torn.
        (lambda d: _truncate(d / "site_score.npy"), "missing or torn"),
        (_big_endian_scores, "not a 1-D column of a dtype this build maps"),
    ],
    ids=["truncated column", "unmapped dtype"],
)
def test_a_damaged_layout_does_not_open(damage, pattern, tmp_path):
    """A store over a layout whose column file is short, or whose
    manifest records a dtype no typed view maps, is a LayoutError
    naming the remedy, never a short or misread column."""
    from repro.core.kbt import KBTEstimator
    from repro.io.mmap_layout import artifact_etag, layout_cache_dir
    from repro.serving.mmap_store import MmapTrustStore

    from test_artifact import corpus

    path = KBTEstimator().fit(corpus()).save(tmp_path / "model.kbt")
    directory = layout_cache_dir(path, artifact_etag(path))
    MmapTrustStore.open(directory).close()
    damage(directory)
    with pytest.raises(LayoutError, match=pattern) as caught:
        MmapTrustStore.open(directory)
    assert "site_score" in str(caught.value)
    assert _LAYOUT.remedy in str(caught.value)


# ----------------------------------------------------------------------
# The shard packet encoding
# ----------------------------------------------------------------------
CONFIGS = {
    "accu": MultiLayerConfig(engine="numpy"),
    "popaccu": MultiLayerConfig(
        engine="numpy",
        false_value_model=FalseValueModel.POPACCU,
        use_weighted_vcv=False,
    ),
}


@pytest.fixture(params=sorted(CONFIGS))
def plan(request, synthetic_matrix):
    cfg = CONFIGS[request.param]
    plan = ShardPlan.from_problem(
        compile_problem(synthetic_matrix, cfg), cfg, 3
    )
    has_pop = request.param == "popaccu"
    assert all(
        (shard.claim_log_pop is not None) == has_pop for shard in plan.shards
    )
    return plan


def assert_same_shard(got: Shard, want: Shard) -> None:
    for field in dataclasses.fields(Shard):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if b is None or isinstance(b, int):
            assert a == b, field.name
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name


def test_shard_encoding_round_trip(plan):
    for shard in plan.shards:
        meta, arrays = shard.encode()
        assert meta == {
            "index": shard.index,
            "triple_lo": shard.triple_lo,
            "triple_hi": shard.triple_hi,
        }
        json.dumps(meta)
        assert ("claim_log_pop" in arrays) == (shard.claim_log_pop is not None)
        assert_same_shard(Shard.decode(meta, arrays), shard)


def test_shard_round_trip_through_the_spill(plan, tmp_path):
    plan.persist(tmp_path)
    source = OutOfCoreShardSource(tmp_path)
    for shard in plan.shards:
        assert_same_shard(source.get_shard(shard.index), shard)


def test_shard_round_trip_through_the_wire(plan):
    for shard in plan.shards:
        packet, packet_arrays = remote._pack_shard(shard)
        assert all(name.startswith("packet.") for name in packet_arrays)
        kind, meta, arrays = decode_message(
            encode_message(
                "task",
                {"packet": packet},
                {"param.pre_vote": np.zeros(2), **packet_arrays},
            )
        )
        assert kind == "task"
        assert_same_shard(remote._unpack_shard(meta, arrays), shard)
    assert remote._unpack_shard({}, {}) is None
