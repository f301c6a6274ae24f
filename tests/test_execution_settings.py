"""Execution settings are named once and are not model state.

``EXECUTION_FIELDS`` (``repro.core.config``) is the single definition of
"where and how a fit runs". The table-driven test walks every consumer
of that definition so a knob cannot be half-plumbed; the regression
tests pin the bugs that came from persisting placement in artifacts.
"""

from __future__ import annotations

import threading

import pytest

pytest.importorskip("numpy")

import repro.core.kbt as kbt_module
import repro.exec.driver as driver
from repro.cli import build_parser, main
from repro.core.config import EXECUTION_FIELDS, MultiLayerConfig
from repro.core.kbt import FittedKBT, KBTEstimator
from repro.core.multi_layer import MultiLayerModel
from repro.exec.backends import SerialBackend
from repro.exec.checkpoint import config_digest
from repro.io.artifact import TrustArtifact, save_artifact
from repro.io.jsonl import write_records
from test_determinism_ladder import ladder_config
from test_ingest import batch_for, corpus

NEW = batch_for("fresh.example", "t0")


def knob_settings(name: str, scratch) -> dict:
    """A valid non-default value for ``name`` plus the fields it needs."""
    scratch = str(scratch)
    return {
        "backend": {"backend": "threads"},
        "num_shards": {"num_shards": 2},
        "spill_dir": {"spill_dir": scratch},
        "max_resident_shards": {
            "max_resident_shards": 1, "spill_dir": scratch,
        },
        "checkpoint_dir": {"checkpoint_dir": scratch},
        "checkpoint_every": {"checkpoint_every": 2},
        "resume": {"resume": True, "checkpoint_dir": scratch},
        "remote_endpoint": {"remote_endpoint": "127.0.0.1:1"},
        "num_workers": {
            "num_workers": 2, "remote_endpoint": "127.0.0.1:1",
        },
        "reduce_chunk": {"reduce_chunk": 7},
    }[name]


def dests(*argv: str) -> set[str]:
    """Every ``dest`` the parser of one subcommand line defines."""
    return set(vars(build_parser().parse_args(argv)))


@pytest.fixture
def fit_configs(monkeypatch):
    """Record the config of every model fit, and run each fit on the
    serial backend whatever it names (``remote`` would wait for workers)."""
    seen = []

    class Recording(MultiLayerModel):
        def __init__(self, config):
            seen.append(config)
            super().__init__(config)

    monkeypatch.setattr(kbt_module, "MultiLayerModel", Recording)
    for name in driver.BACKENDS:
        monkeypatch.setitem(driver.BACKENDS, name, SerialBackend)
    return seen


@pytest.mark.parametrize("name", EXECUTION_FIELDS)
def test_knob_is_plumbed_everywhere(name, tmp_path, fit_configs):
    settings = knob_settings(name, tmp_path / "fit")
    value = settings[name]
    default = MultiLayerConfig.__dataclass_fields__[name].default
    assert value != default

    # One estimator keyword, one update keyword, one CLI flag.
    estimator = KBTEstimator(min_triples=0.0, **settings)
    assert getattr(estimator._config, name) == value
    fitted = estimator.fit(corpus())
    assert getattr(fit_configs[-1], name) == value
    # (its own scratch: an update is a different problem from the fit,
    # so it must not be pointed at the fit's checkpoint)
    update_settings = knob_settings(name, tmp_path / "update")
    fitted.update(NEW, **update_settings)
    assert getattr(fit_configs[-1], name) == update_settings[name]
    assert name in dests("fit", "r.jsonl")
    assert name in dests("update", "m.kbt", "r.jsonl")

    # Not part of what a checkpoint or an artifact identifies.
    base = MultiLayerConfig(engine="numpy")
    placed = base.with_execution(**settings)
    assert placed != base and placed.without_execution() == base
    assert config_digest(placed) == config_digest(base)
    assert getattr(fitted.config, name) == default
    loaded = FittedKBT.load(fitted.save(tmp_path / "model.kbt"))
    assert getattr(loaded.config, name) == default
    assert loaded.config == loaded.config.without_execution()


def test_unknown_execution_name_is_a_type_error():
    with pytest.raises(TypeError, match="shards.*valid names.*num_shards"):
        KBTEstimator(shards=2)
    fitted = KBTEstimator(engine="numpy").fit(corpus())
    with pytest.raises(TypeError, match="bogus.*valid names.*reduce_chunk"):
        fitted.update(NEW, bogus=1)


def test_default_engine_is_the_array_engine(tmp_path):
    """One engine policy: the library default is what ``kbt fit`` runs."""
    assert MultiLayerConfig().engine == "numpy"
    assert build_parser().parse_args(["fit", "r.jsonl"]).engine == "numpy"
    default = KBTEstimator().fit(corpus()).save(tmp_path / "default.kbt")
    named = KBTEstimator(engine="numpy").fit(corpus()).save(
        tmp_path / "named.kbt"
    )
    assert default.read_bytes() == named.read_bytes()


def test_python_engine_is_never_moved_off():
    """An execution override on an explicit python engine is the
    constructor's error, on every override path."""
    python = MultiLayerConfig(engine="python")
    for call in (
        lambda: python.with_execution(num_shards=2),
        lambda: python.with_execution(precision="float32"),
        lambda: KBTEstimator(config=python, backend="threads"),
        lambda: KBTEstimator(engine="python", reduce_chunk=8),
    ):
        with pytest.raises(ValueError, match='engine="numpy"'):
            call()
    assert python.with_execution(engine="numpy", num_shards=2).num_shards == 2
    assert python.with_execution() == python


def test_ingest_parser_has_placement_but_no_checkpoint_flags(capsys):
    trio = {"checkpoint_dir", "checkpoint_every", "resume"}
    ingest = dests("ingest", "model.kbt", "--stdin")
    assert set(EXECUTION_FIELDS) - trio <= ingest
    assert not trio & ingest
    with pytest.raises(SystemExit) as excinfo:
        main(["ingest", "model.kbt", "--stdin", "--resume"])
    assert excinfo.value.code == 2
    assert "--resume" in capsys.readouterr().err


def test_config_digest_of_ladder_config_is_pinned():
    """Checkpoints written before EXECUTION_FIELDS existed still resume:
    the digest is the value the hand-kept exclusion list produced."""
    assert config_digest(ladder_config()) == (
        "fe93d8ee42a7b080c38b879784a4df60"
        "67d2736ac863369e5476311bb46e1a4b"
    )


# ----------------------------------------------------------------------
# An artifact outlives the placement that fitted it
# ----------------------------------------------------------------------
def finishes(call, seconds: float = 30.0):
    """Run ``call`` on a thread; fail instead of hanging the suite."""
    box = {}
    thread = threading.Thread(
        target=lambda: box.setdefault("result", call()), daemon=True
    )
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds}s"
    return box["result"]


def plain_update(tmp_path) -> bytes:
    fitted = KBTEstimator(engine="numpy").fit(corpus())
    return fitted.update(NEW).save(tmp_path / "plain.kbt").read_bytes()


def test_update_after_resumed_checkpointed_fit(tmp_path):
    fitted = KBTEstimator(
        checkpoint_dir=str(tmp_path / "ck"), resume=True
    ).fit(corpus())
    loaded = FittedKBT.load(fitted.save(tmp_path / "model.kbt"))
    updated = loaded.update(NEW)  # the fit's checkpoint is not consulted
    assert (
        updated.save(tmp_path / "updated.kbt").read_bytes()
        == plain_update(tmp_path)
    )


def stale_artifact(tmp_path, **placement):
    """An artifact as written before placement was stripped on save."""
    fitted = KBTEstimator(engine="numpy").fit(corpus())
    return save_artifact(
        TrustArtifact(
            result=fitted.result,
            config=MultiLayerConfig(engine="numpy", **placement),
            min_triples=fitted.min_triples,
            observations=fitted.observations,
        ),
        tmp_path / "stale.kbt",
    )


def test_update_of_remote_fitted_artifact_opens_no_socket(tmp_path):
    path = stale_artifact(
        tmp_path, backend="remote", remote_endpoint="127.0.0.1:1"
    )
    loaded = FittedKBT.load(path)
    assert loaded.config.backend is None
    assert loaded.config.remote_endpoint is None
    updated = finishes(lambda: loaded.update(NEW))
    assert (
        updated.save(tmp_path / "updated.kbt").read_bytes()
        == plain_update(tmp_path)
    )


def test_update_of_spilled_artifact_ignores_stale_spill_dir(tmp_path):
    gone = tmp_path / "other-machine" / "spill"
    loaded = FittedKBT.load(
        stale_artifact(tmp_path, backend="serial", spill_dir=str(gone))
    )
    assert loaded.config.spill_dir is None
    updated = loaded.update(NEW)
    assert not gone.exists()
    assert (
        updated.save(tmp_path / "updated.kbt").read_bytes()
        == plain_update(tmp_path)
    )


def test_cli_update_after_fit_with_resume(tmp_path, capsys):
    records, new = tmp_path / "d.jsonl", tmp_path / "new.jsonl"
    write_records(corpus(), records)
    write_records(NEW, new)
    artifact = tmp_path / "m.kbt"
    assert main([
        "fit", str(records), "-a", str(artifact),
        "--checkpoint-dir", str(tmp_path / "ck"), "--resume",
    ]) == 0
    assert main(["update", str(artifact), str(new)]) == 0
    assert "error:" not in capsys.readouterr().err
