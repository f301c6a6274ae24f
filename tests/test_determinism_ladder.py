"""The determinism ladder, pinned: golden digests for every rung.

The repo's execution subsystem makes seven bit-identity promises (the
"determinism ladder" of ``docs/architecture.md``):

1. **Engine parity** — numpy engine within 1e-9 of the reference python
   engine on every config axis (and the numpy result itself is pinned).
2. **Backend/shard invariance** — serial / threads / processes at any
   shard count produce the unsharded numpy engine's exact bytes.
3. **Out-of-core identity** — spilled, memory-mapped, LRU-capped fits
   produce the same bytes.
4. **Fault-recovery identity** — a fit that loses a worker mid-flight
   (and checkpoints throughout) still produces the same bytes.
5. **Remote placement invariance** — a fit distributed over TCP workers
   produces the same bytes.
6. **Ingest replay identity** — a warm-start update chain produces
   byte-identical artifacts (fixed zip timestamps, hand-built npz).
7. **Chunked-reduce identity** — the streamed per-iteration reduce
   (``reduce_chunk``) produces the same bytes for every chunk size.

Before this suite, each promise was asserted only pairwise inside its
feature's own tests — a kernel change that shifted *all* results in
lockstep would pass every pairwise check. Here the expected results are
**committed golden digests** over a committed corpus
(``tests/goldens/``): any change to the float64 arithmetic, however
uniform, fails the rung it breaks by name.

A failure does not always mean a bug: an *intended* numerical change
(e.g. a new default, a reordered reduction) legitimately moves the
goldens. Regenerate them with ``python tools/regen_goldens.py`` and
commit the diff — the point is that the change is visible in review,
not that the bytes are sacred.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

pytest.importorskip("numpy")

from repro.core.config import ConvergenceConfig, MultiLayerConfig
from repro.core.kbt import FittedKBT, KBTEstimator
from repro.core.multi_layer import MultiLayerModel
from repro.core.observation import ObservationMatrix
from repro.exec.faults import FaultPlan
from repro.io.jsonl import read_records

from test_exec_backends import CONFIG_AXES
from test_fault_tolerance import FAST_SUPERVISION, set_faults
from test_remote import free_endpoint, worker_fleet

GOLDENS_DIR = Path(__file__).parent / "goldens"
CORPUS = GOLDENS_DIR / "corpus.jsonl"
UPDATES = GOLDENS_DIR / "updates.jsonl"
DIGESTS_PATH = GOLDENS_DIR / "ladder_digests.json"

#: Engine-parity budget (ladder entry 1): the python and numpy engines
#: may differ by floating-point summation order, nothing more.
PARITY_TOLERANCE = 1e-9


def _regen_hint(entry: int, name: str) -> str:
    return (
        f"determinism-ladder entry {entry} ({name}) is broken: the fit "
        "no longer reproduces the committed golden digest over "
        "tests/goldens/corpus.jsonl. If this is an unintended side "
        "effect, the change altered the float64 arithmetic of the EM "
        "loop — fix it. If the numerical change is intended, regenerate "
        "the goldens (python tools/regen_goldens.py) and commit the "
        "diff."
    )


def ladder_config(**kwargs) -> MultiLayerConfig:
    """The pinned fit configuration every golden is computed under.

    Fixed iteration budget with tolerance 0 so every backend runs the
    same number of rounds regardless of convergence noise.
    """
    return MultiLayerConfig(
        engine="numpy",
        convergence=ConvergenceConfig(max_iterations=4, tolerance=0.0),
        **kwargs,
    )


def result_digest(result) -> str:
    """A canonical sha256 over every float a fit produces.

    Floats are serialized with ``float.hex`` (exact, locale-free), keys
    by their stable ``__str__``; entries are sorted so dict order cannot
    leak in. Two results digest equal iff they are bit-identical.
    """
    lines = [f"iterations {result.iterations_run}"]
    for source in sorted(result.source_accuracy, key=str):
        lines.append(
            f"A {source} {float(result.source_accuracy[source]).hex()}"
        )
    for extractor in sorted(result.extractor_quality, key=str):
        quality = result.extractor_quality[extractor]
        lines.append(
            f"Q {extractor} {float(quality.precision).hex()} "
            f"{float(quality.recall).hex()} {float(quality.q).hex()}"
        )
    for item in sorted(result.value_posteriors, key=str):
        values = result.value_posteriors[item]
        for value in sorted(values, key=str):
            lines.append(f"V {item} {value} {float(values[value]).hex()}")
    for coord in sorted(result.extraction_posteriors, key=str):
        lines.append(
            f"X {coord} {float(result.extraction_posteriors[coord]).hex()}"
        )
    for coord in sorted(result.priors, key=str):
        lines.append(f"P {coord} {float(result.priors[coord]).hex()}")
    for snap in result.history:
        lines.append(
            f"H {snap.iteration} {float(snap.max_accuracy_delta).hex()} "
            f"{float(snap.max_extractor_delta).hex()}"
        )
    payload = "\n".join(lines).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def fit_ladder(observations, **overrides):
    cfg = ladder_config(**overrides)
    return MultiLayerModel(cfg).fit(observations)


#: The model-configuration axes pinned one digest each (``fit_float64_axes``
#: in the goldens file): the backend-parity axes plus the no-prior ablation.
#: The digests were generated by the inline ``fit_numpy`` loop that PR 12
#: deleted, so they — not a pairwise comparison of the driver with itself —
#: are what proves the surviving loop computes the same bits on every axis.
AXIS_CONFIGS = {
    **CONFIG_AXES,
    "no-prior-update": MultiLayerConfig(engine="numpy", update_prior=False),
}


def fit_axis(observations, axis: str, **placement):
    cfg = dataclasses.replace(
        AXIS_CONFIGS[axis],
        convergence=ladder_config().convergence,
        **placement,
    )
    return MultiLayerModel(cfg).fit(observations)


@pytest.fixture(scope="module")
def corpus():
    return ObservationMatrix.from_records(read_records(CORPUS))


@pytest.fixture(scope="module")
def goldens():
    assert DIGESTS_PATH.is_file(), (
        f"missing golden digests at {DIGESTS_PATH}; generate them with: "
        "python tools/regen_goldens.py"
    )
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Entry 1: engine parity
# ----------------------------------------------------------------------
def test_entry1_engine_parity(corpus, goldens):
    numpy_result = fit_ladder(corpus)
    assert result_digest(numpy_result) == goldens["fit_float64"], (
        _regen_hint(1, "engine parity: numpy fit vs pinned digest")
    )
    python_result = MultiLayerModel(
        dataclasses.replace(ladder_config(), engine="python")
    ).fit(corpus)
    for source, accuracy in numpy_result.source_accuracy.items():
        assert (
            abs(accuracy - python_result.source_accuracy[source])
            <= PARITY_TOLERANCE
        ), _regen_hint(
            1, f"engine parity: python vs numpy accuracy of {source}"
        )
    for item, values in numpy_result.value_posteriors.items():
        for value, p in values.items():
            assert (
                abs(p - python_result.value_posteriors[item][value])
                <= PARITY_TOLERANCE
            ), _regen_hint(
                1, f"engine parity: python vs numpy posterior of {item}"
            )


# ----------------------------------------------------------------------
# Entry 2: backend/shard invariance
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
@pytest.mark.parametrize("shards", [1, 2, 8])
def test_entry2_backend_shard_invariance(corpus, goldens, backend, shards):
    result = fit_ladder(corpus, backend=backend, num_shards=shards)
    assert result_digest(result) == goldens["fit_float64"], _regen_hint(
        2, f"backend/shard invariance: {backend} x {shards} shards"
    )


@pytest.mark.parametrize(
    "placement",
    [
        {},
        {"backend": "serial", "num_shards": 1},
        {"backend": "processes", "num_shards": 3},
    ],
    ids=["unsharded", "serial-1", "processes-3"],
)
@pytest.mark.parametrize("axis", sorted(AXIS_CONFIGS))
def test_entry2_config_axes_pinned(corpus, goldens, axis, placement):
    result = fit_axis(corpus, axis, **placement)
    assert result_digest(result) == goldens["fit_float64_axes"][axis], (
        _regen_hint(
            2, f"backend/shard invariance: config axis {axis!r}, {placement}"
        )
    )


def saved_bytes(corpus, path, **placement) -> bytes:
    fitted = KBTEstimator(ladder_config(), **placement).fit(corpus)
    return fitted.save(path).read_bytes()


@pytest.mark.parametrize(
    "placement",
    [
        {"backend": "serial", "num_shards": 1},
        {"backend": "threads", "num_shards": 3},
        {"backend": "processes", "num_shards": 2},
        {
            "backend": "serial",
            "num_shards": 4,
            "spill_dir": "spill",
            "max_resident_shards": 1,
        },
        {"reduce_chunk": 257},
        {"checkpoint_dir": "ck"},
    ],
    ids=["serial-1", "threads-3", "processes-2", "spill", "chunk", "ckpt"],
)
def test_entry2_artifact_bytes_placement_invariance(
    corpus, placement, tmp_path
):
    """Rung 2 extended from results to bytes: where a fit ran is not in
    the artifact, so neither is it in the serving etag."""
    placement = {
        key: str(tmp_path / value) if key.endswith("_dir") else value
        for key, value in placement.items()
    }
    placed = saved_bytes(corpus, tmp_path / "placed.kbt", **placement)
    assert placed == saved_bytes(corpus, tmp_path / "plain.kbt"), (
        f"artifact bytes depend on placement {placement}"
    )


# ----------------------------------------------------------------------
# Entry 3: out-of-core identity
# ----------------------------------------------------------------------
def test_entry3_outofcore_identity(corpus, goldens, tmp_path):
    result = fit_ladder(
        corpus,
        backend="serial",
        num_shards=4,
        spill_dir=str(tmp_path / "spill"),
        max_resident_shards=1,
    )
    assert result_digest(result) == goldens["fit_float64"], _regen_hint(
        3, "out-of-core identity: spilled fit, 1 resident packet"
    )


# ----------------------------------------------------------------------
# Entry 4: fault-recovery identity
# ----------------------------------------------------------------------
def test_entry4_fault_recovery_identity(
    corpus, goldens, tmp_path, monkeypatch
):
    set_faults(monkeypatch, FaultPlan(kill_worker=((1, 2),)))
    result = fit_ladder(
        corpus,
        backend="processes",
        num_shards=2,
        checkpoint_dir=str(tmp_path / "ckpt"),
    )
    assert result_digest(result) == goldens["fit_float64"], _regen_hint(
        4, "fault-recovery identity: worker kill + checkpointing"
    )


# ----------------------------------------------------------------------
# Entry 5: remote placement invariance
# ----------------------------------------------------------------------
def test_entry5_remote_placement_invariance(corpus, goldens, monkeypatch):
    for key, value in FAST_SUPERVISION.items():
        monkeypatch.setenv(key, value)
    endpoint = free_endpoint()
    with worker_fleet(endpoint, count=2):
        result = fit_ladder(
            corpus,
            backend="remote",
            num_shards=4,
            remote_endpoint=endpoint,
            num_workers=2,
        )
    assert result_digest(result) == goldens["fit_float64"], _regen_hint(
        5, "remote placement invariance: 2 TCP workers, 4 shards"
    )


# ----------------------------------------------------------------------
# Entry 6: ingest replay identity (artifact bytes)
# ----------------------------------------------------------------------
def test_entry6_ingest_replay_identity(corpus, goldens, tmp_path):
    fitted = FittedKBT(
        result=fit_ladder(corpus),
        observations=corpus,
        config=ladder_config(),
    )
    updated = fitted.update(read_records(UPDATES), sweeps=2)
    assert result_digest(updated.result) == goldens["update_float64"], (
        _regen_hint(6, "ingest replay identity: warm-start update result")
    )
    artifact = tmp_path / "updated.kbt.zip"
    updated.save(artifact)
    digest = hashlib.sha256(artifact.read_bytes()).hexdigest()
    assert digest == goldens["artifact_sha256"], _regen_hint(
        6, "ingest replay identity: updated artifact bytes"
    )


# ----------------------------------------------------------------------
# Entry 7: chunked-reduce identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chunk", [1, 7, 64, 10**9])
def test_entry7_chunked_reduce_identity(corpus, goldens, chunk):
    result = fit_ladder(
        corpus, backend="serial", num_shards=2, reduce_chunk=chunk
    )
    assert result_digest(result) == goldens["fit_float64"], _regen_hint(
        7, f"chunked-reduce identity: reduce_chunk={chunk}"
    )


def test_entry7_chunked_reduce_outofcore(corpus, goldens, tmp_path):
    """The windowed page-release path (out-of-core + streamed reduce)
    must not perturb the bytes either."""
    result = fit_ladder(
        corpus,
        backend="serial",
        num_shards=4,
        spill_dir=str(tmp_path / "spill"),
        max_resident_shards=1,
        reduce_chunk=19,
    )
    assert result_digest(result) == goldens["fit_float64"], _regen_hint(
        7, "chunked-reduce identity: out-of-core windowed release"
    )


# ----------------------------------------------------------------------
# Regeneration (driven by tools/regen_goldens.py)
# ----------------------------------------------------------------------
def regenerate() -> dict:
    """Recompute every golden digest and rewrite ``ladder_digests.json``.

    Only the *reference* fits are rerun (unsharded float64 fit — once
    under the ladder config and once per ``AXIS_CONFIGS`` entry — the
    warm-start update chain, the artifact bytes): every other rung
    asserts bit-identity *to* these, so they share the same goldens.
    """
    import tempfile

    corpus = ObservationMatrix.from_records(read_records(CORPUS))
    reference = fit_ladder(corpus)
    fitted = FittedKBT(
        result=reference, observations=corpus, config=ladder_config()
    )
    updated = fitted.update(read_records(UPDATES), sweeps=2)
    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "updated.kbt.zip"
        updated.save(artifact)
        artifact_sha = hashlib.sha256(artifact.read_bytes()).hexdigest()
    goldens = {
        "fit_float64": result_digest(reference),
        "fit_float64_axes": {
            axis: result_digest(fit_axis(corpus, axis))
            for axis in sorted(AXIS_CONFIGS)
        },
        "update_float64": result_digest(updated.result),
        "artifact_sha256": artifact_sha,
    }
    DIGESTS_PATH.write_text(
        json.dumps(goldens, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return goldens
