"""Atomic fit checkpoints: crash-safe EM state under ``checkpoint_dir``.

A multi-hour sharded fit dies with the process that drives it — unless
the driver persists enough state to continue. This module defines that
state and its on-disk form. After the reduce of iteration ``t`` the
global model is fully described by

* the theta vectors (source accuracy; extractor precision/recall/Q),
* the assembled ``p_correct`` / ``posterior`` arrays of round ``t``,
* the coordinate priors round ``t + 1`` reads (iteration ``t``'s Eq. 26
  output, or ``cfg.alpha`` everywhere before the first re-estimation —
  see :func:`repro.exec.driver.fit_sharded`),
* the iteration counter and per-iteration convergence deltas.

That is the whole of the driver's loop state, and map tasks hold none,
so resuming is loading these arrays and running round ``t + 1`` on
whatever backend and shard count the resumed fit names: it continues to
the exact bytes an uninterrupted fit produces — asserted by
``tests/test_fault_tolerance.py``. (Version 1 files stored the priors
round ``t`` had read, one update behind, and are refused.)

Everything lands in one ``checkpoint.npz`` written with
:func:`repro.io.atomic.atomic_write` (temp-file-then-rename, the same
idiom as the spill manifest), so a crash mid-checkpoint leaves the
previous checkpoint intact.

Compatibility is enforced by two digests stored in the file:

* ``problem_digest`` — the compiled problem's dimensions plus a SHA-256
  over its index arrays. A checkpoint never resumes onto a different
  corpus.
* ``config_digest`` — the model-semantics fields of
  :class:`~repro.core.config.MultiLayerConfig`. Execution placement
  (backend, shard count, spill/checkpoint paths) and loop control
  (convergence) are excluded **by design**: a fit checkpointed under the
  serial backend may resume under the processes backend with a different
  shard count, and a converged fit may resume with a larger iteration
  budget — none of these change what is being estimated.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.config import EXECUTION_FIELDS
from repro.core.results import IterationSnapshot
from repro.io.atomic import atomic_write

#: Format identifier + version written to (and required from) checkpoints.
CHECKPOINT_FORMAT = "kbt-fit-checkpoint"
CHECKPOINT_VERSION = 2

#: Single-file checkpoint name under ``checkpoint_dir``.
CHECKPOINT_FILE = "checkpoint.npz"

#: Config fields excluded from the compatibility digest: execution
#: placement, engine and stopping control may legitimately differ
#: between a crashed fit and its resume without changing the model being
#: fitted. ``precision`` is deliberately covered: float32 changes the
#: numbers, so a resume across precision modes must be rejected.
_DIGEST_EXCLUDED = frozenset(EXECUTION_FIELDS) | {"engine", "convergence"}

#: CompiledProblem array fields hashed into the problem digest (the
#: index structure the EM actually runs over).
_DIGEST_ARRAYS = (
    "coord_source",
    "coord_triple",
    "coord_item",
    "entry_coord",
    "entry_col",
    "entry_conf",
    "claim_coord",
    "claim_triple",
    "triple_item",
    "item_ptr",
    "item_num_values",
    "triple_popularity",
)


class CheckpointError(ValueError):
    """A missing, unreadable, or incompatible fit checkpoint."""


def config_digest(cfg) -> str:
    """Digest of the model-semantics fields of a ``MultiLayerConfig``."""
    from repro.io.artifact import config_to_dict

    payload = {
        key: value
        for key, value in config_to_dict(cfg).items()
        if key not in _DIGEST_EXCLUDED
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def problem_digest(prob) -> str:
    """Digest of a compiled problem: dimensions + index-array bytes.

    Memory-mapped (out-of-core) and resident arrays hash identically —
    the digest covers values, not residency.
    """
    digest = hashlib.sha256()
    dims = (
        prob.num_coords,
        prob.num_triples,
        prob.num_items,
        len(prob.sources),
        prob.num_cols,
    )
    digest.update(json.dumps(dims).encode("utf-8"))
    for name in _DIGEST_ARRAYS:
        value = getattr(prob, name)
        digest.update(name.encode("utf-8"))
        if value is None:
            continue
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class FitCheckpoint:
    """One persisted EM state (the reduce output of ``iteration``)."""

    iteration: int
    accuracy: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    q_vec: np.ndarray
    p_correct: np.ndarray
    posterior: np.ndarray
    priors: np.ndarray
    history: tuple[IterationSnapshot, ...]
    problem_digest: str
    config_digest: str

    def validate(
        self,
        expected_problem: str,
        expected_config: str,
        directory: str | Path,
    ) -> None:
        """Reject resumption onto a different problem or model config."""
        if self.problem_digest != expected_problem:
            raise CheckpointError(
                f"checkpoint in {directory} was written for a different "
                f"problem (digest {self.problem_digest[:12]}..., this fit "
                f"compiles to {expected_problem[:12]}...); resuming would "
                "mix state across corpora — point --checkpoint-dir at a "
                "fresh directory or drop --resume"
            )
        if self.config_digest != expected_config:
            raise CheckpointError(
                f"checkpoint in {directory} was written under a different "
                "model configuration (execution and convergence settings "
                "may differ, model semantics may not); point "
                "--checkpoint-dir at a fresh directory or drop --resume"
            )


def save_checkpoint(
    directory: str | Path,
    *,
    iteration: int,
    params,
    p_correct: np.ndarray,
    posterior: np.ndarray,
    priors: np.ndarray,
    history: list[IterationSnapshot],
    problem_digest: str,
    config_digest: str,
) -> Path:
    """Atomically (re)write the checkpoint file; returns its path.

    ``params`` is the engine's ``ParamState`` (only its four theta
    arrays are stored — the masks and warm-start metadata are
    deterministic functions of the problem and the fit arguments,
    rebuilt by ``init_params`` on resume).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / CHECKPOINT_FILE
    meta = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "iteration": int(iteration),
        "problem_digest": problem_digest,
        "config_digest": config_digest,
    }
    with atomic_write(path, "wb") as handle:
        np.savez(
            handle,
            meta=np.array(json.dumps(meta)),
            accuracy=params.accuracy,
            precision=params.precision,
            recall=params.recall,
            q_vec=params.q_vec,
            p_correct=p_correct,
            posterior=posterior,
            priors=priors,
            acc_deltas=np.array(
                [snap.max_accuracy_delta for snap in history], dtype=np.float64
            ),
            ext_deltas=np.array(
                [snap.max_extractor_delta for snap in history], dtype=np.float64
            ),
        )
    return path


def load_checkpoint(directory: str | Path) -> FitCheckpoint | None:
    """Read the checkpoint under ``directory``; ``None`` if none exists.

    An unreadable or foreign file raises :class:`CheckpointError` (a
    ``ValueError``, so the CLI reports it as a one-line error).
    """
    path = Path(directory) / CHECKPOINT_FILE
    if not path.is_file():
        return None
    try:
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"][()]))
            if meta.get("format") != CHECKPOINT_FORMAT:
                raise CheckpointError(
                    f"{path} is not a fit checkpoint "
                    f"(format={meta.get('format')!r})"
                )
            if meta.get("version") != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"unsupported fit checkpoint version "
                    f"{meta.get('version')!r} in {path}; this build reads "
                    f"version {CHECKPOINT_VERSION}"
                )
            iteration = int(meta["iteration"])
            acc_deltas = data["acc_deltas"]
            ext_deltas = data["ext_deltas"]
            if not len(acc_deltas) == len(ext_deltas) == iteration:
                raise CheckpointError(
                    f"fit checkpoint {path} records iteration {iteration} "
                    f"but carries {len(acc_deltas)} accuracy and "
                    f"{len(ext_deltas)} extractor deltas; the file is "
                    "truncated or inconsistent — delete it (a fresh fit "
                    "rewrites it) or drop --resume"
                )
            history = tuple(
                IterationSnapshot(index + 1, float(acc), float(ext))
                for index, (acc, ext) in enumerate(
                    zip(acc_deltas, ext_deltas)
                )
            )
            return FitCheckpoint(
                iteration=iteration,
                accuracy=np.array(data["accuracy"]),
                precision=np.array(data["precision"]),
                recall=np.array(data["recall"]),
                q_vec=np.array(data["q_vec"]),
                p_correct=np.array(data["p_correct"]),
                posterior=np.array(data["posterior"]),
                priors=np.array(data["priors"]),
                history=history,
                problem_digest=str(meta["problem_digest"]),
                config_digest=str(meta["config_digest"]),
            )
    except CheckpointError:
        raise
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as err:
        raise CheckpointError(
            f"unreadable fit checkpoint {path}: {err}; delete the file "
            "(a fresh fit rewrites it) or drop --resume"
        ) from err


def apply_checkpoint(
    ckpt: FitCheckpoint,
    params,
    p_correct: np.ndarray,
    posterior: np.ndarray,
    priors: np.ndarray,
) -> list[IterationSnapshot]:
    """Overwrite the freshly initialised state with checkpointed arrays.

    ``init_params`` must already have run: it rebuilds the estimable /
    frozen masks and warm-start metadata, which the checkpoint does not
    carry. Returns the restored iteration history.
    """
    pairs = (
        ("accuracy", params.accuracy, ckpt.accuracy),
        ("precision", params.precision, ckpt.precision),
        ("recall", params.recall, ckpt.recall),
        ("q_vec", params.q_vec, ckpt.q_vec),
        ("p_correct", p_correct, ckpt.p_correct),
        ("posterior", posterior, ckpt.posterior),
        ("priors", priors, ckpt.priors),
    )
    for name, target, stored in pairs:
        if target.shape != stored.shape:
            raise CheckpointError(
                f"checkpointed array {name!r} has shape {stored.shape}, "
                f"this problem needs {target.shape}; the checkpoint "
                "belongs to a different fit"
            )
        target[:] = stored
    return list(ckpt.history)


__all__ = [
    "CHECKPOINT_FILE",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "FitCheckpoint",
    "apply_checkpoint",
    "config_digest",
    "load_checkpoint",
    "problem_digest",
    "save_checkpoint",
]
