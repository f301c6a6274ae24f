"""The map side of sharded execution: the per-shard E steps, stateless.

:func:`run_shard_iteration` is one map task of Algorithm 1 for one
shard, a pure function of ``(shard packet, cfg, iteration params,
priors)``:

1. the **C step** (ExtCorr): per-coordinate vote counts + sigmoid;
2. the **V step** (TriplePr): per-item segmented softmax.

It keeps and mutates nothing, so any worker can run any task again —
which is all that retry, re-homing, speculation and checkpoint resume
ever do (Section 5.3.4: a map task holds no state). Everything that
carries over from one iteration to the next lives in the driver
(:func:`repro.exec.driver.fit_sharded`): the theta vectors, and the
coordinate priors, which the driver re-estimates once per iteration
over the whole problem (Eq. 26, float64 in every precision mode) and
hands to the next round.

The per-source / per-column sufficient statistics (SrcAccu, ExtQuality)
are *not* summed here: the driver re-assembles ``p_correct`` and
``posterior`` globally and reduces them in the compiled array order,
which is what makes a fit bit-identical for every shard count and
backend (see :mod:`repro.exec.plan`).

One set of expressions implements the two steps; ``cfg.precision`` is
the dtype they run in (the precision contract of
``docs/architecture.md``: float32 is outside every bit-identity
guarantee against float64). :func:`execute_task` is the body of one
supervised task (fault hooks, then the map step), shared by the process
worker loop and the ``kbt worker`` loop.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.config import AbsenceScope, MultiLayerConfig
from repro.core.engine_numpy import (
    _log_odds,
    _seeded_vcc,
    _sigmoid,
    map_cutoff,
    segment_softmax,
)
from repro.exec.faults import FaultPlan
from repro.exec.plan import Shard
from repro.exec.spill import SpillError


@dataclass
class IterationParams:
    """Everything one map round reads, computed by the driver.

    ``priors`` is the *global* coordinate-prior vector the round's C
    step reads — the driver's Eq. 26 output for the previous iteration —
    or None, meaning ``cfg.alpha`` for every coordinate (the state
    before the first re-estimation, so no constant vector is shipped);
    a task gets its shard's slice (:meth:`priors_for`).
    ``base_absence`` is per-source under the ACTIVE absence scope and a
    scalar under ALL; ``source_vote`` is each source's V-step vote
    weight (``log n + log-odds(A_w)`` under ACCU, ``log-odds(A_w)``
    under POPACCU).
    ``unused`` is read by nothing: ``benchmarks/e2e`` constructs
    ``IterationParams(False, None, *iteration_inputs(...))`` and is
    frozen, so the slot stays until a benchmark PR un-pins it (ROADMAP).
    """

    unused: bool
    priors: np.ndarray | None
    pre_vote: np.ndarray
    abs_vote: np.ndarray
    base_absence: np.ndarray | float
    source_vote: np.ndarray

    def priors_for(self, shard: Shard) -> np.ndarray | None:
        """The slice of ``priors`` a task for ``shard`` reads."""
        return None if self.priors is None else self.priors[shard.coord_idx]


def run_shard_iteration(
    shard: Shard,
    cfg: MultiLayerConfig,
    params: IterationParams,
    priors: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """One map task: the C step and the V step of one shard.

    ``priors`` is the shard's slice of the coordinate priors
    (``IterationParams.priors_for(shard)`` in the driver's process; a
    worker's ``params`` carries none), or None for ``cfg.alpha``
    everywhere. Returns the shard's ``(p_correct, posterior)`` slices
    and leaves every input untouched: the same inputs give the same
    bytes on any worker, in any order, any number of times.

    ``cfg.precision`` is the dtype the expressions run in: the prior
    log-odds, VCC' (after its float64 seeded scatter), the source vote
    weights and the vote totals (a float64 ``bincount``) are cast to it,
    so under ``"float32"`` both returned arrays are float32.
    """
    dtype = np.dtype(cfg.precision)
    # cfg.alpha everywhere is one log-odds, broadcast: the same bits as
    # the log-odds of a constant vector, without building that vector.
    prior_log_odds = _log_odds(
        np.array([cfg.alpha]) if priors is None else priors
    ).astype(dtype, copy=False)

    # --- C step (Section 3.3.1; Table 7's stage I) ---------------------
    with obs.span("em.extcorr"):
        if cfg.absence_scope is AbsenceScope.ACTIVE:
            base = params.base_absence[shard.coord_source]
        else:
            base = params.base_absence
        vcc = _seeded_vcc(
            base,
            shard.entry_coord,
            shard.entry_conf
            * (params.pre_vote - params.abs_vote)[shard.entry_col],
            shard.num_coords,
        ).astype(dtype, copy=False)
        p_correct = _sigmoid(vcc + prior_log_odds)

    # --- V step (Sections 3.3.2-3.3.3; Table 7's stage II) -------------
    with obs.span("em.triplepr"):
        claim_p = p_correct[shard.claim_coord]
        if cfg.use_weighted_vcv:
            claim_weight = claim_p
        else:
            claim_weight = map_cutoff(claim_p)
        source_vote = params.source_vote.astype(dtype, copy=False)
        if shard.claim_log_pop is None:
            contrib = claim_weight * source_vote[shard.claim_source]
        else:
            contrib = claim_weight * (
                source_vote[shard.claim_source] - shard.claim_log_pop
            )
        votes = np.bincount(
            shard.claim_triple, weights=contrib, minlength=shard.num_triples
        ).astype(dtype, copy=False)
        posterior = segment_softmax(
            votes, shard.item_ptr[:-1], shard.triple_item,
            shard.num_unobserved,
        )
    return p_correct, posterior


def task_params(base_scalar: float | None, lookup) -> IterationParams:
    """A task's parameters from wherever the transport put them:
    ``lookup(name)`` returns the named parameter vector (a slice of the
    shared parameter block, or a frame array). ``base_scalar`` is the
    ALL-scope base absence; None means the per-source vector shipped.
    The priors travel beside the parameters, as the task's own slice."""
    return IterationParams(
        unused=False,
        priors=None,
        pre_vote=lookup("pre_vote"),
        abs_vote=lookup("abs_vote"),
        base_absence=(
            lookup("base_absence")
            if base_scalar is None
            else float(base_scalar)
        ),
        source_vote=lookup("source_vote"),
    )


def execute_task(
    cfg: MultiLayerConfig,
    shard: Shard,
    params: IterationParams,
    priors: np.ndarray | None,
    faults: FaultPlan,
    round_id: int,
    attempt: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One supervised task: the body both worker loops (process and
    ``kbt worker``) run between decoding a task and placing its result —
    the injected faults of this ``(shard, round, attempt)``, then
    :func:`run_shard_iteration`. Nothing survives the call, so running
    an attempt again — here or on a worker that never saw the shard —
    is always safe.
    """
    delay = faults.delay_seconds(shard.index, round_id, attempt)
    if delay > 0.0:
        time.sleep(delay)
    if faults.should_corrupt(shard.index, round_id, attempt):
        # Like a real corrupt read, name the file of a mapped packet.
        packet_file = getattr(shard.entry_coord, "filename", None)
        raise SpillError(
            f"injected corrupt packet read for shard {shard.index} "
            + (f"at {packet_file} " if packet_file else "")
            + f"(fault plan, round {round_id}, attempt {attempt}); the "
            "spill directory is incomplete or corrupt — re-run the fit "
            "with --spill-dir to regenerate it"
        )
    return run_shard_iteration(shard, cfg, params, priors)


def _describe_error(exc: BaseException) -> str:
    """What a worker reports on failure: user-facing errors (notably
    :class:`SpillError`, whose message carries the regenerate remedy)
    travel as their one-line message; everything else keeps the full
    traceback for debugging."""
    if isinstance(exc, SpillError):
        return str(exc)
    return "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    ).strip()
