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

Two kernels implement the two steps, selected per call from
``cfg.precision``: the reference float64 expressions, and the fused
float32 passes over a per-shard :class:`_Float32Workspace` (the
precision contract of ``docs/architecture.md``; outside every
bit-identity guarantee against float64). :func:`execute_task` is the
body of one supervised task (fault hooks, then the map step), shared by
the process worker loop and the ``kbt worker`` loop.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass

import numpy as np

from repro.core.config import AbsenceScope, MultiLayerConfig
from repro.core.engine_numpy import (
    _log_odds,
    _seeded_vcc,
    _sigmoid,
    segment_softmax,
)
from repro.exec.faults import FaultPlan
from repro.exec.plan import Shard
from repro.exec.spill import SpillError
from repro.util.logmath import PROB_FLOOR, _SIGMOID_CUTOFF


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

    Under ``cfg.precision == "float32"`` the two returned arrays are
    float32 buffers of the shard's scratch workspace, which the next
    call for the same packet object overwrites — scatter them into the
    float64 global vectors (the cast-up) or copy them before that call.
    """
    if cfg.precision == "float32":
        return _run_float32(
            _float32_workspace(shard),
            shard,
            cfg,
            params,
            cfg.alpha if priors is None else priors,
        )
    # cfg.alpha everywhere is one log-odds, broadcast: the same bits as
    # the log-odds of a constant vector, without building that vector.
    prior_log_odds = _log_odds(
        np.array([cfg.alpha]) if priors is None else priors
    )

    # --- C step (Section 3.3.1) ---------------------------------------
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
    )
    p_correct = _sigmoid(vcc + prior_log_odds)

    # --- V step (Sections 3.3.2-3.3.3) --------------------------------
    claim_p = p_correct[shard.claim_coord]
    if cfg.use_weighted_vcv:
        claim_weight = claim_p
    else:
        claim_weight = np.where(claim_p >= 0.5, 1.0, 0.0)
    if shard.claim_log_pop is None:
        contrib = claim_weight * params.source_vote[shard.claim_source]
    else:
        contrib = claim_weight * (
            params.source_vote[shard.claim_source] - shard.claim_log_pop
        )
    votes = np.bincount(
        shard.claim_triple, weights=contrib, minlength=shard.num_triples
    )
    posterior = segment_softmax(
        votes, shard.item_ptr[:-1], shard.triple_item, shard.num_unobserved
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


# ----------------------------------------------------------------------
# The float32 kernel (cfg.precision == "float32")
# ----------------------------------------------------------------------
def _float32_workspace(shard: Shard) -> "_Float32Workspace":
    """The packet's float32 scratch, built on first use.

    A cache, not state: it holds constants cast down once and buffers
    every call overwrites in full, and it hangs off the packet object
    (``Shard`` is frozen, hence ``__dict__``), so it lives exactly as
    long as the worker keeps the packet — an out-of-core packet evicted
    between rounds takes its scratch with it.
    """
    workspace = shard.__dict__.get("_float32_workspace")
    if workspace is None:
        workspace = shard.__dict__["_float32_workspace"] = _Float32Workspace(
            shard
        )
    return workspace


class _Float32Workspace:
    """Preallocated scratch for the fused float32 E-step kernels.

    One allocation per packet object: every elementwise pass of the C
    and V steps writes into these buffers with ``out=``, so a round
    allocates only the (unavoidable) float64 ``bincount`` outputs, the
    cast-down parameter vectors and a few boolean masks — no per-round
    float32 temporaries of corpus size. Constant gathers (entry
    confidences, popularity) are cast to float32 once up front.

    The precision contract (``docs/architecture.md``): the elementwise
    C/V-step passes — vote weighting, sigmoid, segmented softmax — run
    in float32; scatter-adds (``bincount``) accumulate in float64
    (numpy's own accumulator dtype), and the parameter update (theta_1 /
    theta_2) and the prior re-estimation (Eq. 26) are the *shared
    float64* driver passes over the cast-up posteriors, so model
    parameters, priors, convergence deltas, and the EM control flow
    live in float64 throughout. Results
    deviate from the float64 kernel by at most the documented envelope;
    they are **not** bit-compatible, which is why this mode is opt-in
    and excluded from every bit-identity guarantee.
    """

    def __init__(self, shard: Shard) -> None:
        f32 = np.float32
        n_coords = shard.num_coords
        n_triples = shard.num_triples
        n_items = shard.num_items
        n_entries = shard.entry_coord.shape[0]
        n_claims = shard.claim_coord.shape[0]

        # Constants, cast once.
        self.entry_conf = shard.entry_conf.astype(f32)
        self.claim_log_pop = (
            shard.claim_log_pop.astype(f32)
            if shard.claim_log_pop is not None
            else None
        )
        self.num_unobserved = shard.num_unobserved.astype(f32)

        # Per-coordinate / per-claim / per-triple / per-item scratch.
        self.vcc = np.empty(n_coords, f32)
        self.p_correct = np.empty(n_coords, f32)
        self.coord_a = np.empty(n_coords, f32)
        self.coord_b = np.empty(n_coords, f32)
        self.entry_w = np.empty(n_entries, f32)
        self.claim_w = np.empty(n_claims, f32)
        self.contrib = np.empty(n_claims, f32)
        self.votes = np.empty(n_triples, f32)
        self.exp_votes = np.empty(n_triples, f32)
        self.posterior = np.empty(n_triples, f32)
        self.shift = np.empty(n_items, f32)
        self.z = np.empty(n_items, f32)
        self.item_tmp = np.empty(n_items, f32)


def _run_float32(
    ws: _Float32Workspace,
    shard: Shard,
    cfg: MultiLayerConfig,
    params: IterationParams,
    priors: np.ndarray | float,
) -> tuple[np.ndarray, np.ndarray]:
    """The fused C and V steps (``priors`` a vector, or one prior for
    every coordinate). Returns ``(p_correct, posterior)`` as float32
    buffers of ``ws`` that the next call overwrites."""
    f32 = np.float32
    starts = shard.item_ptr[:-1]
    col_vote = (params.pre_vote - params.abs_vote).astype(f32)
    source_vote = params.source_vote.astype(f32)

    # --- C step: fused VCC' + prior log-odds -> sigmoid ---------------
    np.take(col_vote, shard.entry_col, out=ws.entry_w)
    np.multiply(ws.entry_w, ws.entry_conf, out=ws.entry_w)
    ws.vcc[...] = np.bincount(
        shard.entry_coord, weights=ws.entry_w, minlength=shard.num_coords
    )
    if cfg.absence_scope is AbsenceScope.ACTIVE:
        base32 = params.base_absence.astype(f32)
        np.take(base32, shard.coord_source, out=ws.coord_a)
        np.add(ws.vcc, ws.coord_a, out=ws.vcc)
    else:
        np.add(ws.vcc, f32(params.base_absence), out=ws.vcc)
    np.copyto(ws.coord_a, priors, casting="same_kind")  # the cast-down
    _log_odds32(ws.coord_a, ws.coord_b, ws.coord_a)
    np.add(ws.vcc, ws.coord_a, out=ws.vcc)
    _sigmoid32(ws.vcc, ws.coord_a, ws.p_correct)

    # --- V step: fused segmented softmax-with-floor-mass --------------
    np.take(ws.p_correct, shard.claim_coord, out=ws.claim_w)
    if not cfg.use_weighted_vcv:
        keep = ws.claim_w >= 0.5
        ws.claim_w.fill(0.0)
        ws.claim_w[keep] = 1.0
    np.take(source_vote, shard.claim_source, out=ws.contrib)
    if ws.claim_log_pop is not None:
        np.subtract(ws.contrib, ws.claim_log_pop, out=ws.contrib)
    np.multiply(ws.contrib, ws.claim_w, out=ws.contrib)
    ws.votes[...] = np.bincount(
        shard.claim_triple, weights=ws.contrib, minlength=shard.num_triples
    )
    if shard.num_items:
        np.maximum.reduceat(ws.votes, starts, out=ws.shift)
        np.maximum(ws.shift, f32(0.0), out=ws.shift)
        np.take(ws.shift, shard.triple_item, out=ws.exp_votes)
        np.subtract(ws.votes, ws.exp_votes, out=ws.exp_votes)
        np.exp(ws.exp_votes, out=ws.exp_votes)
        np.add.reduceat(ws.exp_votes, starts, out=ws.z)
        np.negative(ws.shift, out=ws.item_tmp)
        np.exp(ws.item_tmp, out=ws.item_tmp)
        np.multiply(ws.item_tmp, ws.num_unobserved, out=ws.item_tmp)
        np.add(ws.z, ws.item_tmp, out=ws.z)
        np.take(ws.z, shard.triple_item, out=ws.posterior)
        np.divide(ws.exp_votes, ws.posterior, out=ws.posterior)
    return ws.p_correct, ws.posterior


def _sigmoid32(
    x: np.ndarray, scratch: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Fused float32 stable logistic: ``out = sigmoid(x)``.

    Same saturation contract as :func:`_sigmoid` (exact 0.0 / 1.0 beyond
    the cutoff — the M-step zero-total guards depend on exact zeros),
    expressed as in-place ufunc passes over preallocated buffers.
    """
    np.clip(x, -_SIGMOID_CUTOFF, _SIGMOID_CUTOFF, out=scratch)
    np.absolute(scratch, out=scratch)
    np.negative(scratch, out=scratch)
    np.exp(scratch, out=scratch)  # scratch = exp(-|x|)
    np.add(scratch, np.float32(1.0), out=out)
    np.divide(scratch, out, out=out)  # out = e / (1 + e): the x < 0 branch
    np.subtract(np.float32(1.0), out, out=scratch)  # the x >= 0 branch
    np.copyto(out, scratch, where=x >= 0.0)
    np.copyto(out, np.float32(1.0), where=x >= _SIGMOID_CUTOFF)
    np.copyto(out, np.float32(0.0), where=x <= -_SIGMOID_CUTOFF)
    return out


def _log_odds32(
    p: np.ndarray, scratch: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Fused float32 clamped log-odds into ``out``."""
    np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR, out=out)
    np.subtract(np.float32(1.0), out, out=scratch)
    np.log(scratch, out=scratch)  # log(1 - p)
    np.log(out, out=out)  # log(p)
    np.subtract(out, scratch, out=out)
    return out
