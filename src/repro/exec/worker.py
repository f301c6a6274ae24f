"""The map side of sharded execution: per-shard E steps + prior state.

One :class:`ShardState` lives with each shard for the whole fit (in the
driver process for the serial/thread backends, inside the worker process
for the process backend). Each map round runs, for one shard:

1. the **deferred prior re-estimation** (Eq. 26) for the *previous*
   iteration, using the posterior/residual kept from that round and the
   accuracy the reduce just produced — Algorithm 1's end-of-iteration
   update, just executed lazily at the start of the next map so one
   round trip per iteration suffices;
2. the **C step** (ExtCorr): per-coordinate vote counts + sigmoid;
3. the **V step** (TriplePr): per-item segmented softmax.

The per-source / per-column sufficient statistics (SrcAccu, ExtQuality)
are *not* summed here: the driver re-assembles ``p_correct`` and
``posterior`` globally and reduces them in the compiled array order,
which is what makes a fit bit-identical for every shard count and
backend (see :mod:`repro.exec.plan`).

Two kernels implement the three steps, selected per call from
``cfg.precision``: the reference float64 expressions, and the fused
float32 passes over a per-shard :class:`_Float32Workspace` (the
precision contract of ``docs/architecture.md``; outside every
bit-identity guarantee). :func:`residual_mass` and :func:`prior_update`
are the float64 residual / Eq. 26 expressions, written once: the map
step, :func:`rebuild_state` and the driver's restore snapshot all call
them, over a shard or over the whole compiled problem.
:func:`execute_task` is the body of one supervised task (fault hooks,
state rebuild, then the map or finalize step), shared by the process
worker loop and the ``kbt worker`` loop.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass

import numpy as np

from repro.core.config import AbsenceScope, MultiLayerConfig
from repro.core.engine_numpy import _log_odds, _seeded_vcc, _sigmoid
from repro.exec.faults import FaultPlan
from repro.exec.plan import Shard
from repro.exec.spill import SpillError
from repro.util.logmath import PROB_FLOOR, _SIGMOID_CUTOFF


@dataclass
class IterationParams:
    """Everything a shard needs for one map round, computed by the driver.

    ``base_absence`` is per-source under the ACTIVE absence scope and a
    scalar under ALL; ``source_vote`` is each source's V-step vote weight
    (``log n + log-odds(A_w)`` under ACCU, ``log-odds(A_w)`` under
    POPACCU). ``prior_accuracy`` is only read when ``do_prior_update`` is
    set (the deferred Eq. 26 pass for the previous iteration).
    """

    do_prior_update: bool
    prior_accuracy: np.ndarray | None
    pre_vote: np.ndarray
    abs_vote: np.ndarray
    base_absence: np.ndarray | float
    source_vote: np.ndarray


@dataclass
class FinalizeParams:
    """The end-of-fit prior pass (the engine's last Eq. 26 update)."""

    do_prior_update: bool
    accuracy: np.ndarray | None


@dataclass
class ShardState:
    """Mutable per-shard state carried across iterations.

    Holds the coordinate priors (Section 3.3.4) plus the previous
    round's value posteriors / residual mass — the inputs of the
    deferred Eq. 26 update. Invariant: a coordinate's triple and item
    live in the coordinate's own shard, so this state never needs
    cross-shard reads, which is what lets it stay resident with its
    worker while the packet arrays themselves may be re-mapped (or
    evicted) between rounds.

    States are always created (and rebuilt) in float64; under
    ``cfg.precision == "float32"`` the first kernel call builds
    ``workspace`` and from then on the three vectors are float32.
    """

    priors: np.ndarray
    posterior: np.ndarray
    residual: np.ndarray
    workspace: "_Float32Workspace | None" = None

    @classmethod
    def initial(cls, shard: Shard, cfg: MultiLayerConfig) -> "ShardState":
        return cls(
            priors=np.full(shard.num_coords, cfg.alpha),
            posterior=np.zeros(shard.num_triples),
            residual=np.zeros(shard.num_items),
        )


def residual_mass(
    layout, posterior: np.ndarray, num_unobserved: np.ndarray
) -> np.ndarray:
    """Per-item posterior mass left for each unobserved value.

    ``layout`` is a :class:`Shard` or the whole ``CompiledProblem``
    (both carry the item -> triple CSR offsets); ``reduceat`` runs over
    the same contiguous item segments either way, so per-shard results
    concatenate to the global one bit for bit.
    """
    if not layout.num_items:
        return np.zeros(0)
    posterior_mass = np.add.reduceat(posterior, layout.item_ptr[:-1])
    return np.where(
        num_unobserved > 0.0,
        np.maximum(1.0 - posterior_mass, 0.0)
        / np.maximum(num_unobserved, 1.0),
        0.0,
    )


def prior_update(
    cfg: MultiLayerConfig,
    layout,
    posterior: np.ndarray,
    residual: np.ndarray,
    accuracy: np.ndarray,
) -> np.ndarray:
    """Eq. 26 over the coordinates of ``layout`` (a shard or the whole
    problem). All lookups are layout-local: a coordinate's triple and
    item always live in the coordinate's own shard. Elementwise and
    gathers only, so the global pass equals the per-shard passes
    concatenated — which lets the driver keep a restore snapshot (and
    write checkpoints) without ever reading worker state back.
    """
    p_true = np.zeros(len(layout.coord_source))
    has_triple = layout.coord_triple >= 0
    if posterior.size:
        p_true[has_triple] = posterior[layout.coord_triple[has_triple]]
    has_item = ~has_triple & (layout.coord_item >= 0)
    if residual.size:
        p_true[has_item] = residual[layout.coord_item[has_item]]
    source_accuracy = accuracy[layout.coord_source]
    return np.clip(
        p_true * source_accuracy + (1.0 - p_true) * (1.0 - source_accuracy),
        cfg.prior_floor,
        cfg.prior_ceiling,
    )


def rebuild_state(
    shard: Shard,
    cfg: MultiLayerConfig,
    priors: np.ndarray,
    posterior: np.ndarray,
) -> ShardState:
    """Reconstruct a shard's state from globally persisted vectors.

    Inputs are the shard's slices of the end-of-round *global* priors
    and value posteriors (a checkpoint, or the driver's restore
    snapshot). The residual mass is a pure function of the posterior and
    the shard's static item arrays (:func:`residual_mass`, the map
    step's own expression), so under float64 the rebuilt state is
    bit-identical to the one that was lost — the property both
    checkpoint resume and mid-fit shard re-dispatch rest on. (Under
    float32 the snapshot's priors are a float64 replay of a float32
    pass: recovery stays inside the precision envelope, not bit-exact.)

    Before any round has run the residual it derives from an all-zero
    posterior is not the initial all-zero residual — harmless, because
    round 1 never reads posterior/residual (the deferred Eq. 26 pass is
    not due before iteration 2) and overwrites both.
    """
    posterior = np.array(posterior, dtype=np.float64)
    return ShardState(
        priors=np.array(priors, dtype=np.float64),
        posterior=posterior,
        residual=residual_mass(shard, posterior, shard.num_unobserved),
    )


def run_shard_iteration(
    shard: Shard,
    cfg: MultiLayerConfig,
    state: ShardState,
    params: IterationParams,
) -> tuple[np.ndarray, np.ndarray]:
    """One map round: (deferred prior update,) C step, V step.

    Returns this shard's ``(p_correct, posterior)`` slices (float32
    arrays under ``cfg.precision == "float32"``; scattering them into
    the float64 global vectors is the cast-up); ``state`` is updated in
    place (priors, posterior, residual for the next round).
    """
    if params.do_prior_update:
        assert params.prior_accuracy is not None
        _update_shard_priors(shard, cfg, state, params.prior_accuracy)
    if cfg.precision == "float32":
        return _run_float32(
            _float32_workspace(shard, state), shard, cfg, state, params
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
    p_correct = _sigmoid(vcc + _log_odds(state.priors))

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
    if shard.num_items:
        starts = shard.item_ptr[:-1]
        shift = np.maximum(np.maximum.reduceat(votes, starts), 0.0)
        exp_votes = np.exp(votes - shift[shard.triple_item])
        z = np.add.reduceat(exp_votes, starts) + shard.num_unobserved * np.exp(
            -shift
        )
        posterior = exp_votes / z[shard.triple_item]
    else:
        posterior = np.zeros(0)

    state.posterior = posterior
    state.residual = residual_mass(shard, posterior, shard.num_unobserved)
    return p_correct, posterior


def finalize_shard(
    shard: Shard,
    cfg: MultiLayerConfig,
    state: ShardState,
    params: FinalizeParams,
) -> np.ndarray:
    """Run the engine's final Eq. 26 pass (if due) and return the priors."""
    if params.do_prior_update:
        assert params.accuracy is not None
        _update_shard_priors(shard, cfg, state, params.accuracy)
    return state.priors


def task_params(
    is_iteration: bool,
    do_prior: bool,
    base_scalar: float | None,
    lookup,
) -> IterationParams | FinalizeParams:
    """A task's parameters from wherever the transport put them:
    ``lookup(name)`` returns the named parameter vector (a slice of the
    shared parameter block, or a frame array). ``base_scalar`` is the
    ALL-scope base absence; None means the per-source vector shipped."""
    accuracy = lookup("accuracy") if do_prior else None
    if not is_iteration:
        return FinalizeParams(do_prior, accuracy)
    return IterationParams(
        do_prior_update=do_prior,
        prior_accuracy=accuracy,
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
    states: dict[int, ShardState],
    params: IterationParams | FinalizeParams,
    restore: tuple[np.ndarray, np.ndarray] | None,
    faults: FaultPlan,
    round_id: int,
    attempt: int,
):
    """One supervised task: the body both worker loops (process and
    ``kbt worker``) run between decoding a task and placing its result.

    ``states`` is the worker's resident ``shard index -> ShardState``
    map. A ``restore`` payload (this worker took over the shard, or the
    fit resumed from a checkpoint) rebuilds the state from the driver's
    snapshot slices first; a shard seen for the first time starts from
    the initial state. Returns what :func:`run_shard_iteration` /
    :func:`finalize_shard` return, selected by the type of ``params``.
    Map steps are idempotent (the deferred prior update is a pure
    function of the previous round's state), so re-running an attempt
    after a mid-step failure is always safe.
    """
    delay = faults.delay_seconds(shard.index, round_id, attempt)
    if delay > 0.0:
        time.sleep(delay)
    if faults.should_corrupt(shard.index, round_id, attempt):
        raise SpillError(
            f"injected corrupt packet read for shard {shard.index} "
            f"(fault plan, round {round_id}, attempt {attempt}); the "
            "spill directory is incomplete or corrupt — re-run the fit "
            "with --spill-dir to regenerate it"
        )
    if restore is not None:
        states[shard.index] = rebuild_state(shard, cfg, *restore)
    state = states.get(shard.index)
    if state is None:
        state = states[shard.index] = ShardState.initial(shard, cfg)
    if isinstance(params, IterationParams):
        return run_shard_iteration(shard, cfg, state, params)
    return finalize_shard(shard, cfg, state, params)


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


def _update_shard_priors(
    shard: Shard,
    cfg: MultiLayerConfig,
    state: ShardState,
    accuracy: np.ndarray,
) -> None:
    """Eq. 26 over this shard's coordinates, in the fit's precision."""
    if cfg.precision == "float32":
        _update_priors_float32(
            _float32_workspace(shard, state), shard, cfg, state, accuracy
        )
    else:
        state.priors = prior_update(
            cfg, shard, state.posterior, state.residual, accuracy
        )


# ----------------------------------------------------------------------
# The float32 kernel (cfg.precision == "float32")
# ----------------------------------------------------------------------
def _float32_workspace(shard: Shard, state: ShardState) -> "_Float32Workspace":
    """The state's float32 scratch, built (and the state vectors cast
    down) on first use — also after :func:`rebuild_state`, whose fresh
    float64 state has no workspace yet."""
    if state.workspace is None:
        state.workspace = _Float32Workspace(shard)
        state.priors = state.priors.astype(np.float32)
        state.posterior = state.posterior.astype(np.float32)
        state.residual = state.residual.astype(np.float32)
    return state.workspace


class _Float32Workspace:
    """Preallocated scratch for the fused float32 E-step kernels.

    One allocation per shard per fit: every elementwise pass of the C
    and V steps writes into these buffers with ``out=``, so a round
    allocates only the (unavoidable) float64 ``bincount`` outputs, the
    cast-down parameter vectors and a few boolean masks — no per-round
    float32 temporaries of corpus size. Constant gathers (entry
    confidences, popularity) are cast to float32 once up front.

    The precision contract (``docs/architecture.md``): the elementwise
    C/V-step passes — vote weighting, sigmoid, segmented softmax,
    residuals, Eq. 26 — run in float32; scatter-adds (``bincount``)
    accumulate in float64 (numpy's own accumulator dtype), and the
    parameter update (theta_1 / theta_2) is the *shared float64* reduce
    over the cast-up posteriors, so model parameters, convergence
    deltas, and the EM control flow live in float64 throughout. Results
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
        self.unobserved_denom = np.maximum(
            shard.num_unobserved, 1.0
        ).astype(f32)
        self.has_unobserved = shard.num_unobserved > 0.0
        # Eq. 26 scatter targets (coordinates with a covered triple /
        # covered item), as index arrays so the prior pass stays fused.
        has_triple = shard.coord_triple >= 0
        self.triple_coord_idx = np.nonzero(has_triple)[0]
        self.triple_gather = shard.coord_triple[has_triple]
        has_item = ~has_triple & (shard.coord_item >= 0)
        self.item_coord_idx = np.nonzero(has_item)[0]
        self.item_gather = shard.coord_item[has_item]

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
        self.shift = np.empty(n_items, f32)
        self.z = np.empty(n_items, f32)
        self.item_tmp = np.empty(n_items, f32)


def _run_float32(
    ws: _Float32Workspace,
    shard: Shard,
    cfg: MultiLayerConfig,
    state: ShardState,
    params: IterationParams,
) -> tuple[np.ndarray, np.ndarray]:
    """The fused C and V steps. Returns ``(p_correct, posterior)``
    as float32 buffers that the next call overwrites."""
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
    _log_odds32(state.priors, ws.coord_b, ws.coord_a)
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
    posterior, residual = state.posterior, state.residual
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
        np.take(ws.z, shard.triple_item, out=posterior)
        np.divide(ws.exp_votes, posterior, out=posterior)
        np.add.reduceat(posterior, starts, out=ws.item_tmp)
        np.subtract(f32(1.0), ws.item_tmp, out=residual)
        np.maximum(residual, f32(0.0), out=residual)
        np.divide(residual, ws.unobserved_denom, out=residual)
        residual[~ws.has_unobserved] = 0.0
    return ws.p_correct, posterior


def _update_priors_float32(
    ws: _Float32Workspace,
    shard: Shard,
    cfg: MultiLayerConfig,
    state: ShardState,
    accuracy: np.ndarray,
) -> None:
    """Eq. 26, fused, into ``state.priors``."""
    f32 = np.float32
    priors = state.priors
    ws.coord_a.fill(0.0)  # p_true
    if ws.triple_coord_idx.size:
        ws.coord_a[ws.triple_coord_idx] = state.posterior[ws.triple_gather]
    if ws.item_coord_idx.size:
        ws.coord_a[ws.item_coord_idx] = state.residual[ws.item_gather]
    acc32 = accuracy.astype(f32)
    np.take(acc32, shard.coord_source, out=ws.coord_b)
    # p*A + (1-p)*(1-A) == 1 - p - A + 2*p*A, in four fused passes.
    np.multiply(ws.coord_a, ws.coord_b, out=priors)
    np.multiply(priors, f32(2.0), out=priors)
    np.subtract(priors, ws.coord_a, out=priors)
    np.subtract(priors, ws.coord_b, out=priors)
    np.add(priors, f32(1.0), out=priors)
    np.clip(priors, cfg.prior_floor, cfg.prior_ceiling, out=priors)


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
