"""The EM driver: the one numpy loop of Algorithm 1.

``fit_sharded`` is the only numpy EM loop in the package —
:func:`repro.core.engine_numpy.fit_numpy` is this function under the
engine's name. The E steps of each iteration run as one *map*
round over a packet source (a resident
:class:`~repro.exec.plan.ShardPlan` or, with
``MultiLayerConfig.spill_dir`` set, an out-of-core
:class:`~repro.exec.spill.OutOfCoreShardSource` serving memory-mapped
packets), dispatched through the selected
:class:`~repro.exec.backends.ExecutionBackend` (``cfg.backend``; one
``serial`` shard when unset); the parameter update (theta_1 / theta_2)
runs as the *reduce* over the globally re-assembled ``p_correct`` /
``posterior`` arrays (:func:`~repro.core.engine_numpy.update_parameters`)
in compiled array order, so the fitted float64 model is bit-identical
for every shard count, backend, residency mode and reduce window.

Out-of-core mode additionally spills the compiled *global* arrays the
reduce scans (:func:`~repro.exec.spill.spill_problem_arrays`) and
releases their pages after every iteration, so the driver's anonymous
working set stays bounded by the parameter/posterior vectors while the
corpus itself lives in evictable file-backed pages.

Fault tolerance hooks into the loop in two places:

* With ``MultiLayerConfig.checkpoint_dir`` set, the driver persists the
  full EM state every ``checkpoint_every`` iterations (and always at
  convergence / budget exhaustion) via :mod:`repro.exec.checkpoint`;
  ``resume=True`` restarts a crashed fit from the last checkpoint and
  continues to bit-identical final results. A checkpoint that does not
  match the problem or model config is refused before anything is
  spilled and before the backend is opened.
* Whenever checkpointing is on or the session supervises workers
  (``set_restore_state``), the driver maintains a global **restore
  snapshot** — the priors/posterior any shard state can be rebuilt from
  mid-fit. The priors half replays the workers' deferred Eq. 26 pass
  globally, through the very functions the shards call
  (:func:`~repro.exec.worker.residual_mass`,
  :func:`~repro.exec.worker.prior_update`), so the replayed float64
  vector is bit-identical to the concatenation of the per-shard updates.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import MultiLayerConfig
from repro.core.engine_numpy import (
    assemble_result,
    init_params,
    iteration_inputs,
    update_parameters,
)
from repro.core.indexing import CompiledProblem, compile_problem
from repro.core.observation import ObservationMatrix
from repro.core.quality import ExtractorQuality
from repro.core.results import IterationSnapshot, MultiLayerResult
from repro.core.types import ExtractorKey, SourceKey
from repro.exec.backends import ProcessBackend, SerialBackend, ThreadBackend
from repro.exec.plan import ShardPlan, num_unobserved, resolve_num_shards
from repro.exec.remote import RemoteBackend
from repro.exec.worker import (
    FinalizeParams,
    IterationParams,
    prior_update,
    residual_mass,
)

#: ``cfg.backend`` -> backend class (``repro.core.config.BACKENDS`` names).
BACKENDS = {
    cls.name: cls
    for cls in (SerialBackend, ThreadBackend, ProcessBackend, RemoteBackend)
}


def fit_sharded(
    cfg: MultiLayerConfig,
    observations: ObservationMatrix,
    initial_source_accuracy: dict[SourceKey, float] | None = None,
    initial_extractor_quality: dict[ExtractorKey, ExtractorQuality]
    | None = None,
    frozen_extractors: set[ExtractorKey] | None = None,
    frozen_sources: set[SourceKey] | None = None,
    problem: CompiledProblem | None = None,
    plan: ShardPlan | None = None,
) -> MultiLayerResult:
    """Run Algorithm 1 over a shard plan; same contract as ``fit``.

    ``cfg.backend`` selects where the map rounds run; unset, the fit is
    one ``serial`` shard (the ``engine="numpy"`` default).

    ``problem`` / ``plan`` let callers that already compiled the problem
    (e.g. the MapReduce cost-model runner) reuse their arrays instead of
    re-compiling; ``observations`` may then already be released (only
    its ``num_triples`` is read once the problem is compiled).
    """
    prob = problem if problem is not None else compile_problem(
        observations, cfg
    )

    checkpointing = cfg.checkpoint_dir is not None
    expected_problem = expected_config = None
    ckpt = None
    if checkpointing:
        from repro.exec.checkpoint import (
            apply_checkpoint,
            config_digest,
            load_checkpoint,
            problem_digest,
            save_checkpoint,
        )

        expected_problem = problem_digest(prob)
        expected_config = config_digest(cfg)
        if cfg.resume:
            ckpt = load_checkpoint(cfg.checkpoint_dir)
        if ckpt is not None:
            # Refuse a foreign checkpoint now: before the corpus is
            # spilled, workers are forked or a port is bound.
            ckpt.validate(
                expected_problem, expected_config, cfg.checkpoint_dir
            )

    if plan is None:
        plan = ShardPlan.from_problem(
            prob, cfg, resolve_num_shards(cfg, prob)
        )

    out_of_core = cfg.spill_dir is not None
    release_window = None
    if out_of_core:
        from repro.exec.spill import (
            OutOfCoreShardSource,
            advise_dontneed_window,
            release_problem_pages,
            spill_problem_arrays,
        )

        plan.persist(cfg.spill_dir)
        source = OutOfCoreShardSource(
            cfg.spill_dir, max_resident_shards=cfg.max_resident_shards
        )
        prob = spill_problem_arrays(prob, cfg.spill_dir)
        # Drop the resident packets and arrays: from here on the corpus
        # is served from evictable file-backed pages only. A windowed
        # reduce additionally releases each scanned window as it goes.
        plan = None
        release_window = advise_dontneed_window
    else:
        source = plan

    params = init_params(
        cfg,
        prob,
        initial_source_accuracy,
        initial_extractor_quality,
        frozen_extractors,
        frozen_sources,
    )

    backend_cls = BACKENDS[cfg.backend or "serial"]
    history: list[IterationSnapshot] = []
    p_correct = np.zeros(source.num_coords)
    posterior = np.zeros(source.num_triples)
    priors: np.ndarray | None = None

    start_iteration = 1
    with backend_cls().open(source, cfg) as session:
        set_restore = getattr(session, "set_restore_state", None)
        # The restore snapshot is needed whenever a shard state may have
        # to be rebuilt mid-fit: for checkpoints, and for sessions that
        # supervise workers (replacement workers restore from it).
        track_state = checkpointing or set_restore is not None
        restore_priors = restore_posterior = unobserved = None
        if track_state:
            restore_priors = np.full(source.num_coords, cfg.alpha)
            restore_posterior = np.zeros(source.num_triples)
            unobserved = num_unobserved(cfg, prob.item_num_values)

        if ckpt is not None:
            history = apply_checkpoint(ckpt, params, p_correct, posterior)
            start_iteration = ckpt.iteration + 1
            restore_priors = np.array(ckpt.priors, dtype=np.float64)
            restore_posterior = posterior.copy()
            session_restore = getattr(session, "restore", None)
            if session_restore is None:
                raise ValueError(
                    f"backend {cfg.backend!r} does not support resuming "
                    "from a checkpoint"
                )
            session_restore(restore_priors, restore_posterior)

        last_iteration = start_iteration - 1
        # A checkpoint written at convergence resumes as a no-op loop:
        # the restored history already satisfies the stopping rule.
        already_converged = bool(history) and (
            history[-1].max_delta < cfg.convergence.tolerance
        )
        iterations = (
            ()
            if already_converged
            else range(start_iteration, cfg.convergence.max_iterations + 1)
        )
        for iteration in iterations:
            last_iteration = iteration
            pre_vote, abs_vote, base_absence, source_vote = iteration_inputs(
                cfg, prob, params
            )
            # The Eq. 26 prior update of iteration t runs lazily at the
            # start of map round t+1 (same inputs: the accuracy the
            # reduce of round t produced, plus each shard's retained
            # posterior/residual), so one round trip per iteration
            # suffices.
            do_prior = _prior_update_due(cfg, iteration - 1)
            it_params = IterationParams(
                do_prior_update=do_prior,
                prior_accuracy=params.accuracy if do_prior else None,
                pre_vote=pre_vote,
                abs_vote=abs_vote,
                base_absence=base_absence,
                source_vote=source_vote,
            )
            if set_restore is not None:
                # End-of-previous-round snapshot: a task re-dispatched
                # during this round rebuilds its state from these and
                # re-runs the (pure, idempotent) map step.
                set_restore(restore_priors, restore_posterior)
            session.run_iteration(it_params, p_correct, posterior)
            if track_state:
                if do_prior:
                    # Replay the deferred pass the workers just ran, with
                    # the pre-reduce accuracy and the previous round's
                    # posterior — bit-identical to the per-shard float64
                    # updates.
                    restore_priors = prior_update(
                        cfg,
                        prob,
                        restore_posterior,
                        residual_mass(prob, restore_posterior, unobserved),
                        params.accuracy,
                    )
                restore_posterior = posterior.copy()

            # The reduce: one window per array family, or windows of
            # cfg.reduce_chunk elements (bit-identical); out-of-core
            # fits release each window's file-backed pages as soon as
            # it is consumed.
            accuracy_delta, extractor_delta = update_parameters(
                cfg,
                prob,
                params,
                p_correct,
                posterior,
                cfg.reduce_chunk,
                release_window,
            )
            history.append(
                IterationSnapshot(iteration, accuracy_delta, extractor_delta)
            )
            if out_of_core:
                # The reduce just scanned the memory-mapped global
                # arrays; release their pages so the resident set stays
                # bounded instead of accumulating the whole corpus.
                release_problem_pages(prob)
            hit_tolerance = (
                max(accuracy_delta, extractor_delta)
                < cfg.convergence.tolerance
            )
            if checkpointing and (
                iteration % cfg.checkpoint_every == 0
                or hit_tolerance
                or iteration == cfg.convergence.max_iterations
            ):
                save_checkpoint(
                    cfg.checkpoint_dir,
                    iteration=iteration,
                    params=params,
                    p_correct=p_correct,
                    posterior=posterior,
                    priors=restore_priors,
                    history=history,
                    problem_digest=expected_problem,
                    config_digest=expected_config,
                )
            if hit_tolerance:
                break

        # The last iteration's Eq. 26 pass; due iff the fit re-estimated
        # priors at all (the due-condition is monotone in the iteration).
        do_final = _prior_update_due(cfg, last_iteration)
        if set_restore is not None:
            set_restore(restore_priors, restore_posterior)
        final = session.finalize(
            FinalizeParams(
                do_prior_update=do_final,
                accuracy=params.accuracy if do_final else None,
            )
        )
        if do_final:
            priors = final

    return assemble_result(
        prob, observations, p_correct, posterior, params, priors, history
    )


def _prior_update_due(cfg: MultiLayerConfig, iteration: int) -> bool:
    """Was the engine's end-of-iteration Eq. 26 pass due after
    ``iteration``? (0 = before the first iteration: never.)"""
    return (
        cfg.update_prior
        and iteration >= 1
        and iteration + 1 >= cfg.prior_update_start_iteration
    )
