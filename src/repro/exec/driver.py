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

The driver owns everything that carries over from one iteration to the
next — the theta vectors and the coordinate priors — so a map task is a
pure function of what the driver hands it. Each iteration runs in
Algorithm 1's own order: E step (the map round), M step (the reduce),
then the prior re-estimation (Section 3.3.4, Eq. 26: :func:`prior_update`
over the whole problem, float64 in every precision mode), whose vector
the next round reads. That is also all fault tolerance needs from this
loop: a supervised session recovers by running a task again, and with
``MultiLayerConfig.checkpoint_dir`` set the driver persists its own
state every ``checkpoint_every`` iterations (and always at convergence /
budget exhaustion) via :mod:`repro.exec.checkpoint`; ``resume=True``
reloads it and continues to bit-identical final results on any backend
and shard count. A checkpoint that does not match the problem or model
config is refused before anything is spilled and before the backend is
opened.
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
from repro.exec.worker import IterationParams

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

    history: list[IterationSnapshot] = []
    p_correct = np.zeros(source.num_coords)
    posterior = np.zeros(source.num_triples)
    # What the next round's C step reads: cfg.alpha until Eq. 26 first
    # runs, then each iteration's re-estimate.
    priors = np.full(source.num_coords, cfg.alpha)
    unobserved = num_unobserved(cfg, prob.item_num_values)

    start_iteration = 1
    if ckpt is not None:
        history = apply_checkpoint(ckpt, params, p_correct, posterior, priors)
        start_iteration = ckpt.iteration + 1
    last_iteration = start_iteration - 1
    # A checkpoint written at convergence resumes as a no-op loop: the
    # restored history already satisfies the stopping rule.
    already_converged = bool(history) and (
        history[-1].max_delta < cfg.convergence.tolerance
    )
    iterations = (
        ()
        if already_converged
        else range(start_iteration, cfg.convergence.max_iterations + 1)
    )
    with BACKENDS[cfg.backend or "serial"]().open(source, cfg) as session:
        for iteration in iterations:
            last_iteration = iteration
            it_params = IterationParams(
                False,
                # None is "cfg.alpha everywhere": until the first
                # re-estimation no constant vector is copied or shipped.
                priors if _prior_update_due(cfg, iteration - 1) else None,
                *iteration_inputs(cfg, prob, params),
            )
            session.run_iteration(it_params, p_correct, posterior)

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
            if _prior_update_due(cfg, iteration):
                # Eq. 26 closes the iteration, from its posteriors and
                # the accuracies its M step just produced.
                priors = prior_update(
                    cfg,
                    prob,
                    posterior,
                    residual_mass(prob, posterior, unobserved),
                    params.accuracy,
                )
            if out_of_core:
                # The reduce and Eq. 26 just scanned the memory-mapped
                # global arrays; release their pages so the resident
                # set stays bounded instead of accumulating the whole
                # corpus.
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
                    priors=priors,
                    history=history,
                    problem_digest=expected_problem,
                    config_digest=expected_config,
                )
            if hit_tolerance:
                break

    return assemble_result(
        prob,
        observations,
        p_correct,
        posterior,
        params,
        # Reported iff the fit re-estimated priors at all (the
        # due-condition is monotone in the iteration).
        priors if _prior_update_due(cfg, last_iteration) else None,
        history,
    )


def residual_mass(
    prob, posterior: np.ndarray, num_unobserved: np.ndarray
) -> np.ndarray:
    """Per-item posterior mass left for each unobserved value."""
    if not prob.num_items:
        return np.zeros(0)
    posterior_mass = np.add.reduceat(posterior, prob.item_ptr[:-1])
    return np.where(
        num_unobserved > 0.0,
        np.maximum(1.0 - posterior_mass, 0.0)
        / np.maximum(num_unobserved, 1.0),
        0.0,
    )


def prior_update(
    cfg: MultiLayerConfig,
    prob,
    posterior: np.ndarray,
    residual: np.ndarray,
    accuracy: np.ndarray,
) -> np.ndarray:
    """Eq. 26 over every coordinate of the compiled problem: the prior
    that an extraction is correct, from the iteration's value posteriors
    (``residual`` for a coordinate whose value is no covered triple) and
    the source accuracies its M step produced."""
    p_true = np.zeros(len(prob.coord_source))
    has_triple = prob.coord_triple >= 0
    if posterior.size:
        p_true[has_triple] = posterior[prob.coord_triple[has_triple]]
    has_item = ~has_triple & (prob.coord_item >= 0)
    if residual.size:
        p_true[has_item] = residual[prob.coord_item[has_item]]
    source_accuracy = accuracy[prob.coord_source]
    return np.clip(
        p_true * source_accuracy + (1.0 - p_true) * (1.0 - source_accuracy),
        cfg.prior_floor,
        cfg.prior_ceiling,
    )


def _prior_update_due(cfg: MultiLayerConfig, iteration: int) -> bool:
    """Was the engine's end-of-iteration Eq. 26 pass due after
    ``iteration``? (0 = before the first iteration: never.)"""
    return (
        cfg.update_prior
        and iteration >= 1
        and iteration + 1 >= cfg.prior_update_start_iteration
    )
