"""Vectorized NumPy backend for Algorithm 1 (``engine="numpy"``).

Implements exactly the estimation steps of the Python engine in
:mod:`repro.core.multi_layer`, but as segment operations over the arrays
compiled by :mod:`repro.core.indexing`:

1. **C step** — scatter-add of the confidence-weighted presence/absence vote
   counts VCC' (Eq. 14 / 31) per coordinate, plus the prior log-odds,
   through a vectorized sigmoid (Eq. 15).
2. **V step** — per-claim accuracy votes (Eq. 19 / 23) scatter-added into
   per-triple slots, then a segmented softmax-with-floor-mass per item
   (Eq. 21 / 25) using CSR ``reduceat`` offsets.
3. **theta_1** — masked segment means of the value posteriors per source
   (Eq. 27 / 28), the KBT update.
4. **theta_2** — extractor precision/recall from segment sums per column
   (Eq. 29-33) with Q via Eq. 7, and the same damping/floor rules.
5. **Prior re-estimation** — Eq. 26 vectorized over all scored coordinates.

The output is bit-compatible with the Python engine up to floating-point
summation order (parity is asserted to <= 1e-9 by the test suite), and the
returned :class:`~repro.core.results.MultiLayerResult` is built from the
same dict-of-keys views, so downstream consumers cannot tell the engines
apart.

This module holds the driver-side building blocks — :func:`init_params`,
:func:`iteration_inputs`, :func:`update_parameters` (the reduce),
:func:`assemble_result` — and the scalar kernels the map side shares.
The EM loop itself lives once, in :func:`repro.exec.driver.fit_sharded`:
steps 1, 2 and 5 run per shard (:mod:`repro.exec.worker`), steps 3 and 4
are the global reduce here, and :func:`fit_numpy` is that driver at one
serial shard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import AbsenceScope, MultiLayerConfig
from repro.core.indexing import CompiledProblem
from repro.core.observation import ObservationMatrix
from repro.core.quality import ExtractorQuality
from repro.core.results import IterationSnapshot, MultiLayerResult
from repro.core.types import DataItem, ExtractorKey, SourceKey, Value
from repro.util.logmath import (
    PROB_FLOOR,
    _SIGMOID_CUTOFF,
    clamp,
    safe_log,
)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise overflow-safe logistic function.

    Saturates to exactly 0.0 / 1.0 beyond the cutoff like the scalar
    ``logmath.sigmoid``: the engines' zero-total guards (e.g. "skip the
    recall update when no extraction has any posterior mass") distinguish
    exact zero from denormal-tiny, so near-parity is not enough here.
    """
    ex = np.exp(-np.abs(np.clip(x, -_SIGMOID_CUTOFF, _SIGMOID_CUTOFF)))
    out = np.where(x >= 0.0, 1.0 / (1.0 + ex), ex / (1.0 + ex))
    out = np.where(x >= _SIGMOID_CUTOFF, 1.0, out)
    return np.where(x <= -_SIGMOID_CUTOFF, 0.0, out)


def _safe_log(x: np.ndarray, floor: float = PROB_FLOOR) -> np.ndarray:
    """Elementwise ``log(max(x, floor))``."""
    return np.log(np.maximum(x, floor))


def _log_odds(p: np.ndarray, floor: float = PROB_FLOOR) -> np.ndarray:
    """Elementwise clamped log-odds."""
    p = np.clip(p, floor, 1.0 - floor)
    return np.log(p) - np.log(1.0 - p)


def _seeded_vcc(
    base: np.ndarray | float,
    entry_coord: np.ndarray,
    entry_weights: np.ndarray,
    num_coords: int,
) -> np.ndarray:
    """C-step vote counts accumulated in the reference engine's order.

    The scalar engine computes VCC' as ``((absence_total + w_1) + w_2) +
    ...`` — the absence total seeds the accumulator before any entry vote
    is added. ``base + np.bincount(...)`` associates the other way round,
    and when the votes cancel to within one ULP of zero the two orders
    land on opposite sides of the theta_1 MAP cutoff (``p >= 0.5``),
    which the M steps then amplify into a macroscopic posterior
    divergence. ``bincount`` adds its weights sequentially in array
    order, so prepending one seed entry per coordinate reproduces the
    reference association order exactly: seed first, then the entries in
    cell order.
    """
    return np.bincount(
        np.concatenate((np.arange(num_coords), entry_coord)),
        weights=np.concatenate(
            (
                np.broadcast_to(
                    np.asarray(base, dtype=np.float64), num_coords
                ),
                entry_weights,
            )
        ),
        minlength=num_coords,
    )


@dataclass
class ParamState:
    """Mutable model parameters shared by the engine and the sharded driver.

    ``accuracy`` is indexed by source id, the quality vectors by extractor
    column; the masks gate the theta_1 / theta_2 updates exactly like the
    Python engine's estimable / frozen checks.
    """

    accuracy: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    q_vec: np.ndarray
    estimable_src_mask: np.ndarray
    unfrozen_src_mask: np.ndarray
    unfrozen_col_mask: np.ndarray
    quality_init: dict[ExtractorKey, ExtractorQuality]


def init_params(
    cfg: MultiLayerConfig,
    prob: CompiledProblem,
    initial_source_accuracy: dict[SourceKey, float] | None = None,
    initial_extractor_quality: dict[ExtractorKey, ExtractorQuality]
    | None = None,
    frozen_extractors: set[ExtractorKey] | None = None,
    frozen_sources: set[SourceKey] | None = None,
) -> ParamState:
    """Parameter initialisation (mirrors ``_FitState.init_qualities``)."""
    # Local import avoids a cycle: multi_layer dispatches to this module.
    from repro.core.multi_layer import default_precision

    n_sources = len(prob.sources)
    n_cols = prob.num_cols

    accuracy = np.full(n_sources, cfg.default_accuracy)
    if initial_source_accuracy:
        src_idx = {source: i for i, source in enumerate(prob.sources)}
        for source, value in initial_source_accuracy.items():
            i = src_idx.get(source)
            if i is not None:
                accuracy[i] = clamp(
                    value, cfg.quality_floor, cfg.quality_ceiling
                )
    default_p = default_precision(cfg.default_recall, cfg.default_q, cfg.gamma)
    base_quality = ExtractorQuality(
        precision=default_p, recall=cfg.default_recall, q=cfg.default_q
    )
    quality_init: dict[ExtractorKey, ExtractorQuality] = {
        extractor: base_quality for extractor in prob.extractors
    }
    if initial_extractor_quality:
        for extractor, quality in initial_extractor_quality.items():
            if extractor in quality_init:
                quality_init[extractor] = quality
    precision = np.array(
        [quality_init[e].precision for e in prob.cols], dtype=np.float64
    )
    recall = np.array(
        [quality_init[e].recall for e in prob.cols], dtype=np.float64
    )
    q_vec = np.array([quality_init[e].q for e in prob.cols], dtype=np.float64)

    estimable_src_mask = np.zeros(n_sources, dtype=bool)
    for i, source in enumerate(prob.sources):
        if source in prob.estimable_sources:
            estimable_src_mask[i] = True

    unfrozen_col_mask = np.ones(n_cols, dtype=bool)
    if frozen_extractors:
        for c, extractor in enumerate(prob.cols):
            if extractor in frozen_extractors:
                unfrozen_col_mask[c] = False

    unfrozen_src_mask = np.ones(n_sources, dtype=bool)
    if frozen_sources:
        for i, source in enumerate(prob.sources):
            if source in frozen_sources:
                unfrozen_src_mask[i] = False

    return ParamState(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        q_vec=q_vec,
        estimable_src_mask=estimable_src_mask,
        unfrozen_src_mask=unfrozen_src_mask,
        unfrozen_col_mask=unfrozen_col_mask,
        quality_init=quality_init,
    )


def iteration_inputs(
    cfg: MultiLayerConfig, prob: CompiledProblem, params: ParamState
) -> tuple[np.ndarray, np.ndarray, np.ndarray | float, np.ndarray]:
    """The per-iteration vote vectors derived from the current parameters.

    Returns ``(pre_vote, abs_vote, base_absence, source_vote)``:
    presence / absence log-odds per extractor column (Eq. 14 / 31), the
    absence total per source (an array under the ACTIVE scope, a scalar
    under ALL), and each source's V-step vote weight (Eq. 19 — with the
    ``log n`` term folded in under ACCU; POPACCU subtracts the per-claim
    log-popularity instead, which stays shard-local).
    """
    pre_vote = _safe_log(params.recall) - _safe_log(params.q_vec)
    abs_vote = _safe_log(1.0 - params.recall) - _safe_log(1.0 - params.q_vec)
    if cfg.absence_scope is AbsenceScope.ACTIVE:
        base_absence: np.ndarray | float = np.bincount(
            prob.active_src,
            weights=abs_vote[prob.active_col],
            minlength=len(prob.sources),
        )
    else:
        base_absence = abs_vote.sum()
    if prob.triple_popularity is None:
        source_vote = safe_log(float(cfg.n)) + _log_odds(params.accuracy)
    else:
        source_vote = _log_odds(params.accuracy)
    return pre_vote, abs_vote, base_absence, source_vote


@dataclass
class ReduceStats:
    """The sufficient statistics of one reduce (theta_1 + theta_2).

    Everything :func:`_apply_parameter_updates` needs: per-source V-step
    vote sums (Eq. 27/28) and, unless extractor quality is frozen, the
    per-column precision/recall sums (Eq. 29-33). :func:`reduce_statistics`
    produces bit-identical float64 contents for every window size, which
    is what makes ``reduce_chunk`` a pure execution knob.
    """

    acc_numer: np.ndarray
    acc_denom: np.ndarray
    ext_numer: np.ndarray | None
    conf_total: np.ndarray | None
    recall_denom: np.ndarray | None


def _claim_weights(cfg: MultiLayerConfig, claim_p: np.ndarray) -> np.ndarray:
    """theta_1 vote weight per claim, before the posterior factor: the
    MAP-masked ``p(C|X)`` (Eq. 28) or the plain MAP indicator (Eq. 27)."""
    base_weight = claim_p if cfg.use_weighted_vcv else np.ones_like(claim_p)
    return np.where(claim_p >= 0.5, base_weight, 0.0)


def iter_chunks(total: int, chunk: int):
    """Yield ``(lo, hi)`` half-open windows covering ``range(total)``.

    The windowed reduce walks every array family through these windows
    in ascending order, so the last window is the only one shorter than
    ``chunk``. ``total == 0`` yields nothing.
    """
    if chunk < 1:
        raise ValueError(f"chunk size must be >= 1, got {chunk}")
    for lo in range(0, total, chunk):
        yield lo, min(lo + chunk, total)


def _scatter_add(
    acc: np.ndarray | None,
    bins: np.ndarray,
    weights: np.ndarray,
    num_bins: int,
) -> np.ndarray:
    """One window of a running ``bincount`` accumulation.

    The first window of a family (``acc is None``) is a plain
    ``np.bincount``. ``bincount`` adds its weights sequentially in array
    order, so every later window seeds each bin with its running total
    and appends the window's entries — the same trick as
    :func:`_seeded_vcc` — which reproduces *exactly* the association
    order of a single whole-array ``bincount`` and keeps the reduce
    bit-identical for every window size.
    """
    if acc is None:
        return np.bincount(bins, weights=weights, minlength=num_bins)
    return np.bincount(
        np.concatenate((np.arange(num_bins), bins)),
        weights=np.concatenate((acc, weights)),
        minlength=num_bins,
    )


def reduce_statistics(
    cfg: MultiLayerConfig,
    prob: CompiledProblem,
    p_correct: np.ndarray,
    posterior: np.ndarray,
    chunk: int | None = None,
    release=None,
) -> ReduceStats:
    """Scatter-add the theta_1 / theta_2 sufficient statistics.

    Scans each global array family (claims, extraction entries, scored
    coordinates, active pairs) in contiguous windows of ``chunk``
    elements; ``chunk=None`` is one window per family, i.e. one plain
    ``np.bincount`` per statistic. The float64 result is **bit-identical**
    for every ``chunk`` (see :func:`_scatter_add`). After each window,
    ``release(array, lo, hi)`` is invoked for every global array the
    window touched (the out-of-core driver passes
    :func:`repro.exec.spill.advise_dontneed_window`), so the resident
    set of file-backed pages stays bounded by one window per array
    instead of the whole corpus. Coordinate-indexed gathers
    (``coord_source``) are O(n_coords) — the same order as the
    driver-resident parameter vectors — and are windowed along with the
    claim/entry scans.
    """
    n_sources = len(prob.sources)
    n_cols = prob.num_cols

    def windows(*arrays: np.ndarray):
        """The windows of one family; each is released once consumed.
        An empty family is one empty window, so its statistics come out
        as the zeros ``bincount`` gives for no input."""
        total = arrays[0].shape[0]
        whole = chunk is None or total == 0
        for lo, hi in [(0, total)] if whole else iter_chunks(total, chunk):
            yield lo, hi
            if release is not None:
                for array in arrays:
                    release(array, lo, hi)

    # --- claims: theta_1 vote sums ------------------------------------
    acc_numer = acc_denom = None
    for lo, hi in windows(prob.claim_coord, prob.claim_triple):
        claim_coord = prob.claim_coord[lo:hi]
        claim_source = prob.coord_source[claim_coord]
        masked_weight = _claim_weights(cfg, p_correct[claim_coord])
        acc_numer = _scatter_add(
            acc_numer,
            claim_source,
            masked_weight * posterior[prob.claim_triple[lo:hi]],
            n_sources,
        )
        acc_denom = _scatter_add(
            acc_denom, claim_source, masked_weight, n_sources
        )

    if cfg.freeze_extractor_quality:
        return ReduceStats(acc_numer, acc_denom, None, None, None)

    # --- extraction entries: theta_2 numerators -----------------------
    ext_numer = conf_total = None
    for lo, hi in windows(prob.entry_coord, prob.entry_col, prob.entry_conf):
        entry_col = prob.entry_col[lo:hi]
        entry_conf = prob.entry_conf[lo:hi]
        ext_numer = _scatter_add(
            ext_numer,
            entry_col,
            entry_conf * p_correct[prob.entry_coord[lo:hi]],
            n_cols,
        )
        conf_total = _scatter_add(conf_total, entry_col, entry_conf, n_cols)

    # --- recall denominator (Eq. 33) ----------------------------------
    if cfg.absence_scope is AbsenceScope.ACTIVE:
        p_by_source = None
        for lo, hi in windows(prob.coord_source):
            p_by_source = _scatter_add(
                p_by_source,
                prob.coord_source[lo:hi],
                p_correct[lo:hi],
                n_sources,
            )
        recall_denom = None
        for lo, hi in windows(prob.active_src, prob.active_col):
            recall_denom = _scatter_add(
                recall_denom,
                prob.active_col[lo:hi],
                p_by_source[prob.active_src[lo:hi]],
                n_cols,
            )
    else:
        # p_correct is a driver-resident anonymous array; its pairwise
        # whole-array sum is kept as-is (chunked partial sums would
        # change the association order and break bit-identity).
        recall_denom = np.full(n_cols, float(p_correct.sum()))
    return ReduceStats(
        acc_numer, acc_denom, ext_numer, conf_total, recall_denom
    )


def _apply_parameter_updates(
    cfg: MultiLayerConfig,
    params: ParamState,
    stats: ReduceStats,
) -> tuple[float, float]:
    """Turn reduced statistics into the theta updates + convergence deltas."""
    accuracy = params.accuracy
    precision = params.precision
    recall = params.recall
    q_vec = params.q_vec
    acc_numer, acc_denom = stats.acc_numer, stats.acc_denom

    # --- theta_1 (Eq. 27/28): masked segment means per source -----------
    acc_update = (
        params.estimable_src_mask
        & (acc_denom > 0.0)
        & params.unfrozen_src_mask
    )
    accuracy_delta = 0.0
    if acc_update.any():
        new_accuracy = np.clip(
            acc_numer[acc_update] / acc_denom[acc_update],
            cfg.quality_floor,
            cfg.quality_ceiling,
        )
        accuracy_delta = float(
            np.abs(new_accuracy - accuracy[acc_update]).max()
        )
        accuracy[acc_update] = new_accuracy

    # --- theta_2 (Eq. 29-33 + Eq. 7): segment sums per column -----------
    precision_floor = max(cfg.quality_floor, cfg.gamma)
    extractor_delta = 0.0
    if stats.ext_numer is None:
        ext_update = np.zeros(len(params.unfrozen_col_mask), dtype=bool)
    else:
        ext_numer = stats.ext_numer
        conf_total = stats.conf_total
        recall_denom = stats.recall_denom
        ext_update = (
            (conf_total > 0.0)
            & (recall_denom > 0.0)
            & params.unfrozen_col_mask
        )
    if ext_update.any():
        new_precision = np.clip(
            ext_numer[ext_update] / conf_total[ext_update],
            precision_floor,
            cfg.quality_ceiling,
        )
        new_recall = np.clip(
            ext_numer[ext_update] / recall_denom[ext_update],
            cfg.quality_floor,
            cfg.quality_ceiling,
        )
        if cfg.quality_damping < 1.0:
            damping = cfg.quality_damping
            new_precision = (1.0 - damping) * precision[
                ext_update
            ] + damping * new_precision
            new_recall = (1.0 - damping) * recall[
                ext_update
            ] + damping * new_recall
        clamped_p = np.clip(
            new_precision, cfg.quality_floor, cfg.quality_ceiling
        )
        clamped_r = np.clip(
            new_recall, cfg.quality_floor, cfg.quality_ceiling
        )
        new_q = np.clip(
            cfg.gamma
            / (1.0 - cfg.gamma)
            * (1.0 - clamped_p)
            / clamped_p
            * clamped_r,
            cfg.quality_floor,
            cfg.quality_ceiling,
        )
        extractor_delta = float(
            np.maximum(
                np.abs(new_precision - precision[ext_update]),
                np.abs(new_recall - recall[ext_update]),
            ).max()
        )
        precision[ext_update] = new_precision
        recall[ext_update] = new_recall
        q_vec[ext_update] = new_q

    return accuracy_delta, extractor_delta


def update_parameters(
    cfg: MultiLayerConfig,
    prob: CompiledProblem,
    params: ParamState,
    p_correct: np.ndarray,
    posterior: np.ndarray,
    chunk: int | None = None,
    release=None,
) -> tuple[float, float]:
    """The reduce step: theta_1 (Eq. 27/28) + theta_2 (Eq. 29-33, Eq. 7).

    Consumes the globally assembled ``p_correct`` / ``posterior`` of one
    EM iteration, updates ``params`` in place, and returns
    ``(accuracy_delta, extractor_delta)`` for the convergence check.
    ``chunk`` / ``release`` window the global-array scans
    (:func:`reduce_statistics`; the engine-facing half of
    ``MultiLayerConfig.reduce_chunk``) without changing a bit of the
    result.
    """
    return _apply_parameter_updates(
        cfg,
        params,
        reduce_statistics(cfg, prob, p_correct, posterior, chunk, release),
    )


#: The pre-consolidation name of the windowed call shape
#: ``update_parameters(..., chunk, release)``; kept for callers outside
#: ``src/`` (``benchmarks/e2e``).
update_parameters_streamed = update_parameters


def fit_numpy(
    cfg: MultiLayerConfig,
    observations: ObservationMatrix,
    initial_source_accuracy: dict[SourceKey, float] | None = None,
    initial_extractor_quality: dict[ExtractorKey, ExtractorQuality]
    | None = None,
    frozen_extractors: set[ExtractorKey] | None = None,
    frozen_sources: set[SourceKey] | None = None,
) -> MultiLayerResult:
    """Run Algorithm 1 with the array backend; same contract as ``fit``.

    What ``engine="numpy"`` dispatches to: a thin name for the one EM
    loop, :func:`repro.exec.driver.fit_sharded`, which runs
    ``cfg.backend`` over ``cfg.num_shards`` shards — one serial shard
    when no backend is set.
    """
    # Local import: the driver is built from this module's blocks.
    from repro.exec.driver import fit_sharded

    return fit_sharded(
        cfg,
        observations,
        initial_source_accuracy,
        initial_extractor_quality,
        frozen_extractors,
        frozen_sources,
    )


def assemble_result(
    prob: CompiledProblem,
    observations: ObservationMatrix,
    p_correct: np.ndarray,
    posterior: np.ndarray,
    params: ParamState,
    priors: np.ndarray | None,
    history: list[IterationSnapshot],
) -> MultiLayerResult:
    """Convert the final arrays back into the dict-of-keys result views."""
    accuracy = params.accuracy
    precision = params.precision
    recall = params.recall
    q_vec = params.q_vec
    quality_init = params.quality_init
    posterior_list = posterior.tolist()
    value_posteriors: dict[DataItem, dict[Value, float]] = {}
    ptr = prob.item_ptr
    for ii, item in enumerate(prob.items):
        lo, hi = int(ptr[ii]), int(ptr[ii + 1])
        value_posteriors[item] = {
            prob.triple_value[t]: posterior_list[t] for t in range(lo, hi)
        }

    extraction_posteriors = dict(zip(prob.coords, p_correct.tolist()))

    source_accuracy = dict(zip(prob.sources, accuracy.tolist()))

    extractor_quality = dict(quality_init)
    for c, extractor in enumerate(prob.cols):
        fitted = ExtractorQuality(
            precision=float(precision[c]),
            recall=float(recall[c]),
            q=float(q_vec[c]),
        )
        if fitted != extractor_quality[extractor]:
            extractor_quality[extractor] = fitted

    priors_dict = (
        dict(zip(prob.coords, priors.tolist())) if priors is not None else {}
    )

    return MultiLayerResult(
        value_posteriors=value_posteriors,
        extraction_posteriors=extraction_posteriors,
        source_accuracy=source_accuracy,
        extractor_quality=extractor_quality,
        estimable_sources=prob.estimable_sources,
        estimable_extractors=prob.estimable_extractors,
        num_triples_total=observations.num_triples,
        history=history,
        priors=priors_dict,
    )
