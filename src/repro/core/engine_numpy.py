"""The array engine of Algorithm 1: what ``MultiLayerModel.fit`` runs.

Implements exactly the estimation steps of the dict-walking oracle in
``tests/multi_layer_reference.py``, but as segment operations over the
arrays compiled by :mod:`repro.core.indexing`:

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

The output matches the oracle up to floating-point summation order
(parity is asserted to <= 1e-9 by the test suite). The returned
:class:`~repro.core.results.MultiLayerResult` holds columns, and its
dict-of-keys views — decoded on first read — are the ones the oracle
builds.

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

from repro import obs
from repro.core.config import AbsenceScope, MultiLayerConfig
from repro.core.indexing import CompiledProblem
from repro.core.observation import ObservationMatrix
from repro.core.quality import ExtractorQuality, default_precision
from repro.core.results import (
    IterationSnapshot,
    MultiLayerResult,
    ResultColumns,
    first_seen_keys,
)
from repro.core.types import ExtractorKey, SourceKey
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
    Both branches share one division, ``1 / (1 + e)`` for ``x >= 0``
    and ``e / (1 + e)`` below, with ``e = exp(-|x|)``.
    """
    ex = np.clip(x, -_SIGMOID_CUTOFF, _SIGMOID_CUTOFF)
    np.abs(ex, out=ex)
    np.negative(ex, out=ex)
    np.exp(ex, out=ex)
    out = np.where(x >= 0.0, 1.0, ex)
    np.divide(out, np.add(ex, 1.0), out=out)
    np.copyto(out, 1.0, where=x >= _SIGMOID_CUTOFF)
    np.copyto(out, 0.0, where=x <= -_SIGMOID_CUTOFF)
    return out


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
    """C-step vote counts accumulated in the oracle's order.

    The scalar oracle computes VCC' as ``((absence_total + w_1) + w_2) +
    ...`` — the absence total seeds the accumulator before any entry vote
    is added. ``base + np.bincount(...)`` associates the other way round,
    and when the votes cancel to within one ULP of zero the two orders
    land on opposite sides of the theta_1 MAP cutoff (``p >= 0.5``),
    which the M steps then amplify into a macroscopic posterior
    divergence. ``np.add.at`` adds its values one by one in array order,
    so starting from a copy of the per-coordinate base reproduces the
    reference association order exactly: seed first, then the entries
    in cell order.
    """
    vcc = np.array(np.broadcast_to(base, num_coords), dtype=np.float64)
    np.add.at(vcc, entry_coord, entry_weights)
    return vcc


def segment_softmax(
    votes: np.ndarray,
    starts: np.ndarray,
    triple_item: np.ndarray,
    num_unobserved: np.ndarray,
) -> np.ndarray:
    """The per-item softmax with floor mass of Eq. 21 / 25, in the dtype
    of ``votes``: item ``k`` owns ``votes[starts[k]:starts[k + 1]]`` and
    adds ``num_unobserved[k]`` terms ``exp(0)`` to its partition
    function."""
    if not len(starts):
        return np.zeros(0, votes.dtype)
    shift = np.maximum(np.maximum.reduceat(votes, starts), 0.0)
    exp_votes = np.exp(votes - shift[triple_item])
    floor_mass = num_unobserved.astype(votes.dtype, copy=False)
    z = np.add.reduceat(exp_votes, starts) + floor_mass * np.exp(-shift)
    return exp_votes / z[triple_item]


def num_unobserved(
    cfg: MultiLayerConfig, item_num_values: np.ndarray
) -> np.ndarray:
    """``max(n + 1 - |observed values|, 0)`` per item, as float64."""
    return np.maximum(cfg.n + 1 - item_num_values, 0).astype(np.float64)


@dataclass
class RoundInvariants:
    """What every EM round of one compiled problem reads and no round
    changes, derived once per problem (:func:`round_invariants`).

    ``conf_total`` is the precision denominator of Eq. 29 (a bincount of
    compile-time confidences); ``claim_source`` the source of each
    V-step claim; ``truth_index`` says where Eq. 26 reads each
    coordinate's probability of being true, as an index into
    ``posterior ++ residual ++ [0.0]`` (its triple's posterior, else its
    item's residual mass, else zero); ``item_starts`` are the CSR starts
    the residual mass sums over. :meth:`residual_terms` memoises the
    unobserved-count terms per domain size ``n``.
    """

    conf_total: np.ndarray
    claim_source: np.ndarray
    truth_index: np.ndarray
    item_starts: np.ndarray
    item_num_values: np.ndarray
    residual_terms_by_n: dict[int, tuple[np.ndarray, np.ndarray]]

    @classmethod
    def build(cls, prob: CompiledProblem) -> "RoundInvariants":
        n_triples = prob.num_triples
        truth_index = np.where(
            prob.coord_triple >= 0,
            prob.coord_triple,
            np.where(
                prob.coord_item >= 0,
                n_triples + prob.coord_item,
                n_triples + prob.num_items,
            ),
        )
        return cls(
            conf_total=np.bincount(
                prob.entry_col,
                weights=prob.entry_conf,
                minlength=prob.num_cols,
            ),
            claim_source=prob.coord_source[prob.claim_coord],
            truth_index=truth_index,
            item_starts=prob.item_ptr[:-1],
            item_num_values=prob.item_num_values,
            residual_terms_by_n={},
        )

    def residual_terms(
        self, cfg: MultiLayerConfig
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(num_unobserved > 0, max(num_unobserved, 1))`` per item."""
        terms = self.residual_terms_by_n.get(cfg.n)
        if terms is None:
            unobserved = num_unobserved(cfg, self.item_num_values)
            terms = self.residual_terms_by_n[cfg.n] = (
                unobserved > 0.0,
                np.maximum(unobserved, 1.0),
            )
        return terms


def round_invariants(prob: CompiledProblem) -> RoundInvariants:
    """``prob``'s :class:`RoundInvariants`, built on first use and kept
    on the problem (a spilled or re-compiled problem builds its own)."""
    if prob.invariants is None:
        prob.invariants = RoundInvariants.build(prob)
    return prob.invariants


@dataclass
class ParamState:
    """Mutable model parameters shared by the engine and the sharded driver.

    ``accuracy`` is indexed by source id, the quality vectors by extractor
    column; the masks gate the theta_1 / theta_2 updates exactly like the
    oracle's estimable / frozen checks. ``quality_init`` is the
    (P, R, Q) row each extractor starts from, by extractor id: the
    result reports it for extractors without a column.
    """

    accuracy: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    q_vec: np.ndarray
    estimable_src_mask: np.ndarray
    unfrozen_src_mask: np.ndarray
    unfrozen_col_mask: np.ndarray
    quality_init: np.ndarray  # (n_extractors, 3)


def init_params(
    cfg: MultiLayerConfig,
    prob: CompiledProblem,
    initial_source_accuracy: dict[SourceKey, float] | None = None,
    initial_extractor_quality: dict[ExtractorKey, ExtractorQuality]
    | None = None,
    frozen_extractors: set[ExtractorKey] | None = None,
    frozen_sources: set[SourceKey] | None = None,
) -> ParamState:
    """Parameter initialisation (mirrors the oracle's)."""
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
    quality_init = np.tile(
        np.array([default_p, cfg.default_recall, cfg.default_q]),
        (len(prob.extractors), 1),
    )
    if initial_extractor_quality:
        row_of = dict(zip(prob.extractors, range(len(prob.extractors))))
        for extractor, quality in initial_extractor_quality.items():
            row = row_of.get(extractor)
            if row is not None:
                quality_init[row] = (
                    quality.precision, quality.recall, quality.q
                )
    precision, recall, q_vec = quality_init[prob.col_extractor].T.copy()

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


def map_cutoff(claim_p: np.ndarray, weight=1.0) -> np.ndarray:
    """The Section 3.3.3 MAP cutoff: ``weight`` where ``p(C|X) >= 0.5``,
    else 0.0. With the default weight, the float64 MAP indicator in
    either precision; the E step's MAP V step and the theta_1 weights
    both go through here."""
    return np.where(claim_p >= 0.5, weight, 0.0)


def _claim_weights(cfg: MultiLayerConfig, claim_p: np.ndarray) -> np.ndarray:
    """theta_1 vote weight per claim, before the posterior factor: the
    MAP-masked ``p(C|X)`` (Eq. 28) or the plain MAP indicator (Eq. 27)."""
    return map_cutoff(claim_p, claim_p if cfg.use_weighted_vcv else 1.0)


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
    ``np.bincount``. ``bincount`` and ``np.add.at`` both add their
    values one by one in array order, so every later window adds its
    entries onto the running totals in place — the same order as
    :func:`_seeded_vcc` — which reproduces *exactly* the association
    order of a single whole-array ``bincount`` and keeps the reduce
    bit-identical for every window size.
    """
    if acc is None:
        return np.bincount(bins, weights=weights, minlength=num_bins)
    np.add.at(acc, bins, weights)
    return acc


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
    instead of the whole corpus. What no round changes — the claim
    sources and the precision denominator — comes from the problem's
    :class:`RoundInvariants`: O(n_claims) and O(n_cols) resident
    arrays, the same order as the driver-resident ``p_correct``, sliced
    along with the claim scan.
    """
    n_sources = len(prob.sources)
    n_cols = prob.num_cols
    invariants = round_invariants(prob)

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
    with obs.span("em.srcaccu"):
        acc_numer = acc_denom = None
        for lo, hi in windows(
            prob.claim_coord, prob.claim_triple, invariants.claim_source
        ):
            claim_coord = prob.claim_coord[lo:hi]
            claim_source = invariants.claim_source[lo:hi]
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
    with obs.span("em.extquality"):
        ext_numer = None
        for lo, hi in windows(
            prob.entry_coord, prob.entry_col, prob.entry_conf
        ):
            ext_numer = _scatter_add(
                ext_numer,
                prob.entry_col[lo:hi],
                prob.entry_conf[lo:hi] * p_correct[prob.entry_coord[lo:hi]],
                n_cols,
            )

        # --- recall denominator (Eq. 33) ------------------------------
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
        acc_numer, acc_denom, ext_numer, invariants.conf_total, recall_denom
    )


def _apply_parameter_updates(
    cfg: MultiLayerConfig,
    params: ParamState,
    stats: ReduceStats,
) -> tuple[float, float]:
    """Turn reduced statistics into the theta updates + convergence deltas.

    Each update mask becomes its row indices once: indexing with them
    selects the same elements in the same order as the mask, for a
    fraction of the cost of every boolean gather and scatter.
    """
    accuracy = params.accuracy
    precision = params.precision
    recall = params.recall
    q_vec = params.q_vec
    acc_numer, acc_denom = stats.acc_numer, stats.acc_denom

    # --- theta_1 (Eq. 27/28): masked segment means per source -----------
    with obs.span("em.srcaccu"):
        acc_rows = np.flatnonzero(
            params.estimable_src_mask
            & (acc_denom > 0.0)
            & params.unfrozen_src_mask
        )
        accuracy_delta = 0.0
        if acc_rows.size:
            new_accuracy = np.clip(
                acc_numer[acc_rows] / acc_denom[acc_rows],
                cfg.quality_floor,
                cfg.quality_ceiling,
            )
            accuracy_delta = float(
                np.abs(new_accuracy - accuracy[acc_rows]).max()
            )
            accuracy[acc_rows] = new_accuracy

    # --- theta_2 (Eq. 29-33 + Eq. 7): segment sums per column -----------
    with obs.span("em.extquality"):
        precision_floor = max(cfg.quality_floor, cfg.gamma)
        extractor_delta = 0.0
        if stats.ext_numer is None:
            ext_rows = np.zeros(0, dtype=np.intp)
        else:
            ext_numer = stats.ext_numer
            conf_total = stats.conf_total
            recall_denom = stats.recall_denom
            ext_rows = np.flatnonzero(
                (conf_total > 0.0)
                & (recall_denom > 0.0)
                & params.unfrozen_col_mask
            )
        if ext_rows.size:
            numer = ext_numer[ext_rows]
            new_precision = np.clip(
                numer / conf_total[ext_rows],
                precision_floor,
                cfg.quality_ceiling,
            )
            new_recall = np.clip(
                numer / recall_denom[ext_rows],
                cfg.quality_floor,
                cfg.quality_ceiling,
            )
            old_precision = precision[ext_rows]
            old_recall = recall[ext_rows]
            if cfg.quality_damping < 1.0:
                damping = cfg.quality_damping
                new_precision = (
                    (1.0 - damping) * old_precision + damping * new_precision
                )
                new_recall = (
                    (1.0 - damping) * old_recall + damping * new_recall
                )
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
                    np.abs(new_precision - old_precision),
                    np.abs(new_recall - old_recall),
                ).max()
            )
            precision[ext_rows] = new_precision
            recall[ext_rows] = new_recall
            q_vec[ext_rows] = new_q

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
    """The fitted arrays as a column-backed result (:class:`ResultColumns`).

    Array work over the compiled ids, with no walk over coordinates or
    items: the dict views are decoded from these columns when something
    reads them. The tables list sources and extractors as the problem
    does, items and values in the order the scored coordinates first
    name them, each as that coordinate has it. ``observations`` is read
    only through ``num_triples``, which a released matrix keeps.
    """
    coords = prob.coords
    items, coord_item = first_seen_keys(coords, 1, prob.coord_matrix_item)
    values, coord_value = first_seen_keys(
        coords, 2, prob.coord_matrix_value
    )
    coord_source = np.array(prob.coord_source, dtype=np.intp)
    # Each triple's first claim: claims are grouped by triple, each
    # triple's in coordinate order (its value is that claim's value).
    triple_coord = prob.claim_coord[
        np.flatnonzero(np.diff(prob.claim_triple, prepend=-1))
    ]
    # (P, R, Q) by extractor: the starting values, then the fitted
    # ones of the estimable columns.
    quality = params.quality_init.copy()
    quality[prob.col_extractor] = np.column_stack(
        (params.precision, params.recall, params.q_vec)
    )
    precision, recall, q_vec = np.ascontiguousarray(quality.T)
    est_extractor = np.zeros(len(prob.extractors), dtype=bool)
    est_extractor[prob.col_extractor] = True
    # The priors, when reported, sit on the C layer's coordinates.
    prior_rows = slice(None) if priors is not None else slice(0)
    return MultiLayerResult(
        ResultColumns(
            sources=prob.sources,
            extractors=prob.extractors,
            items=items,
            values=values,
            acc_source=np.arange(len(prob.sources)),
            acc_value=params.accuracy.copy(),
            eq_extractor=np.arange(len(prob.extractors)),
            eq_precision=precision,
            eq_recall=recall,
            eq_q=q_vec,
            est_source=params.estimable_src_mask.copy(),
            est_extractor=est_extractor,
            coord_source=coord_source,
            coord_item=coord_item,
            coord_value=coord_value,
            coord_p=p_correct,
            prior_source=coord_source[prior_rows],
            prior_item=coord_item[prior_rows],
            prior_value=coord_value[prior_rows],
            prior_p=priors if priors is not None else np.zeros(0),
            vp_item=coord_item[triple_coord],
            vp_value=coord_value[triple_coord],
            vp_p=posterior,
            vp_empty_item=np.zeros(0, dtype=np.intp),
            coords=coords,
            prior_coords=coords if priors is not None else [],
            vp_values=prob.triple_value,
        ),
        observations.num_triples,
        history,
    )
