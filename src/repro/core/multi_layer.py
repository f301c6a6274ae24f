"""The multi-layer model (Section 3): joint inference over C, V, A, P/R/Q.

This is the paper's main contribution. Two layers of latent variables —
``C_wdv`` (does source ``w`` really provide triple (d, v)?) and ``V_d`` (the
true value of data item ``d``) — are estimated together with the source
accuracies ``A_w`` and the extractor qualities ``(P_e, R_e, Q_e)`` by the
EM-like procedure of Algorithm 1:

1. **C step** (Section 3.3.1): ``p(C_wdv | X) = sigma(VCC' + log-odds(prior))``
   from the extractors' presence/absence votes (Eq. 15 / 31).
2. **V step** (Section 3.3.2-3.3.3): ``p(V_d | X)`` from source accuracy
   votes, weighted by the C posteriors (Eq. 23-25) or by the MAP ``Chat``
   (the Table 6 ablation).
3. **theta_1** (Section 3.4.1): ``A_w`` as the C-weighted average probability
   of the triples the source provides (Eq. 28) — this is the KBT estimate.
4. **theta_2** (Section 3.4.2): extractor precision/recall from the C
   posteriors (Eq. 29-33), with ``Q_e`` derived via Eq. 7.
5. **Prior re-estimation** (Section 3.3.4): ``p(C_wdv = 1)`` updated from the
   previous iteration's value posteriors (Eq. 26), by default from the third
   iteration on.

Sources and extractors with fewer observations than the configured support
keep their default quality and are excluded from inference; triples seen
only through excluded parties receive no probability (coverage < 1,
Section 5.1.1).
"""

from __future__ import annotations

from repro.core.config import AbsenceScope, FalseValueModel, MultiLayerConfig
from repro.core.engine_numpy import fit_numpy
from repro.core.observation import ObservationMatrix
from repro.core.quality import ExtractorQuality, derive_q
from repro.core.results import Coord, IterationSnapshot, MultiLayerResult
from repro.core.types import DataItem, ExtractorKey, SourceKey, Value
from repro.core.votes import (
    VoteTable,
    extraction_posterior,
    value_posteriors,
)
from repro.util.logmath import clamp, log_odds, safe_log


def default_precision(recall: float, q: float, gamma: float) -> float:
    """Invert Eq. 7: the precision implied by default (R_e, Q_e, gamma)."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0, 1)")
    ratio = q * (1.0 - gamma) / (gamma * recall)
    return 1.0 / (1.0 + ratio)


class MultiLayerModel:
    """Algorithm 1: MULTILAYER(X, t_max)."""

    def __init__(self, config: MultiLayerConfig | None = None) -> None:
        self._config = config or MultiLayerConfig()
        if (
            self._config.false_value_model is FalseValueModel.POPACCU
            and self._config.use_weighted_vcv
        ):
            # Section 5.1.2: the POPACCU variant has no known combination
            # with the improved (weighted) estimator of Section 3.3.3.
            raise ValueError(
                "POPACCU requires use_weighted_vcv=False in the multi-layer "
                "model (Section 5.1.2)"
            )

    @property
    def config(self) -> MultiLayerConfig:
        return self._config

    def fit(
        self,
        observations: ObservationMatrix,
        initial_source_accuracy: dict[SourceKey, float] | None = None,
        initial_extractor_quality: dict[ExtractorKey, ExtractorQuality]
        | None = None,
        frozen_extractors: set[ExtractorKey] | None = None,
        frozen_sources: set[SourceKey] | None = None,
    ) -> MultiLayerResult:
        """Run Algorithm 1 on an observation matrix.

        Args:
            observations: the extraction cube X.
            initial_source_accuracy: optional gold-standard initialisation of
                A_w (the "+" variants of Section 5.1.2).
            initial_extractor_quality: optional initial (P, R, Q) per
                extractor.
            frozen_extractors: extractors whose quality stays pinned at its
                initial value (the theta_2 update skips them). Warm-start
                incremental scoring freezes the converged extractors while
                letting columns first seen in the delta adapt;
                ``config.freeze_extractor_quality`` freezes all of them.
            frozen_sources: sources whose accuracy stays pinned at its
                initial value (the theta_1 update skips them). Incremental
                scoring pins converged sources — a delta sub-problem only
                sees a biased slice of their claims — while new sources
                are estimated normally.
        """
        cfg = self._config
        return ENGINE_FITS[cfg.engine](
            cfg,
            observations,
            initial_source_accuracy,
            initial_extractor_quality,
            frozen_extractors,
            frozen_sources,
        )


def fit_python(
    cfg: MultiLayerConfig,
    observations: ObservationMatrix,
    initial_source_accuracy: dict[SourceKey, float] | None = None,
    initial_extractor_quality: dict[ExtractorKey, ExtractorQuality]
    | None = None,
    frozen_extractors: set[ExtractorKey] | None = None,
    frozen_sources: set[SourceKey] | None = None,
) -> MultiLayerResult:
    """Algorithm 1 on the reference dict-based state (``engine="python"``)."""
    state = _FitState(cfg, observations)
    state.init_qualities(initial_source_accuracy, initial_extractor_quality)

    history: list[IterationSnapshot] = []
    for iteration in range(1, cfg.convergence.max_iterations + 1):
        state.estimate_extraction_correctness()
        state.estimate_values()
        accuracy_delta = state.update_source_accuracy(frozen_sources)
        if cfg.freeze_extractor_quality:
            extractor_delta = 0.0
        else:
            extractor_delta = state.update_extractor_quality(
                frozen_extractors
            )
        if cfg.update_prior and (
            iteration + 1 >= cfg.prior_update_start_iteration
        ):
            state.update_priors()
        history.append(
            IterationSnapshot(iteration, accuracy_delta, extractor_delta)
        )
        if max(accuracy_delta, extractor_delta) < cfg.convergence.tolerance:
            break

    return MultiLayerResult(
        value_posteriors=state.posteriors,
        extraction_posteriors=state.p_correct,
        source_accuracy=state.accuracy,
        extractor_quality=state.quality,
        estimable_sources=state.estimable_sources,
        estimable_extractors=state.estimable_extractors,
        num_triples_total=observations.num_triples,
        history=history,
        priors=state._priors,
    )


#: ``MultiLayerConfig.engine`` -> fit function (``config.ENGINES`` names).
ENGINE_FITS = {"python": fit_python, "numpy": fit_numpy}


class _FitState:
    """Mutable working state of one fit; one instance per call."""

    def __init__(self, cfg: MultiLayerConfig, observations: ObservationMatrix):
        self._cfg = cfg
        self._observations = observations

        extractor_sizes = observations.extractor_sizes()
        source_sizes = observations.source_sizes()
        self.estimable_extractors = {
            e
            for e, size in extractor_sizes.items()
            if size >= cfg.min_extractor_support
        }
        self.estimable_sources = {
            w
            for w, size in source_sizes.items()
            if size >= cfg.min_source_support
        }

        # Scored cells: coordinates seen by >= 1 estimable extractor, with
        # confidences restricted to estimable extractors and optionally
        # binarised at the configured threshold (Section 3.5 / Table 6).
        self.scored: dict[Coord, dict[ExtractorKey, float]] = {}
        for coord, cell in observations.cells():
            kept: dict[ExtractorKey, float] = {}
            for extractor, confidence in cell.items():
                if extractor not in self.estimable_extractors:
                    continue
                if cfg.confidence_threshold is not None:
                    if confidence > cfg.confidence_threshold:
                        kept[extractor] = 1.0
                else:
                    kept[extractor] = confidence
            if kept:
                self.scored[coord] = kept

        # V-step claims: item -> value -> coords from estimable sources.
        self.item_claims: dict[DataItem, dict[Value, list[Coord]]] = {}
        for coord in self.scored:
            source, item, value = coord
            if source not in self.estimable_sources:
                continue
            self.item_claims.setdefault(item, {}).setdefault(value, []).append(
                coord
            )

        # theta_1 update view: source -> scored claims.
        self.source_claims: dict[SourceKey, list[Coord]] = {}
        for coord in self.scored:
            self.source_claims.setdefault(coord[0], []).append(coord)

        # Active estimable extractors per scored source, computed once:
        # the C step (absence totals) and the extractor M step (recall
        # denominators) both reuse this instead of re-querying the
        # observation index every iteration.
        self._active_estimable: dict[SourceKey, set[ExtractorKey]] = {
            source: observations.active_extractors(source)
            & self.estimable_extractors
            for source in self.source_claims
        }

        # POPACCU needs empirical value popularity per item; its log is
        # static, so precompute it once instead of per V-step claim.
        self._popularity: dict[DataItem, dict[Value, float]] | None = None
        self._log_popularity: dict[DataItem, dict[Value, float]] | None = None
        if cfg.false_value_model is FalseValueModel.POPACCU:
            self._popularity = self._value_popularity()
            self._log_popularity = {
                item: {value: safe_log(p) for value, p in values.items()}
                for item, values in self._popularity.items()
            }

        # Latent state and parameters, filled by init_qualities().
        self.accuracy: dict[SourceKey, float] = {}
        self.quality: dict[ExtractorKey, ExtractorQuality] = {}
        self.p_correct: dict[Coord, float] = {}
        self.posteriors: dict[DataItem, dict[Value, float]] = {}
        self._residual: dict[DataItem, float] = {}
        self._priors: dict[Coord, float] = {}
        self._p_correct_by_source: dict[SourceKey, float] = {}
        self._total_p_correct = 0.0

    # ------------------------------------------------------------------
    # Initialisation
    # ------------------------------------------------------------------
    def init_qualities(
        self,
        initial_source_accuracy: dict[SourceKey, float] | None,
        initial_extractor_quality: dict[ExtractorKey, ExtractorQuality] | None,
    ) -> None:
        cfg = self._cfg
        self.accuracy = {
            source: cfg.default_accuracy
            for source in self._observations.sources()
        }
        if initial_source_accuracy:
            for source, value in initial_source_accuracy.items():
                if source in self.accuracy:
                    self.accuracy[source] = clamp(
                        value, cfg.quality_floor, cfg.quality_ceiling
                    )
        default_p = default_precision(
            cfg.default_recall, cfg.default_q, cfg.gamma
        )
        base_quality = ExtractorQuality(
            precision=default_p, recall=cfg.default_recall, q=cfg.default_q
        )
        self.quality = {
            extractor: base_quality
            for extractor in self._observations.extractors()
        }
        if initial_extractor_quality:
            for extractor, quality in initial_extractor_quality.items():
                if extractor in self.quality:
                    self.quality[extractor] = quality

    # ------------------------------------------------------------------
    # E steps
    # ------------------------------------------------------------------
    def estimate_extraction_correctness(self) -> None:
        """Section 3.3.1: p(C_wdv = 1 | X_wdv) for every scored cell."""
        cfg = self._cfg
        table = VoteTable(
            {e: self.quality[e] for e in self.estimable_extractors}
        )
        # Absence totals are cached once per source per C step; they only
        # change between steps (when extractor qualities move).
        active_absence: dict[SourceKey, float] = {}
        if cfg.absence_scope is AbsenceScope.ACTIVE:
            for source, active in self._active_estimable.items():
                active_absence[source] = table.absence_total_for(active)

        self.p_correct = {}
        self._p_correct_by_source = {}
        self._total_p_correct = 0.0
        for coord, extractions in self.scored.items():
            source = coord[0]
            if cfg.absence_scope is AbsenceScope.ACTIVE:
                absence_total = active_absence[source]
            else:
                absence_total = table.total_absence
            vcc = table.vote_count(extractions, absence_total)
            prior = self._priors.get(coord, cfg.alpha)
            p = extraction_posterior(vcc, prior)
            self.p_correct[coord] = p
            self._p_correct_by_source[source] = (
                self._p_correct_by_source.get(source, 0.0) + p
            )
            self._total_p_correct += p

    def _c_weight(self, coord: Coord) -> float:
        """The V-step weight of one claim: p(C|X) or the MAP indicator."""
        p = self.p_correct[coord]
        if self._cfg.use_weighted_vcv:
            return p
        return 1.0 if p >= 0.5 else 0.0

    def estimate_values(self) -> None:
        """Sections 3.3.2-3.3.3: p(V_d | X) for every covered item."""
        cfg = self._cfg
        log_n = safe_log(float(cfg.n))
        # Each source's value-vote weight (Eq. 19) is constant within one
        # V step; computing the log-odds once per source instead of once
        # per claim is a large win on claim-heavy corpora.
        if self._popularity is None:
            vote_weight = {
                source: log_n + log_odds(self.accuracy[source])
                for source in self.estimable_sources
            }
        else:
            vote_weight = {
                source: log_odds(self.accuracy[source])
                for source in self.estimable_sources
            }
        self.posteriors = {}
        self._residual = {}
        for item, values in self.item_claims.items():
            votes: dict[Value, float] = {}
            for value, coords in values.items():
                vote = 0.0
                if self._log_popularity is None:
                    log_pop = None
                else:
                    log_pop = self._log_popularity[item][value]
                for coord in coords:
                    weight = self._c_weight(coord)
                    if weight == 0.0:
                        continue
                    if log_pop is None:
                        vote += weight * vote_weight[coord[0]]
                    else:
                        vote += weight * (vote_weight[coord[0]] - log_pop)
                votes[value] = vote
            posterior = value_posteriors(votes, cfg.n + 1)
            self.posteriors[item] = posterior
            num_unobserved = max(cfg.n + 1 - len(votes), 0)
            if num_unobserved > 0:
                leftover = max(1.0 - sum(posterior.values()), 0.0)
                self._residual[item] = leftover / num_unobserved
            else:
                self._residual[item] = 0.0

    def _value_probability(self, item: DataItem, value: Value) -> float:
        """p(V_d = v | X), falling back to the unobserved-value mass."""
        values = self.posteriors.get(item)
        if values is not None and value in values:
            return values[value]
        return self._residual.get(item, 0.0)

    # ------------------------------------------------------------------
    # M steps
    # ------------------------------------------------------------------
    def update_source_accuracy(
        self, frozen: set[SourceKey] | None = None
    ) -> float:
        """Section 3.4.1 (Eq. 27 / 28): the KBT update. Returns max delta.

        Both equations sum over {dv : Chat_wdv = 1} — only triples the MAP
        estimate believes the source provides. Eq. 28 additionally weights
        each by p(C|X). Including sub-0.5 coordinates would let dubious
        extractions (mostly extractor noise) swamp the source's accuracy.
        """
        cfg = self._cfg
        max_delta = 0.0
        for source, coords in self.source_claims.items():
            if source not in self.estimable_sources:
                continue
            if frozen is not None and source in frozen:
                continue
            numer = 0.0
            denom = 0.0
            for coord in coords:
                p = self.p_correct[coord]
                if p < 0.5:
                    continue
                weight = p if cfg.use_weighted_vcv else 1.0
                numer += weight * self._value_probability(coord[1], coord[2])
                denom += weight
            if denom <= 0.0:
                continue
            new_accuracy = clamp(
                numer / denom, cfg.quality_floor, cfg.quality_ceiling
            )
            max_delta = max(max_delta, abs(new_accuracy - self.accuracy[source]))
            self.accuracy[source] = new_accuracy
        return max_delta

    def update_extractor_quality(
        self, frozen: set[ExtractorKey] | None = None
    ) -> float:
        """Section 3.4.2 (Eq. 29-33 + Eq. 7). Returns max delta."""
        cfg = self._cfg
        max_delta = 0.0
        active_denominator: dict[ExtractorKey, float] | None = None
        if cfg.absence_scope is AbsenceScope.ACTIVE:
            active_denominator = {}
            for source, p_sum in self._p_correct_by_source.items():
                for extractor in self._active_estimable[source]:
                    active_denominator[extractor] = (
                        active_denominator.get(extractor, 0.0) + p_sum
                    )

        sums: dict[ExtractorKey, tuple[float, float]] = {}
        for coord, extractions in self.scored.items():
            p = self.p_correct[coord]
            for extractor, confidence in extractions.items():
                numer, conf_total = sums.get(extractor, (0.0, 0.0))
                sums[extractor] = (
                    numer + confidence * p,
                    conf_total + confidence,
                )

        for extractor, (numer, conf_total) in sums.items():
            if conf_total <= 0.0:
                continue
            if frozen is not None and extractor in frozen:
                continue
            # Floor P at gamma: via Eq. 7, P < gamma implies Q > R — an
            # "anti-extractor" whose presence would argue *against*
            # provision. That regime is a pathological fixed point (a
            # transiently collapsed C-step drags P down, flipping every
            # vote's sign), not meaningful learning; at P = gamma the
            # extractor's votes are exactly neutral.
            precision = clamp(
                numer / conf_total, max(cfg.quality_floor, cfg.gamma),
                cfg.quality_ceiling,
            )
            if active_denominator is not None:
                recall_denom = active_denominator.get(extractor, 0.0)
            else:
                recall_denom = self._total_p_correct
            if recall_denom <= 0.0:
                continue
            recall = clamp(
                numer / recall_denom, cfg.quality_floor, cfg.quality_ceiling
            )
            old = self.quality[extractor]
            if cfg.quality_damping < 1.0:
                damping = cfg.quality_damping
                precision = (1.0 - damping) * old.precision + (
                    damping * precision
                )
                recall = (1.0 - damping) * old.recall + damping * recall
            q = derive_q(
                precision,
                recall,
                cfg.gamma,
                floor=cfg.quality_floor,
                ceiling=cfg.quality_ceiling,
            )
            max_delta = max(
                max_delta,
                abs(precision - old.precision),
                abs(recall - old.recall),
            )
            self.quality[extractor] = ExtractorQuality(
                precision=precision, recall=recall, q=q
            )
        return max_delta

    # ------------------------------------------------------------------
    # Prior re-estimation
    # ------------------------------------------------------------------
    def update_priors(self) -> None:
        """Section 3.3.4 (Eq. 26): refresh p(C_wdv = 1) for the next pass.

        The prior is clamped into [prior_floor, prior_ceiling]: Eq. 26 has
        no 1/n factor, so without the clamp a source whose accuracy
        saturates drives the prior (and then the posterior) of all its
        claims to 0 or 1 regardless of the extraction evidence.
        """
        cfg = self._cfg
        for coord in self.scored:
            source, item, value = coord
            p_true = self._value_probability(item, value)
            accuracy = self.accuracy[source]
            alpha = p_true * accuracy + (1.0 - p_true) * (1.0 - accuracy)
            self._priors[coord] = clamp(
                alpha, cfg.prior_floor, cfg.prior_ceiling
            )

    def _value_popularity(self) -> dict[DataItem, dict[Value, float]]:
        """Laplace-smoothed empirical value distribution (POPACCU)."""
        popularity: dict[DataItem, dict[Value, float]] = {}
        for item, values in self.item_claims.items():
            total = sum(len(coords) for coords in values.values())
            denom = total + len(values)
            popularity[item] = {
                value: (len(coords) + 1.0) / denom
                for value, coords in values.items()
            }
        return popularity
