"""The dict-walking copy of Algorithm 1, kept as the parity oracle of
``tests/test_engine_parity.py``, ladder entry 1 and
``tests/test_incremental.py``.

``fit_python`` and ``_FitState`` are the former ``engine="python"`` of
``repro.core.multi_layer``, and ``VoteTable`` / ``extraction_posterior``
the scalar C-step algebra it read from ``repro.core.votes``, copied
verbatim: one dict per scored cell, one loop per equation. The library's
array engine (``MultiLayerModel.fit``) must match them to <= 1e-9.
``fit_python`` takes the arguments ``MultiLayerModel.fit`` passes to
``fit_numpy``, and walks the matrix's dict views through
``tests/matrix_reference.reference_of``.
"""

from __future__ import annotations

from collections.abc import Mapping

from matrix_reference import reference_of
from repro.core.config import AbsenceScope, FalseValueModel, MultiLayerConfig
from repro.core.engine_numpy import fit_numpy
from repro.core.observation import ObservationMatrix
from repro.core.quality import ExtractorQuality, default_precision, derive_q
from repro.core.results import Coord, IterationSnapshot, MultiLayerResult
from repro.core.types import DataItem, ExtractorKey, SourceKey, Value
from repro.core.votes import value_posteriors
from repro.util.logmath import clamp, log_odds, safe_log, sigmoid
from result_reference import result_from_views


class VoteTable:
    """Per-extractor presence/absence votes with cached absence totals."""

    def __init__(self, qualities: Mapping[ExtractorKey, ExtractorQuality]) -> None:
        self._presence: dict[ExtractorKey, float] = {}
        self._absence: dict[ExtractorKey, float] = {}
        for extractor, quality in qualities.items():
            self._presence[extractor] = quality.presence_vote
            self._absence[extractor] = quality.absence_vote
        self._total_absence = sum(self._absence.values())

    def presence(self, extractor: ExtractorKey) -> float:
        """Pre_e, the vote cast by an observed extraction (Eq. 12)."""
        return self._presence[extractor]

    def absence(self, extractor: ExtractorKey) -> float:
        """Abs_e, the vote cast by a missing extraction (Eq. 13)."""
        return self._absence[extractor]

    @property
    def total_absence(self) -> float:
        """Sum of absence votes over every extractor in the table."""
        return self._total_absence

    def absence_total_for(self, extractors: set[ExtractorKey]) -> float:
        """Sum of absence votes over a subset (the ACTIVE scope universe)."""
        return sum(self._absence[e] for e in extractors if e in self._absence)

    def vote_count(
        self,
        extractions: Mapping[ExtractorKey, float],
        absence_total: float | None = None,
    ) -> float:
        """Confidence-weighted vote count VCC' (Eq. 31; Eq. 14 when binary).

        Args:
            extractions: {extractor: confidence in (0, 1]} for one (w, d, v).
            absence_total: the absence-vote sum over the extractor universe
                in scope; defaults to the full table's total.

        Extractors appearing in ``extractions`` have their absence vote
        swapped for ``conf * Pre + (1 - conf) * Abs``.
        """
        if absence_total is None:
            absence_total = self._total_absence
        vcc = absence_total
        for extractor, confidence in extractions.items():
            presence = self._presence.get(extractor)
            if presence is None:
                continue
            absence = self._absence[extractor]
            vcc += confidence * (presence - absence)
        return vcc


def extraction_posterior(vote_count: float, prior: float) -> float:
    """p(C_wdv = 1 | X_wdv) = sigma(VCC + log(alpha / (1 - alpha))) (Eq. 15)."""
    return sigmoid(vote_count + log_odds(prior))


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
    observations = reference_of(observations)
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

    return result_from_views(
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


#: Engine name -> fit function: the oracle and the library's array engine.
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

        Measured (on the array engine, whose ``_claim_weights`` is this
        cut): weighting every claim by p(C|X) with no cut fails five
        recovery bounds of ``tests/test_integration.py`` on the Section
        5.2 corpus — SqA 0.221 against 0.08 (and the single layer's
        0.118), SqC 0.543 against 0.2, SqV 0.0219 against the single
        layer's 0.0103 + 0.01, and ``test_sqa_stable_for_multi_layer``
        0.438 against 0.222 + 0.05 — and still reaches no fixed point on
        the smoke KV corpus: one two-claim source slides from accuracy
        0.605 to 0.334 between iterations 2 000 and 12 000. So the cut
        stays, and a fit is defined by its iteration count
        (``ConvergenceConfig``).
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
