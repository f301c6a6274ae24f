"""Gibbs-sampling inference for the multi-layer model (Section 3.2).

The paper notes that exact posterior inference over (C, V, theta) is
intractable and that "a Monte Carlo approximation, such as Gibbs sampling"
is the principled alternative to the EM-like procedure — rejected there
for being slow and Map-Reduce-unfriendly at web scale. This module
implements that alternative so the trade-off can be measured.

The sampler works on the *exact* generative model (no Eq. 26 approximation
and no MAP collapses):

* ``V_d`` — categorical over the item's domain, resampled from
  ``prod_w p(C_wd. | V_d, A_w)`` with Eq. 5 likelihoods;
* ``C_wdv`` — Bernoulli, prior from Eq. 5 given the current ``V_d`` and
  ``A_w`` (including the 1/n factor the EM prior update drops), evidence
  from the extractors' presence/absence votes (Eq. 11);
* ``A_w`` — conjugate Beta update from the source's currently-provided
  true/false claims;
* ``R_e`` / ``Q_e`` — conjugate Beta updates from extraction counts among
  provided (C=1) and unprovided (C=0) coordinates in the extractor's
  scope; ``P_e`` is derived for reporting via Eq. 7.

Posterior means over the kept samples populate a standard
:class:`MultiLayerResult`, so every evaluation utility works unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.config import AbsenceScope, MultiLayerConfig
from repro.core.observation import ObservationMatrix
from repro.core.quality import ExtractorQuality, derive_q
from repro.core.results import Coord, IterationSnapshot, MultiLayerResult
from repro.core.types import DataItem, ExtractorKey, SourceKey, Value
from repro.util.logmath import clamp
from repro.util.rng import derive_rng
from result_reference import result_from_views

#: Sentinel for "some unobserved in-domain value" when sampling V_d.
OTHER = object()


@dataclass(frozen=True, slots=True)
class GibbsConfig:
    """Sampler control.

    ``burn_in`` sweeps are discarded; ``samples`` sweeps are averaged.
    ``accuracy_prior`` / ``recall_prior`` / ``q_prior`` are Beta(a, b)
    pseudo-counts matching the EM defaults (A=0.8, R=0.8, Q=0.2).
    """

    burn_in: int = 30
    samples: int = 70
    seed: int = 0
    accuracy_prior: tuple[float, float] = (4.0, 1.0)
    recall_prior: tuple[float, float] = (4.0, 1.0)
    q_prior: tuple[float, float] = (1.0, 4.0)
    #: multiplier on the unprovided-candidate universe used in the Q_e
    #: update. Only observed coordinates are enumerable, but each item has
    #: n + 1 candidate values, almost all unprovided and unextracted;
    #: counting only observed coordinates would overestimate Q_e by orders
    #: of magnitude and collapse the chain into an "everything is
    #: unprovided" absorbing mode. None uses the model's n.
    q_universe_scale: float | None = None

    def __post_init__(self) -> None:
        if self.burn_in < 0 or self.samples < 1:
            raise ValueError("need burn_in >= 0 and samples >= 1")
        for name in ("accuracy_prior", "recall_prior", "q_prior"):
            a, b = getattr(self, name)
            if a <= 0 or b <= 0:
                raise ValueError(f"{name} must have positive pseudo-counts")
        if self.q_universe_scale is not None and self.q_universe_scale < 1:
            raise ValueError("q_universe_scale must be >= 1")


class GibbsMultiLayer:
    """Gibbs sampler over the multi-layer model's exact joint."""

    def __init__(
        self,
        config: MultiLayerConfig | None = None,
        gibbs: GibbsConfig | None = None,
    ) -> None:
        self._config = config or MultiLayerConfig()
        self._gibbs = gibbs or GibbsConfig()

    def fit(self, observations: ObservationMatrix) -> MultiLayerResult:
        """Run the sampler; returns posterior means as a MultiLayerResult."""
        state = _GibbsState(self._config, self._gibbs, observations)
        total = self._gibbs.burn_in + self._gibbs.samples
        for sweep in range(total):
            state.sweep()
            if sweep >= self._gibbs.burn_in:
                state.accumulate()
        return state.result(observations)


class _GibbsState:
    """Mutable sampler state; one instance per fit."""

    def __init__(
        self,
        cfg: MultiLayerConfig,
        gibbs: GibbsConfig,
        observations: ObservationMatrix,
    ) -> None:
        self._cfg = cfg
        self._gibbs = gibbs
        self._rng = derive_rng(gibbs.seed, "gibbs")

        # Structures mirroring the EM fit state, read off the columns.
        columns = observations.columns()
        sources = list(observations.sources())
        extractors = list(observations.extractors())
        self.coords: list[Coord] = list(columns.coords)
        self.cells: dict[Coord, dict[ExtractorKey, float]] = {
            coord: {} for coord in self.coords
        }
        self.extractor_coords: dict[ExtractorKey, list[Coord]] = {
            extractor: [] for extractor in extractors
        }
        for cell, extractor, confidence in zip(
            columns.entry_cell.tolist(),
            map(extractors.__getitem__, columns.entry_extractor.tolist()),
            columns.entry_conf.tolist(),
        ):
            coord = self.coords[cell]
            self.cells[coord][extractor] = confidence
            self.extractor_coords[extractor].append(coord)
        # Each source's active extractors: those with a cell here.
        self.active: dict[SourceKey, set[ExtractorKey]] = {}
        source_ids, extractor_ids = observations.active_pairs()
        for source, extractor in zip(
            source_ids.tolist(), extractor_ids.tolist()
        ):
            self.active.setdefault(sources[source], set()).add(
                extractors[extractor]
            )
        self.item_coords: dict[DataItem, list[Coord]] = {}
        self.source_coords: dict[SourceKey, list[Coord]] = {}
        for coord in self.coords:
            source, item, _value = coord
            self.item_coords.setdefault(item, []).append(coord)
            self.source_coords.setdefault(source, []).append(coord)

        # Latent state: C assignments (all provided) and V assignments
        # (initialised to the majority observed value, a warm start that
        # keeps the chain out of the degenerate all-unprovided mode).
        self.c: dict[Coord, int] = {coord: 1 for coord in self.coords}
        self.v: dict[DataItem, Value] = {}
        for item, coords in self.item_coords.items():
            counts: dict[Value, int] = {}
            for coord in coords:
                counts[coord[2]] = counts.get(coord[2], 0) + 1
            self.v[item] = max(counts, key=counts.get)

        # Parameters.
        self.accuracy: dict[SourceKey, float] = {
            source: cfg.default_accuracy for source in self.source_coords
        }
        self.recall: dict[ExtractorKey, float] = {}
        self.q: dict[ExtractorKey, float] = {}
        for extractor in observations.extractors():
            self.recall[extractor] = cfg.default_recall
            self.q[extractor] = cfg.default_q

        # Per-extractor scope size for absence counts: the number of
        # coordinates the extractor could have extracted.
        self._scope_size: dict[ExtractorKey, int] = {}
        if cfg.absence_scope is AbsenceScope.ACTIVE:
            per_source = {
                source: len(coords)
                for source, coords in self.source_coords.items()
            }
            for source, count in per_source.items():
                for extractor in self.active[source]:
                    self._scope_size[extractor] = (
                        self._scope_size.get(extractor, 0) + count
                    )
        else:
            for extractor in observations.extractors():
                self._scope_size[extractor] = len(self.coords)

        # Accumulators for posterior means.
        self._c_sum: dict[Coord, float] = {c: 0.0 for c in self.coords}
        self._v_counts: dict[DataItem, dict[Value, int]] = {
            item: {} for item in self.item_coords
        }
        self._a_sum: dict[SourceKey, float] = {
            source: 0.0 for source in self.source_coords
        }
        self._r_sum: dict[ExtractorKey, float] = dict.fromkeys(self.recall, 0.0)
        self._q_sum: dict[ExtractorKey, float] = dict.fromkeys(self.q, 0.0)
        self._num_samples = 0

    # ------------------------------------------------------------------
    # One sweep
    # ------------------------------------------------------------------
    def sweep(self) -> None:
        self._sample_c()
        self._sample_v()
        self._sample_accuracy()
        self._sample_extractor_quality()

    def _provide_prior(self, coord: Coord) -> float:
        """p(C_wdv = 1 | V_d, A_w) from Eq. 5 (with the 1/n factor)."""
        source, item, value = coord
        accuracy = self.accuracy[source]
        if self.v[item] == value:
            return accuracy
        return (1.0 - accuracy) / self._cfg.n

    def _sample_c(self) -> None:
        rng = self._rng
        for coord in self.coords:
            prior = clamp(self._provide_prior(coord), 1e-9, 1.0 - 1e-9)
            log_odds = math.log(prior) - math.log(1.0 - prior)
            source = coord[0]
            cell = self.cells[coord]
            if self._cfg.absence_scope is AbsenceScope.ACTIVE:
                scope = self.active[source]
            else:
                scope = self.recall.keys()
            for extractor in scope:
                recall = self.recall[extractor]
                q = self.q[extractor]
                confidence = cell.get(extractor, 0.0)
                if confidence > 0.0:
                    log_odds += confidence * (
                        math.log(recall) - math.log(q)
                    )
                    log_odds += (1.0 - confidence) * (
                        math.log(1.0 - recall) - math.log(1.0 - q)
                    )
                else:
                    log_odds += math.log(1.0 - recall) - math.log(1.0 - q)
            p = 1.0 / (1.0 + math.exp(-clamp(log_odds, -500.0, 500.0)))
            self.c[coord] = 1 if rng.random() < p else 0

    def _sample_v(self) -> None:
        rng = self._rng
        n = self._cfg.n
        for item, coords in self.item_coords.items():
            observed_values = sorted(
                {coord[2] for coord in coords}, key=repr
            )
            candidates: list = list(observed_values)
            num_other = max(n + 1 - len(observed_values), 0)
            if num_other > 0:
                candidates.append(OTHER)
            log_weights = []
            for candidate in candidates:
                log_weight = (
                    math.log(num_other) if candidate is OTHER else 0.0
                )
                for coord in coords:
                    source, _item, value = coord
                    accuracy = clamp(self.accuracy[source], 1e-6, 1 - 1e-6)
                    if candidate is not OTHER and value == candidate:
                        p1 = accuracy
                    else:
                        p1 = (1.0 - accuracy) / n
                    p1 = clamp(p1, 1e-9, 1.0 - 1e-9)
                    if self.c[coord] == 1:
                        log_weight += math.log(p1)
                    else:
                        log_weight += math.log(1.0 - p1)
                log_weights.append(log_weight)
            peak = max(log_weights)
            weights = [math.exp(w - peak) for w in log_weights]
            total = sum(weights)
            draw = rng.random() * total
            acc = 0.0
            chosen = candidates[-1]
            for candidate, weight in zip(candidates, weights):
                acc += weight
                if acc >= draw:
                    chosen = candidate
                    break
            if chosen is OTHER:
                # An unobserved domain value: represent it with a token that
                # matches no observed claim.
                self.v[item] = ("__other__", item)
            else:
                self.v[item] = chosen

    def _sample_accuracy(self) -> None:
        rng = self._rng
        a0, b0 = self._gibbs.accuracy_prior
        for source, coords in self.source_coords.items():
            true_count = 0
            false_count = 0
            for coord in coords:
                if self.c[coord] != 1:
                    continue
                if self.v[coord[1]] == coord[2]:
                    true_count += 1
                else:
                    false_count += 1
            self.accuracy[source] = clamp(
                rng.betavariate(a0 + true_count, b0 + false_count),
                self._cfg.quality_floor,
                self._cfg.quality_ceiling,
            )

    def _sample_extractor_quality(self) -> None:
        rng = self._rng
        r_a, r_b = self._gibbs.recall_prior
        q_a, q_b = self._gibbs.q_prior
        provided_total = sum(self.c.values())
        provided_by_source = {}
        for coord, value in self.c.items():
            if value == 1:
                provided_by_source[coord[0]] = (
                    provided_by_source.get(coord[0], 0) + 1
                )
        for extractor in self.recall:
            extracted_provided = 0
            extracted_unprovided = 0
            for coord in self.extractor_coords[extractor]:
                if self.c.get(coord, 0) == 1:
                    extracted_provided += 1
                else:
                    extracted_unprovided += 1
            if self._cfg.absence_scope is AbsenceScope.ACTIVE:
                provided_in_scope = 0
                scope_size = self._scope_size.get(extractor, 0)
                # Sum provided coords over the extractor's active sources.
                for source, count in provided_by_source.items():
                    if extractor in self.active[source]:
                        provided_in_scope += count
            else:
                provided_in_scope = provided_total
                scope_size = self._scope_size[extractor]
            missed_provided = max(provided_in_scope - extracted_provided, 0)
            universe_scale = (
                self._gibbs.q_universe_scale
                if self._gibbs.q_universe_scale is not None
                else float(self._cfg.n)
            )
            unprovided_in_scope = max(
                scope_size * universe_scale - provided_in_scope, 0.0
            )
            missed_unprovided = max(
                unprovided_in_scope - extracted_unprovided, 0.0
            )
            self.recall[extractor] = clamp(
                rng.betavariate(
                    r_a + extracted_provided, r_b + missed_provided
                ),
                self._cfg.quality_floor,
                self._cfg.quality_ceiling,
            )
            self.q[extractor] = clamp(
                rng.betavariate(
                    q_a + extracted_unprovided, q_b + missed_unprovided
                ),
                self._cfg.quality_floor,
                self._cfg.quality_ceiling,
            )

    # ------------------------------------------------------------------
    # Posterior accumulation
    # ------------------------------------------------------------------
    def accumulate(self) -> None:
        self._num_samples += 1
        for coord, value in self.c.items():
            self._c_sum[coord] += value
        for item, value in self.v.items():
            counts = self._v_counts[item]
            counts[value] = counts.get(value, 0) + 1
        for source, accuracy in self.accuracy.items():
            self._a_sum[source] += accuracy
        for extractor in self.recall:
            self._r_sum[extractor] += self.recall[extractor]
            self._q_sum[extractor] += self.q[extractor]

    def result(self, observations: ObservationMatrix) -> MultiLayerResult:
        n_samples = max(self._num_samples, 1)
        extraction_posteriors = {
            coord: total / n_samples for coord, total in self._c_sum.items()
        }
        value_posteriors: dict[DataItem, dict[Value, float]] = {}
        for item, counts in self._v_counts.items():
            observed = {
                coord[2] for coord in self.item_coords[item]
            }
            value_posteriors[item] = {
                value: counts.get(value, 0) / n_samples
                for value in observed
            }
        source_accuracy = {
            source: total / n_samples for source, total in self._a_sum.items()
        }
        quality = {}
        for extractor in self._r_sum:
            recall = self._r_sum[extractor] / n_samples
            q = self._q_sum[extractor] / n_samples
            # Invert Eq. 7 for the implied precision (reporting only).
            gamma = self._cfg.gamma
            ratio = q * (1.0 - gamma) / (gamma * max(recall, 1e-9))
            precision = clamp(1.0 / (1.0 + ratio), 1e-4, 1 - 1e-4)
            quality[extractor] = ExtractorQuality(
                precision=precision,
                recall=clamp(recall, 1e-4, 1 - 1e-4),
                q=clamp(
                    derive_q(precision, recall, gamma), 1e-4, 1 - 1e-4
                ),
            )
        return result_from_views(
            value_posteriors=value_posteriors,
            extraction_posteriors=extraction_posteriors,
            source_accuracy=source_accuracy,
            extractor_quality=quality,
            estimable_sources=set(self.source_coords),
            estimable_extractors=set(self._r_sum),
            num_triples_total=observations.num_triples,
            history=[
                IterationSnapshot(self._num_samples, 0.0, 0.0)
            ],
        )
