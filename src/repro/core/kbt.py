"""Knowledge-Based Trust estimation: the end-to-end public facade.

``KBTEstimator`` wires the full pipeline of the paper together: optional
SPLITANDMERGE granularity selection (Section 4), the multi-layer model
(Section 3), and the reporting rule of Section 5.4 (a source receives a KBT
score only when the model believes at least ``min_triples`` triples were
correctly extracted from it). Scores aggregate bottom-up from model sources
to webpages and websites.

The public API follows a fit -> persist -> query lifecycle:

* :meth:`KBTEstimator.fit` runs the pipeline once and returns a
  :class:`FittedKBT` handle that keeps the fitted model *and* the
  observation matrix it was fitted on;
* ``FittedKBT.save`` persists the fit as a versioned on-disk artifact
  (:mod:`repro.io.artifact`) that ``FittedKBT.load`` or a serving
  ``TrustStore`` (:mod:`repro.serving`) can reopen;
* ``FittedKBT.update`` folds new extraction records in *incrementally*:
  extractor qualities are frozen at their converged values and only the
  source/value layers re-run, restricted to the data items the new records
  touch, so a new website gets a score in a couple of EM sweeps instead of
  a full refit.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.config import GranularityConfig, MultiLayerConfig
from repro.core.granularity import SplitAndMerge
from repro.core.multi_layer import MultiLayerModel
from repro.core.observation import ObservationMatrix
from repro.core.quality import ExtractorQuality
from repro.core.results import MultiLayerResult
from repro.core.types import ExtractionRecord, ExtractorKey, SourceKey


@dataclass(frozen=True, slots=True)
class KBTScore:
    """A trustworthiness estimate for one source aggregate.

    ``score`` is the accuracy A (probability a provided fact is correct);
    ``support`` is the expected number of correctly extracted triples that
    the estimate rests on.
    """

    key: object
    score: float
    support: float


class KBTReport:
    """KBT scores at several aggregation levels plus the fitted model."""

    def __init__(
        self,
        result: MultiLayerResult,
        min_triples: float,
    ) -> None:
        if min_triples < 0:
            raise ValueError(
                f"min_triples must be >= 0, got {min_triples}"
            )
        self.result = result
        self.min_triples = min_triples
        self._support = result.expected_triples_by_source()

    @property
    def source_support(self) -> dict[SourceKey, float]:
        """Expected correctly-extracted triples per model source."""
        return self._support

    def source_scores(self) -> dict[SourceKey, KBTScore]:
        """KBT per model source (whatever granularity the model ran at)."""
        scores = {}
        for source, accuracy in self.result.source_accuracy.items():
            support = self._support.get(source, 0.0)
            if support < self.min_triples:
                continue
            scores[source] = KBTScore(source, accuracy, support)
        return scores

    def _aggregate(self, group_of) -> dict[object, KBTScore]:
        return aggregate_scores(
            self.result.source_accuracy,
            self._support,
            self.min_triples,
            group_of,
        )

    def webpage_scores(self) -> dict[tuple[str, str], KBTScore]:
        """KBT per (website, webpage), from sources carrying a webpage."""
        return self._aggregate(webpage_of)

    def website_scores(self) -> dict[str, KBTScore]:
        """KBT per website (the Figure 7 / Figure 10 unit)."""
        return self._aggregate(website_of)


def website_of(source: SourceKey) -> str:
    """The website a model source aggregates into."""
    return source.website


def webpage_of(source: SourceKey) -> tuple[str, str] | None:
    """The (website, webpage) of a source that carries one, else None."""
    if source.level >= 3:
        return (source.features[0], source.features[2])
    return None


def aggregate_scores(
    source_accuracy: dict[SourceKey, float],
    source_support: dict[SourceKey, float],
    min_triples: float,
    group_of,
) -> dict[object, KBTScore]:
    """Support-weighted average of source accuracies per group.

    The one aggregation behind :class:`KBTReport` and the serving
    columns (:func:`repro.io.mmap_layout.serving_columns`): sources
    ``group_of`` maps to None, or with no support, contribute nothing,
    and a group is reported only when its support reaches
    ``min_triples`` (Section 5.4). Groups keep first-seen order.
    """
    numer: dict[object, float] = {}
    denom: dict[object, float] = {}
    for source, accuracy in source_accuracy.items():
        group = group_of(source)
        if group is None:
            continue
        support = source_support.get(source, 0.0)
        if support <= 0.0:
            continue
        numer[group] = numer.get(group, 0.0) + support * accuracy
        denom[group] = denom.get(group, 0.0) + support
    scores = {}
    for group, weight in denom.items():
        if weight < min_triples:
            continue
        scores[group] = KBTScore(group, numer[group] / weight, weight)
    return scores


class FittedKBT:
    """A fitted KBT model: queryable, persistable, incrementally updatable.

    Returned by :meth:`KBTEstimator.fit`; holds the fitted
    :class:`MultiLayerResult` together with the (post-granularity)
    observation matrix, the configuration, and the reporting threshold.
    Instances are immutable — :meth:`update` returns a new handle.

    ``config`` is the model alone
    (:meth:`~repro.core.config.MultiLayerConfig.without_execution`):
    where a fit ran is an argument of ``fit`` / :meth:`update`, never
    state of the fitted model, so saved artifacts are identical
    wherever they were fitted.
    """

    def __init__(
        self,
        result: MultiLayerResult,
        observations: ObservationMatrix | None,
        config: MultiLayerConfig,
        min_triples: float = 5.0,
        granularity: GranularityConfig | None = None,
        seed: int = 0,
    ) -> None:
        if min_triples < 0:
            raise ValueError(f"min_triples must be >= 0, got {min_triples}")
        self.result = result
        self.observations = observations
        self.config = config.without_execution()
        self.min_triples = min_triples
        self.granularity = granularity
        self.seed = seed
        self._report: KBTReport | None = None

    @property
    def report(self) -> KBTReport:
        """The score report of this fit (built once, then cached)."""
        if self._report is None:
            self._report = KBTReport(self.result, self.min_triples)
        return self._report

    def website_scores(self) -> dict[str, KBTScore]:
        return self.report.website_scores()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(
        self,
        path: str | Path,
        include_observations: bool = True,
        metadata: dict | None = None,
        signals: dict | None = None,
        fusion_weights: dict[str, float] | None = None,
    ) -> Path:
        """Persist as a versioned artifact (see :mod:`repro.io.artifact`).

        ``include_observations=False`` writes a serving-only artifact
        (smaller, but it cannot warm-start :meth:`update` after reload).
        ``signals`` embeds named trust-signal payloads
        (:class:`~repro.signals.base.SignalScores`, e.g. from a
        :class:`~repro.signals.suite.SignalSuite` run) alongside the KBT
        scores, and ``fusion_weights`` the calibrated per-signal fusion
        weights, so a serving ``TrustStore`` can answer per-signal and
        fused queries without refitting anything.
        """
        from repro.io.artifact import TrustArtifact, save_artifact

        artifact = TrustArtifact(
            result=self.result,
            config=self.config,
            min_triples=self.min_triples,
            granularity=self.granularity,
            seed=self.seed,
            observations=self.observations if include_observations else None,
            metadata=metadata or {},
            signals=signals or {},
            fusion_weights=fusion_weights or {},
        )
        return save_artifact(artifact, path)

    @classmethod
    def load(cls, path: str | Path) -> "FittedKBT":
        """Reopen a fit persisted with :meth:`save`."""
        from repro.io.artifact import load_artifact

        return cls.from_artifact(load_artifact(path))

    @classmethod
    def from_artifact(cls, artifact) -> "FittedKBT":
        """The fitted-model handle of an already-loaded ``TrustArtifact``.

        Embedded trust signals are not carried: the handle models the KBT
        fit alone, and after an :meth:`update` any signals fitted on the
        old corpus would be stale anyway — refresh them with a new
        :class:`~repro.signals.suite.SignalSuite` run.
        """
        return cls(
            result=artifact.result,
            observations=artifact.observations,
            config=artifact.config,
            min_triples=artifact.min_triples,
            granularity=artifact.granularity,
            seed=artifact.seed,
        )

    # ------------------------------------------------------------------
    # Warm-start incremental scoring
    # ------------------------------------------------------------------
    def update(
        self,
        new_records: Iterable[ExtractionRecord],
        sweeps: int = 2,
        precision: str | None = None,
        **execution,
    ) -> "FittedKBT":
        """Fold new extraction records in without a full refit.

        ``execution`` takes the names in
        :data:`~repro.core.config.EXECUTION_FIELDS` and says where this
        update runs (see :class:`~repro.core.config.MultiLayerConfig`);
        nothing is inherited from the fit that produced this model, and
        the default is in-process on one serial shard — the delta
        sub-problem is small by construction. Results are placement-
        invariant; only ``precision="float32"`` changes the arithmetic
        of this update, within the documented envelope.

        Converged extractor qualities are frozen at their fitted values
        and the source/value layers re-run for ``sweeps`` EM iterations on
        the *delta sub-problem*: the new records plus every existing claim
        on the data items they touch (so the truth of those items is
        decided by the full evidence). Extractor columns first seen in the
        delta — e.g. the per-website columns a brand-new website
        introduces — start from a hierarchy back-off estimate and adapt
        during the sweeps, since their cells all live in the delta anyway.
        Existing sources keep their converged accuracy; sources first seen
        in ``new_records`` get a freshly estimated one.

        New records enter at their native granularity: when the original
        fit used SPLITANDMERGE, the incremental pass does not re-plan.
        """
        if sweeps < 1:
            raise ValueError(f"sweeps must be >= 1, got {sweeps}")
        placed = self.config.with_execution(precision=precision, **execution)
        if self.observations is None:
            raise ValueError(
                "this fit carries no observation matrix (saved with "
                "include_observations=False?); a warm-start update needs "
                "the original extraction cells"
            )
        new_obs = ObservationMatrix.from_records(new_records)
        if new_obs.num_records == 0:
            return self

        touched = set(new_obs.items())
        delta_obs = self.observations.restricted_to_items(touched).extended(
            new_obs
        )
        delta_config = replace(
            placed,
            convergence=replace(placed.convergence, max_iterations=sweeps),
        )
        delta_result = MultiLayerModel(delta_config).fit(
            delta_obs,
            initial_source_accuracy=self.result.source_accuracy,
            initial_extractor_quality=self._warm_extractor_quality(delta_obs),
            frozen_extractors=set(self.result.extractor_quality),
            frozen_sources=set(self.result.source_accuracy),
        )
        combined_obs = self.observations.extended(new_obs)
        return FittedKBT(
            result=self._merge_delta(delta_result, combined_obs),
            observations=combined_obs,
            config=self.config,
            min_triples=self.min_triples,
            granularity=self.granularity,
            seed=self.seed,
        )

    def _warm_extractor_quality(
        self, delta_obs: ObservationMatrix
    ) -> dict[ExtractorKey, ExtractorQuality]:
        """Converged qualities, plus hierarchy back-off for unseen keys.

        Extractor keys carry the website as their finest feature, so a new
        website introduces brand-new extractor keys the fit has never
        scored. Freezing those at the config default would ignore
        everything learned about the same (system, pattern, predicate) on
        other websites, so an unseen key inherits the support-weighted
        average (P, R) of the fitted keys sharing its longest feature
        prefix (Q re-derived via Eq. 7) — the quality hierarchy of
        Section 4 used as a back-off.
        """
        known = self.result.extractor_quality
        unseen = [
            extractor
            for extractor in delta_obs.extractors()
            if extractor not in known
        ]
        if not unseen:
            return known

        cfg = self.config
        sizes = self.observations.extractor_sizes()
        warm = dict(known)
        # Longest prefix first, one pass over the fitted keys per level;
        # in practice everything resolves at the first useful level (the
        # website-less prefix), so this stays one linear scan.
        unresolved = unseen
        max_level = max(len(e.features) for e in unseen)
        for level in range(max_level, 0, -1):
            needed = {
                e.features[:level]
                for e in unresolved
                if len(e.features) >= level
            }
            if not needed:
                continue
            prefix_sums: dict[tuple, list[float]] = {}
            for extractor, quality in known.items():
                if len(extractor.features) < level:
                    continue
                prefix = extractor.features[:level]
                if prefix not in needed:
                    continue
                weight = float(sizes.get(extractor) or 1)
                sums = prefix_sums.setdefault(prefix, [0.0, 0.0, 0.0])
                sums[0] += weight * quality.precision
                sums[1] += weight * quality.recall
                sums[2] += weight
            still_unresolved = []
            for extractor in unresolved:
                features = extractor.features
                sums = (
                    prefix_sums.get(features[:level])
                    if len(features) >= level
                    else None
                )
                if sums is None:
                    still_unresolved.append(extractor)
                    continue
                warm[extractor] = ExtractorQuality.from_precision_recall(
                    precision=sums[0] / sums[2],
                    recall=sums[1] / sums[2],
                    gamma=cfg.gamma,
                    floor=cfg.quality_floor,
                    ceiling=cfg.quality_ceiling,
                )
            unresolved = still_unresolved
            if not unresolved:
                break
        # Keys with no shared prefix at all fall back to the engine default.
        return warm

    def _merge_delta(
        self,
        delta: MultiLayerResult,
        combined_obs: ObservationMatrix,
    ) -> MultiLayerResult:
        """Merge a delta re-fit into the converged result.

        Existing estimates win on overlap (the full fit saw strictly more
        evidence for them); the delta contributes estimates for keys and
        coordinates it introduced, plus refreshed value posteriors for the
        touched items.
        """
        old = self.result
        value_posteriors = dict(old.value_posteriors)
        value_posteriors.update(delta.value_posteriors)
        extraction_posteriors = dict(old.extraction_posteriors)
        for coord, p in delta.extraction_posteriors.items():
            extraction_posteriors.setdefault(coord, p)
        source_accuracy = dict(old.source_accuracy)
        for source, accuracy in delta.source_accuracy.items():
            source_accuracy.setdefault(source, accuracy)
        extractor_quality = dict(old.extractor_quality)
        for extractor, quality in delta.extractor_quality.items():
            extractor_quality.setdefault(extractor, quality)
        priors = dict(old.priors)
        for coord, prior in delta.priors.items():
            priors.setdefault(coord, prior)
        return MultiLayerResult(
            value_posteriors=value_posteriors,
            extraction_posteriors=extraction_posteriors,
            source_accuracy=source_accuracy,
            extractor_quality=extractor_quality,
            estimable_sources=(
                old.estimable_sources | delta.estimable_sources
            ),
            estimable_extractors=(
                old.estimable_extractors | delta.estimable_extractors
            ),
            num_triples_total=combined_obs.num_triples,
            history=old.history + delta.history,
            priors=priors,
        )


class KBTEstimator:
    """The public entry point: records in, a fitted KBT model out.

    Args:
        config: multi-layer model configuration (paper defaults if omitted).
        granularity: when given, SPLITANDMERGE runs on both the source and
            the extractor hierarchies before inference (MULTILAYERSM).
        min_triples: reporting threshold — the paper publishes KBT only for
            sources with at least 5 correctly-extracted triples.
        seed: seed for the (random) uniform splitting of oversized keys.
        engine: when given, overrides ``config.engine`` (a name from
            :data:`repro.core.config.ENGINES`) without the caller
            having to rebuild the config.
        precision: when given, overrides ``config.precision``.
        **execution: where and how the fit runs — the names in
            :data:`~repro.core.config.EXECUTION_FIELDS`, each overriding
            the config field of the same name (described once, in
            :class:`~repro.core.config.MultiLayerConfig`). They run on
            the numpy engine (the default), as does
            ``precision="float32"``; results are bit-identical across
            all of them.
    """

    def __init__(
        self,
        config: MultiLayerConfig | None = None,
        granularity: GranularityConfig | None = None,
        min_triples: float = 5.0,
        seed: int = 0,
        engine: str | None = None,
        precision: str | None = None,
        **execution,
    ) -> None:
        if min_triples < 0:
            raise ValueError(f"min_triples must be >= 0, got {min_triples}")
        self._config = (config or MultiLayerConfig()).with_execution(
            engine=engine, precision=precision, **execution
        )
        self._granularity = granularity
        self._min_triples = min_triples
        self._seed = seed

    def fit(
        self,
        data: ObservationMatrix | Iterable[ExtractionRecord],
        initial_source_accuracy: dict[SourceKey, float] | None = None,
        initial_extractor_quality: dict[ExtractorKey, ExtractorQuality]
        | None = None,
    ) -> FittedKBT:
        """Run the full KBT pipeline and return a fitted model handle.

        When granularity selection is enabled and smart initialisation is
        provided, initial accuracies transfer to relabelled keys by applying
        the same plan to the initialisation mapping (unsplit keys only).
        """
        if isinstance(data, ObservationMatrix):
            observations = data
        else:
            observations = ObservationMatrix.from_records(data)

        if self._granularity is not None:
            splitter = SplitAndMerge(self._granularity, seed=self._seed)
            source_plan = splitter.plan_sources(observations)
            extractor_plan = splitter.plan_extractors(observations)
            observations = observations.relabel(
                source_map=source_plan, extractor_map=extractor_plan
            )
            if initial_source_accuracy:
                initial_source_accuracy = _transfer_initialisation(
                    initial_source_accuracy, observations.sources()
                )
            if initial_extractor_quality:
                initial_extractor_quality = _transfer_initialisation(
                    initial_extractor_quality, observations.extractors()
                )

        model = MultiLayerModel(self._config)
        result = model.fit(
            observations,
            initial_source_accuracy=initial_source_accuracy,
            initial_extractor_quality=initial_extractor_quality,
        )
        return FittedKBT(
            result=result,
            observations=observations,
            config=self._config,
            min_triples=self._min_triples,
            granularity=self._granularity,
            seed=self._seed,
        )


def _transfer_initialisation(initial: dict, final_keys: Iterable) -> dict:
    """Carry initial qualities over to post-SPLITANDMERGE keys.

    A final key inherits the initial value of the closest original key on
    its ancestry path: its unsplit self, else its parent chain. Merged
    parents inherit only if they were initialised directly.
    """
    transferred = {}
    for key in final_keys:
        probe = key
        while probe is not None:
            if probe in initial:
                transferred[key] = initial[probe]
                break
            probe = probe.parent()
    return transferred
