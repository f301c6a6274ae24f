"""Unit tests for the multi-layer model (Algorithm 1) and its ablations."""

import pytest

from repro.core.config import (
    AbsenceScope,
    ConvergenceConfig,
    FalseValueModel,
    MultiLayerConfig,
)
from repro.core.multi_layer import MultiLayerModel
from repro.core.observation import ObservationMatrix
from repro.core.quality import ExtractorQuality, default_precision
from repro.core.types import DataItem, ExtractionRecord, ExtractorKey, SourceKey
from repro.datasets.motivating import (
    KENYA,
    USA,
    motivating_example,
    source_key,
)


def fit_example(**config_kwargs):
    ex = motivating_example()
    obs = ObservationMatrix.from_records(ex.records)
    cfg = MultiLayerConfig(**config_kwargs)
    model = MultiLayerModel(cfg)
    return ex, model.fit(obs)


class TestDefaultPrecision:
    def test_inverts_eq7(self):
        # With defaults R=0.8, Q=0.2, gamma=0.25 the implied P is 4/7.
        assert default_precision(0.8, 0.2, 0.25) == pytest.approx(4.0 / 7.0)

    def test_gamma_validated(self):
        with pytest.raises(ValueError):
            default_precision(0.8, 0.2, 0.0)


class TestWorkedExampleEndToEnd:
    def test_usa_wins_despite_equal_vote_counts(self):
        """The motivating claim: 12 (w, e) pairs support each value, but the
        multi-layer model explains Kenya away as extraction noise."""
        ex, result = fit_example()
        p_usa = result.triple_probability(ex.item, USA)
        p_kenya = result.triple_probability(ex.item, KENYA)
        assert p_usa is not None and p_kenya is not None
        assert p_usa > 0.9
        assert p_kenya < 0.1

    def test_w1_not_penalised_for_e5_noise(self):
        """W1 truly provides USA; E5's Kenya extraction is extractor error,
        so W1's accuracy must stay high."""
        ex, result = fit_example()
        assert result.source_accuracy[source_key("W1")] > 0.8

    def test_false_providers_get_low_accuracy(self):
        ex, result = fit_example()
        assert result.source_accuracy[source_key("W5")] < 0.35
        assert result.source_accuracy[source_key("W6")] < 0.35

    def test_extraction_posteriors_separate_errors(self):
        # The fixed-prior regime of Table 4 (the prior update deliberately
        # reinforces C=1 for false values of low-accuracy sources, see the
        # Eq. 26 discussion in DESIGN.md).
        ex, result = fit_example(update_prior=False)
        # Correct extraction of a provided triple.
        assert result.extraction_probability(
            source_key("W1"), ex.item, USA
        ) > 0.9
        # E5's lone wrong extraction from W8.
        assert result.extraction_probability(
            source_key("W8"), ex.item, KENYA
        ) < 0.1

    def test_good_extractors_learn_high_precision(self):
        ex, result = fit_example()
        e1 = result.extractor_quality[ExtractorKey(("E1",))]
        e5 = result.extractor_quality[ExtractorKey(("E5",))]
        assert e1.precision > e5.precision
        assert e1.recall > e5.recall

    def test_history_records_iterations(self):
        _ex, result = fit_example()
        assert 1 <= result.iterations_run <= 5
        assert all(s.iteration == i + 1 for i, s in enumerate(result.history))


class TestAblations:
    """The Table 6 toggles must change behaviour in the expected direction."""

    def test_map_vcv_ignores_uncertainty(self, synthetic_matrix):
        """Eq. 27 (MAP) vs Eq. 28 (weighted) must genuinely differ where
        extraction-correctness posteriors are uncertain."""
        _ex, weighted = fit_example(use_weighted_vcv=True)
        _ex, mapped = fit_example(use_weighted_vcv=False)
        item = motivating_example().item
        # Both still find USA on the (saturated) worked example.
        assert weighted.most_probable_value(item) == USA
        assert mapped.most_probable_value(item) == USA
        # On synthetic data with genuinely uncertain p(C), the variants
        # diverge materially.
        w = MultiLayerModel(MultiLayerConfig(use_weighted_vcv=True)).fit(
            synthetic_matrix
        )
        m = MultiLayerModel(MultiLayerConfig(use_weighted_vcv=False)).fit(
            synthetic_matrix
        )
        max_diff = max(
            abs(w.source_accuracy[s] - m.source_accuracy[s])
            for s in w.source_accuracy
        )
        assert max_diff > 0.01

    def test_prior_update_follows_eq_26(self):
        """After one iteration, the stored prior must equal
        p(V=v|X) * A_w + (1 - p(V=v|X)) * (1 - A_w) (Example 3.3),
        clamped into the configured [prior_floor, prior_ceiling] band."""
        ex, result = fit_example(
            update_prior=True,
            prior_update_start_iteration=2,
            convergence=ConvergenceConfig(max_iterations=1),
        )
        cfg = MultiLayerConfig()
        coord = (source_key("W7"), ex.item, KENYA)
        p_true = result.triple_probability(ex.item, KENYA)
        accuracy = result.source_accuracy[source_key("W7")]
        raw = p_true * accuracy + (1.0 - p_true) * (1.0 - accuracy)
        expected = min(max(raw, cfg.prior_floor), cfg.prior_ceiling)
        assert result.priors[coord] == pytest.approx(expected, abs=1e-9)

    def test_prior_update_disabled_keeps_priors_empty(self):
        _ex, result = fit_example(update_prior=False)
        assert result.priors == {}

    def test_confidence_threshold_binarises(self):
        ex = motivating_example()
        records = [
            ExtractionRecord(
                extractor=r.extractor,
                source=r.source,
                item=r.item,
                value=r.value,
                confidence=0.6,
            )
            for r in ex.records
        ]
        obs = ObservationMatrix.from_records(records)
        soft = MultiLayerModel(MultiLayerConfig()).fit(obs)
        hard = MultiLayerModel(
            MultiLayerConfig(confidence_threshold=0.0)
        ).fit(obs)
        coord = (source_key("W1"), ex.item, USA)
        # Thresholding at 0 turns 0.6-confidence votes into full votes.
        assert hard.extraction_posteriors[coord] > (
            soft.extraction_posteriors[coord]
        )

    def test_popaccu_requires_map_estimator(self):
        with pytest.raises(ValueError):
            MultiLayerModel(
                MultiLayerConfig(false_value_model=FalseValueModel.POPACCU)
            )

    def test_popaccu_with_map_estimator_runs(self):
        _ex, result = fit_example(
            false_value_model=FalseValueModel.POPACCU,
            use_weighted_vcv=False,
        )
        assert result.most_probable_value(motivating_example().item) == USA


class TestAbsenceScope:
    def test_active_scope_changes_posteriors(self):
        ex, all_scope = fit_example(absence_scope=AbsenceScope.ALL)
        ex2, active_scope = fit_example(absence_scope=AbsenceScope.ACTIVE)
        coord = (source_key("W8"), ex.item, KENYA)
        # W8 was only touched by E5; under ACTIVE scope the other extractors'
        # absence no longer testifies against the triple.
        assert active_scope.extraction_posteriors[coord] > (
            all_scope.extraction_posteriors[coord]
        )


class TestSupportFiltering:
    def test_min_extractor_support_drops_lone_extractions(self):
        ex = motivating_example()
        obs = ObservationMatrix.from_records(ex.records)
        result = MultiLayerModel(
            MultiLayerConfig(min_extractor_support=4)
        ).fit(obs)
        # E2 extracted 3 triples and falls below support; coverage shrinks
        # only if some triple was seen exclusively through E2 (none here),
        # but E2 must keep its default quality.
        assert ExtractorKey(("E2",)) not in result.estimable_extractors

    def test_coverage_shrinks_when_sole_witness_excluded(self):
        records = [
            ExtractionRecord(
                extractor=ExtractorKey(("lone",)),
                source=SourceKey(("w1",)),
                item=DataItem("only", "p"),
                value="v",
            )
        ]
        ex = motivating_example()
        obs = ObservationMatrix.from_records(ex.records + records)
        result = MultiLayerModel(
            MultiLayerConfig(min_extractor_support=2)
        ).fit(obs)
        assert result.triple_probability(DataItem("only", "p"), "v") is None
        assert result.coverage < 1.0


class TestInitialisation:
    def test_source_initialisation_respected_with_single_iteration(self):
        ex = motivating_example()
        obs = ObservationMatrix.from_records(ex.records)
        cfg = MultiLayerConfig(
            convergence=ConvergenceConfig(max_iterations=1)
        )
        low = MultiLayerModel(cfg).fit(
            obs, initial_source_accuracy={source_key("W5"): 0.01}
        )
        high = MultiLayerModel(cfg).fit(
            obs, initial_source_accuracy={source_key("W5"): 0.99}
        )
        p_low = low.triple_probability(ex.item, KENYA)
        p_high = high.triple_probability(ex.item, KENYA)
        assert p_low < p_high

    def test_extractor_initialisation_respected(self):
        ex = motivating_example()
        obs = ObservationMatrix.from_records(ex.records)
        cfg = MultiLayerConfig(
            convergence=ConvergenceConfig(max_iterations=1)
        )
        # Tell the model E5 is terrible from the start.
        bad = ExtractorQuality(precision=0.05, recall=0.1, q=0.4)
        result = MultiLayerModel(cfg).fit(
            obs, initial_extractor_quality={ExtractorKey(("E5",)): bad}
        )
        coord = (source_key("W8"), ex.item, KENYA)
        default = MultiLayerModel(cfg).fit(obs)
        assert result.extraction_posteriors[coord] < (
            default.extraction_posteriors[coord]
        )


class TestResultAccessors:
    def test_expected_triples_by_source(self):
        ex, result = fit_example()
        support = result.expected_triples_by_source()
        assert support[source_key("W1")] > support[source_key("W8")]

    def test_covered_triples_match_posteriors(self):
        _ex, result = fit_example()
        covered = result.covered_triples()
        assert all(
            result.triple_probability(item, value) is not None
            for item, value in covered
        )
