"""Unit tests for the Gibbs-sampling reference engine
(``tests/gibbs_reference.py``)."""

import pytest

from repro.core.config import (
    AbsenceScope,
    ConvergenceConfig,
    MultiLayerConfig,
)
from repro.core.multi_layer import MultiLayerModel
from repro.core.observation import ObservationMatrix
from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    SourceKey,
)
from repro.datasets.motivating import (
    KENYA,
    USA,
    motivating_example,
    source_key,
)
from repro.datasets.synthetic import SyntheticConfig, generate
from repro.eval.metrics import sq_accuracy_loss

from gibbs_reference import GibbsConfig, GibbsMultiLayer


class TestGibbsConfig:
    def test_defaults(self):
        cfg = GibbsConfig()
        assert cfg.burn_in >= 0
        assert cfg.samples >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            GibbsConfig(burn_in=-1)
        with pytest.raises(ValueError):
            GibbsConfig(samples=0)
        with pytest.raises(ValueError):
            GibbsConfig(accuracy_prior=(0.0, 1.0))


class TestOnMotivatingExample:
    @pytest.fixture(scope="class")
    def fitted(self):
        ex = motivating_example()
        obs = ObservationMatrix.from_records(ex.records)
        sampler = GibbsMultiLayer(
            MultiLayerConfig(), GibbsConfig(seed=5, burn_in=20, samples=60)
        )
        return ex, sampler.fit(obs)

    def test_finds_the_true_value(self, fitted):
        ex, result = fitted
        assert result.triple_probability(ex.item, USA) > 0.9
        assert result.triple_probability(ex.item, KENYA) < 0.1

    def test_posteriors_are_probabilities(self, fitted):
        _ex, result = fitted
        for p in result.extraction_posteriors.values():
            assert 0.0 <= p <= 1.0
        for values in result.value_posteriors.values():
            assert all(0.0 <= p <= 1.0 for p in values.values())
            assert sum(values.values()) <= 1.0 + 1e-9
        for a in result.source_accuracy.values():
            assert 0.0 < a < 1.0

    def test_correct_extractions_scored_high(self, fitted):
        ex, result = fitted
        assert result.extraction_probability(
            source_key("W1"), ex.item, USA
        ) > 0.8

    def test_lone_noise_extraction_scored_low(self, fitted):
        ex, result = fitted
        assert result.extraction_probability(
            source_key("W8"), ex.item, KENYA
        ) < 0.5

    def test_quality_report_complete(self, fitted):
        _ex, result = fitted
        assert len(result.extractor_quality) == 5
        for quality in result.extractor_quality.values():
            assert 0.0 < quality.precision < 1.0
            assert 0.0 < quality.recall < 1.0


class TestDeterminismAndAgreement:
    def test_same_seed_same_posterior(self, example_matrix):
        cfg = MultiLayerConfig()
        g1 = GibbsMultiLayer(cfg, GibbsConfig(seed=3)).fit(example_matrix)
        g2 = GibbsMultiLayer(cfg, GibbsConfig(seed=3)).fit(example_matrix)
        assert g1.source_accuracy == g2.source_accuracy

    def test_different_seed_different_samples(self, example_matrix):
        cfg = MultiLayerConfig()
        g1 = GibbsMultiLayer(cfg, GibbsConfig(seed=3)).fit(example_matrix)
        g2 = GibbsMultiLayer(cfg, GibbsConfig(seed=4)).fit(example_matrix)
        assert g1.source_accuracy != g2.source_accuracy

    def test_agrees_with_em_on_synthetic_accuracy(self, synthetic):
        """Gibbs and EM must broadly agree about which sources are good."""
        obs = ObservationMatrix.from_records(synthetic.records)
        cfg = MultiLayerConfig(absence_scope=AbsenceScope.ACTIVE)
        em = MultiLayerModel(cfg).fit(obs)
        gibbs = GibbsMultiLayer(
            cfg, GibbsConfig(seed=1, burn_in=15, samples=30)
        ).fit(obs)
        em_loss = sq_accuracy_loss(em.source_accuracy,
                                   synthetic.true_accuracy)
        gibbs_loss = sq_accuracy_loss(gibbs.source_accuracy,
                                      synthetic.true_accuracy)
        # Both engines must land in a sane region; Gibbs may be noisier.
        assert gibbs_loss < max(3 * em_loss, 0.15)

    def test_value_agreement_with_em_on_confident_items(self, synthetic):
        """The two engines may differ on genuinely contested items; on
        items where EM is confident they must agree."""
        obs = ObservationMatrix.from_records(synthetic.records)
        cfg = MultiLayerConfig(absence_scope=AbsenceScope.ACTIVE)
        em = MultiLayerModel(cfg).fit(obs)
        gibbs = GibbsMultiLayer(
            cfg, GibbsConfig(seed=1, burn_in=15, samples=30)
        ).fit(obs)
        agree = 0
        total = 0
        for item in synthetic.true_values:
            em_best = em.most_probable_value(item)
            gibbs_best = gibbs.most_probable_value(item)
            if em_best is None or gibbs_best is None:
                continue
            if em.triple_probability(item, em_best) < 0.8:
                continue
            total += 1
            if em_best == gibbs_best:
                agree += 1
        assert total > 20
        assert agree / total > 0.85


class TestRestrictedMatrix:
    def test_active_scope_on_a_restriction(self):
        """A restriction keeps each source's corpus-level active pairs;
        the sampler's ACTIVE scope is those whose extractor has a cell in
        the slice, as the EM compile's is (``e2`` has none here)."""
        e1, e2 = ExtractorKey(("e1",)), ExtractorKey(("e2",))
        w, v = SourceKey(("w",)), SourceKey(("v",))
        a, b = DataItem("a", "p"), DataItem("b", "p")
        matrix = ObservationMatrix.from_records(
            [
                ExtractionRecord(e1, w, a, "x"),
                ExtractionRecord(e2, w, b, "y"),
                ExtractionRecord(e1, v, a, "x"),
            ]
        )
        sub = matrix.restricted_to_items({a})
        result = GibbsMultiLayer(
            MultiLayerConfig(absence_scope=AbsenceScope.ACTIVE),
            GibbsConfig(seed=2, burn_in=2, samples=3),
        ).fit(sub)
        assert set(result.extractor_quality) == {e1}
        assert set(result.source_accuracy) == {w, v}


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 13: converged EM believes every extraction",
)
def test_converged_em_tracks_gibbs():
    """On the Section 5.2 defaults, EM run to convergence keeps SqA
    within 0.05 of the exact-model sampler's. It does not yet: Gibbs
    gives SqA 0.013 / 0.019 / 0.019 at seeds 51-53, converged EM
    0.134 / 0.162 / 0.150 (extractor precision runs to the ceiling, and
    extraction errors are charged to the sources)."""
    cfg = MultiLayerConfig(absence_scope=AbsenceScope.ACTIVE)
    converged = MultiLayerConfig(
        absence_scope=AbsenceScope.ACTIVE,
        convergence=ConvergenceConfig(max_iterations=200, tolerance=0.0),
    )
    losses = {}
    for seed in (51, 52, 53):
        data = generate(SyntheticConfig(seed=seed, num_extractors=5))
        obs = ObservationMatrix.from_records(data.records)
        gibbs = GibbsMultiLayer(
            cfg, GibbsConfig(seed=1, burn_in=30, samples=70)
        ).fit(obs)
        em = MultiLayerModel(converged).fit(obs)
        losses[seed] = tuple(
            sq_accuracy_loss(result.source_accuracy, data.true_accuracy)
            for result in (em, gibbs)
        )
    assert all(em <= gibbs + 0.05 for em, gibbs in losses.values()), losses
