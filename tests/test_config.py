"""Unit tests for configuration validation."""

from dataclasses import replace

import pytest

from repro.core.config import (
    AbsenceScope,
    ConvergenceConfig,
    FalseValueModel,
    GranularityConfig,
    MultiLayerConfig,
    SingleLayerConfig,
)


class TestConvergenceConfig:
    def test_defaults_match_paper(self):
        cfg = ConvergenceConfig()
        assert cfg.max_iterations == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            ConvergenceConfig(max_iterations=0)
        with pytest.raises(ValueError):
            ConvergenceConfig(tolerance=-1.0)


class TestSingleLayerConfig:
    def test_paper_defaults(self):
        cfg = SingleLayerConfig()
        assert cfg.n == 100
        assert cfg.default_accuracy == 0.8
        assert cfg.false_value_model is FalseValueModel.ACCU

    def test_validation(self):
        with pytest.raises(ValueError):
            SingleLayerConfig(n=0)
        with pytest.raises(ValueError):
            SingleLayerConfig(default_accuracy=1.0)
        with pytest.raises(ValueError):
            SingleLayerConfig(min_source_support=0)


class TestMultiLayerConfig:
    def test_paper_defaults(self):
        cfg = MultiLayerConfig()
        assert cfg.n == 10
        assert cfg.gamma == 0.25
        assert cfg.alpha == 0.5
        assert cfg.default_accuracy == 0.8
        assert cfg.default_recall == 0.8
        assert cfg.default_q == 0.2
        # Deviation from the paper (documented in DESIGN.md): the prior
        # update starts one iteration earlier and is clamped.
        assert cfg.prior_update_start_iteration == 2
        assert cfg.prior_floor == 0.25
        assert cfg.prior_ceiling == 0.75
        assert cfg.quality_damping == 1.0
        assert cfg.use_weighted_vcv
        assert cfg.update_prior

    def test_gamma_bounds(self):
        with pytest.raises(ValueError):
            MultiLayerConfig(gamma=0.0)
        with pytest.raises(ValueError):
            MultiLayerConfig(gamma=1.0)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            MultiLayerConfig(alpha=0.0)

    def test_quality_defaults_bounds(self):
        with pytest.raises(ValueError):
            MultiLayerConfig(default_recall=0.0)
        with pytest.raises(ValueError):
            MultiLayerConfig(default_q=1.0)

    def test_confidence_threshold_bounds(self):
        assert MultiLayerConfig(confidence_threshold=0.0)
        with pytest.raises(ValueError):
            MultiLayerConfig(confidence_threshold=1.0)
        with pytest.raises(ValueError):
            MultiLayerConfig(confidence_threshold=-0.1)

    def test_support_bounds(self):
        with pytest.raises(ValueError):
            MultiLayerConfig(min_source_support=0)
        with pytest.raises(ValueError):
            MultiLayerConfig(min_extractor_support=0)

    def test_quality_floor_ceiling_ordering(self):
        with pytest.raises(ValueError):
            MultiLayerConfig(quality_floor=0.6, quality_ceiling=0.4)

    def test_absence_scope_enum(self):
        cfg = MultiLayerConfig(absence_scope=AbsenceScope.ACTIVE)
        assert cfg.absence_scope is AbsenceScope.ACTIVE

    def test_popaccu_refuses_weighted_vcv(self):
        """Section 5.1.2: the config itself refuses POPACCU with the
        weighted V step, so no fit path can be handed the combination,
        by construction or by ``replace``."""
        with pytest.raises(ValueError, match="POPACCU"):
            MultiLayerConfig(false_value_model=FalseValueModel.POPACCU)
        cfg = MultiLayerConfig(
            false_value_model=FalseValueModel.POPACCU, use_weighted_vcv=False
        )
        with pytest.raises(ValueError, match="POPACCU"):
            replace(cfg, use_weighted_vcv=True)


class TestGranularityConfig:
    def test_paper_defaults(self):
        cfg = GranularityConfig()
        assert cfg.min_size == 5
        assert cfg.max_size == 10_000

    def test_validation(self):
        with pytest.raises(ValueError):
            GranularityConfig(min_size=0)
        with pytest.raises(ValueError):
            GranularityConfig(min_size=10, max_size=5)
