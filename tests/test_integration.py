"""Integration tests: the paper's qualitative claims, end to end.

These are small-scale versions of the headline experiments: each asserts a
*shape* the paper reports (who wins, in which direction), not absolute
numbers.
"""

import pytest

from repro.core.config import (
    AbsenceScope,
    GranularityConfig,
    MultiLayerConfig,
    SingleLayerConfig,
)
from repro.core.kbt import KBTEstimator
from repro.core.multi_layer import MultiLayerModel
from repro.core.observation import ObservationMatrix
from repro.core.single_layer import SingleLayerModel
from repro.datasets.synthetic import SyntheticConfig, generate
from repro.eval.metrics import (
    sq_accuracy_loss,
    sq_extraction_loss,
    sq_value_loss,
    triple_predictions,
)
from repro.eval.pr import auc_pr
from repro.web.analysis import join_kbt_pagerank, quadrant_analysis
from repro.web.graph import generate_web_graph
from repro.web.pagerank import pagerank


def synthetic_labels(data):
    """Gold labels for every observed triple of a synthetic draw."""
    labels = {}
    obs = ObservationMatrix.from_records(data.records)
    for _source, item, value in obs.columns().coords:
        labels.setdefault((item, value), data.true_values.get(item) == value)
    return labels


class TestSyntheticRecovery:
    """Figure 3/4 shape: the multi-layer model recovers the ground truth."""

    @pytest.fixture(scope="class")
    def fits(self):
        data = generate(SyntheticConfig(seed=21, num_extractors=8))
        obs = ObservationMatrix.from_records(data.records)
        # ACTIVE scope: extractor coverage is 0.5, so only extractors that
        # touched a source should testify by absence (see DESIGN.md).
        multi = MultiLayerModel(
            MultiLayerConfig(absence_scope=AbsenceScope.ACTIVE)
        ).fit(obs)
        single = SingleLayerModel(SingleLayerConfig(n=10)).fit(obs)
        return data, obs, multi, single

    def test_multi_layer_recovers_source_accuracy(self, fits):
        data, _obs, multi, _single = fits
        loss = sq_accuracy_loss(multi.source_accuracy, data.true_accuracy)
        assert loss < 0.08

    def test_multi_layer_competitive_on_truth(self, fits):
        """On the synthetic corpus both models find the truth easily (wrong
        values rarely repeat); the multi-layer model must stay within a
        hair of the single layer on SqV. (Its decisive wins are on SqA and
        SqC, asserted below — matching Figure 3, where the SqV gap also
        closes as extractors are added.)"""
        data, _obs, multi, single = fits
        labels = synthetic_labels(data)
        sqv_multi = sq_value_loss(
            triple_predictions(multi, labels.keys()), labels
        )
        sqv_single = sq_value_loss(
            triple_predictions(single, labels.keys()), labels
        )
        assert sqv_multi < sqv_single + 0.01

    def test_multi_layer_beats_single_layer_on_accuracy(self, fits):
        """The single-layer model conflates extractor and source noise, so
        averaging its provenance accuracies per source does worse."""
        data, _obs, multi, single = fits
        per_source: dict = {}
        for (extractor, source), a in single.provenance_accuracy.items():
            per_source.setdefault(source, []).append(a)
        single_estimate = {
            source: sum(v) / len(v) for source, v in per_source.items()
        }
        loss_single = sq_accuracy_loss(single_estimate, data.true_accuracy)
        loss_multi = sq_accuracy_loss(multi.source_accuracy,
                                      data.true_accuracy)
        assert loss_multi < loss_single

    def test_extraction_correctness_recovered(self, fits):
        data, obs, multi, _single = fits
        loss = sq_extraction_loss(multi.extraction_posteriors, data.provided)
        assert loss < 0.2

    def test_extractor_quality_ordering_recovered(self, fits):
        data, _obs, multi, _single = fits
        # Estimated precision should correlate with empirical truth: check
        # the best and worst empirical extractors stay ordered.
        truth = data.true_precision
        est = {e: q.precision for e, q in multi.extractor_quality.items()}
        best = max(truth, key=truth.get)
        worst = min(truth, key=truth.get)
        if truth[best] - truth[worst] > 0.1:
            assert est[best] > est[worst]


class TestMoreExtractorsHelpMultiLayer:
    """Figure 3 shape: extra (noisy) extractors do not hurt the multi-layer
    source-accuracy estimate, while the single layer degrades."""

    def test_sqa_stable_for_multi_layer(self):
        losses = {}
        for num_extractors in (2, 10):
            data = generate(
                SyntheticConfig(seed=3, num_extractors=num_extractors)
            )
            obs = ObservationMatrix.from_records(data.records)
            multi = MultiLayerModel(MultiLayerConfig()).fit(obs)
            losses[num_extractors] = sq_accuracy_loss(
                multi.source_accuracy, data.true_accuracy
            )
        assert losses[10] < losses[2] + 0.05


class TestSmartInitialisation:
    """Table 5 shape: gold-standard initialisation ('+') helps."""

    def test_plus_variant_improves_auc(self, kv_small):
        obs = kv_small.observation()
        labels = kv_small.gold.labeled_triples(obs)
        cfg = MultiLayerConfig(
            absence_scope=AbsenceScope.ACTIVE,
            min_extractor_support=3,
            min_source_support=2,
        )
        base = MultiLayerModel(cfg).fit(obs)
        init_a = kv_small.gold.initial_source_accuracy(obs)
        init_q = kv_small.gold.initial_extractor_quality(obs)
        plus = MultiLayerModel(cfg).fit(
            obs,
            initial_source_accuracy=init_a,
            initial_extractor_quality=init_q,
        )
        auc_base = auc_pr(triple_predictions(base, labels.keys()), labels)
        auc_plus = auc_pr(triple_predictions(plus, labels.keys()), labels)
        assert auc_plus >= auc_base - 0.02  # never materially worse
        kbt_truth = kv_small.true_site_accuracy
        base_scores = _website_scores(base)
        plus_scores = _website_scores(plus)
        assert _rank_agreement(plus_scores, kbt_truth) >= (
            _rank_agreement(base_scores, kbt_truth) - 0.05
        )


def _website_scores(result):
    support: dict = {}
    numer: dict = {}
    for (source, _i, _v), p in result.extraction_posteriors.items():
        site = source.website
        support[site] = support.get(site, 0.0) + p
        numer[site] = numer.get(site, 0.0) + p * result.source_accuracy[source]
    return {
        site: numer[site] / mass
        for site, mass in support.items()
        if mass > 0
    }


def _rank_agreement(scores, truth):
    """Fraction of site pairs ordered consistently with the truth."""
    sites = [s for s in scores if s in truth]
    agree = 0
    total = 0
    for i, a in enumerate(sites):
        for b in sites[i + 1:]:
            if abs(truth[a] - truth[b]) < 0.1:
                continue
            total += 1
            if (scores[a] - scores[b]) * (truth[a] - truth[b]) > 0:
                agree += 1
    return agree / total if total else 0.0


class TestKBTEndToEnd:
    """Figure 7 / 10 shape on the KV corpus."""

    @pytest.fixture(scope="class")
    def kbt_scores(self, kv_small):
        estimator = KBTEstimator(
            config=MultiLayerConfig(
                absence_scope=AbsenceScope.ACTIVE,
                min_extractor_support=3,
                min_source_support=2,
            ),
            min_triples=5.0,
        )
        report = estimator.fit(kv_small.observation()).report
        return {
            site: score.score
            for site, score in report.website_scores().items()
        }

    def test_kbt_tracks_true_site_accuracy(self, kv_small, kbt_scores):
        truth = kv_small.true_site_accuracy
        agreement = _rank_agreement(kbt_scores, truth)
        assert agreement > 0.7

    def test_kbt_orthogonal_to_pagerank(self, kv_small, kbt_scores):
        """Popularity and trustworthiness are independent for mainstream
        sites (the engineered gossip / tail cohorts are *anti*-correlated
        by design and over-represented in this small corpus, so the
        orthogonality check is on the mainstream cohort)."""
        graph = generate_web_graph(kv_small.site_popularity(), seed=3)
        ranks = pagerank(graph)
        points = join_kbt_pagerank(kbt_scores, ranks,
                                   cohorts=kv_small.cohorts())
        mainstream = [(p.kbt, p.pagerank) for p in points
                      if p.cohort == "mainstream"]
        assert len(mainstream) >= 10
        from repro.web.analysis import pearson_correlation

        assert abs(pearson_correlation(mainstream)) < 0.4

    def test_gossip_sites_low_kbt_high_pagerank(self, kv_small, kbt_scores):
        graph = generate_web_graph(kv_small.site_popularity(), seed=3)
        ranks = pagerank(graph)
        cohorts = kv_small.cohorts()
        gossip = [s for s in kbt_scores if cohorts.get(s) == "gossip"]
        mainstream = [s for s in kbt_scores
                      if cohorts.get(s) == "mainstream"]
        assert gossip
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
        assert mean([kbt_scores[s] for s in gossip]) < mean(
            [kbt_scores[s] for s in mainstream]
        )
        assert mean([ranks[s] for s in gossip]) > mean(
            [ranks[s] for s in mainstream]
        )

    def test_tail_quality_sites_high_kbt(self, kv_small, kbt_scores):
        cohorts = kv_small.cohorts()
        tail = [s for s in kbt_scores if cohorts.get(s) == "tail-quality"]
        mainstream = [s for s in kbt_scores
                      if cohorts.get(s) == "mainstream"]
        assert tail
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
        assert mean([kbt_scores[s] for s in tail]) > mean(
            [kbt_scores[s] for s in mainstream]
        )


class TestGranularityEffects:
    def test_split_merge_lifts_coverage_under_support(self, kv_small):
        """Table 5 shape: MULTILAYERSM covers more triples than MULTILAYER
        because merging pools below-support sources and extractors."""
        obs = kv_small.observation()
        cfg = MultiLayerConfig(
            absence_scope=AbsenceScope.ACTIVE,
            min_extractor_support=5,
            min_source_support=5,
        )
        plain = KBTEstimator(config=cfg).fit(obs).report
        merged = KBTEstimator(
            config=cfg,
            granularity=GranularityConfig(min_size=5, max_size=2000),
        ).fit(obs).report
        assert merged.result.coverage > plain.result.coverage


class TestExtractionCorrectnessSeparation:
    def test_type_error_triples_scored_low(self, kv_small):
        """Figure 6 shape: predicted extraction correctness is much lower
        for type-error triples than for KB-confirmed ones."""
        obs = kv_small.observation()
        cfg = MultiLayerConfig(
            absence_scope=AbsenceScope.ACTIVE,
            min_extractor_support=3,
            min_source_support=2,
        )
        result = MultiLayerModel(cfg).fit(
            obs,
            initial_source_accuracy=(
                kv_small.gold.initial_source_accuracy(obs)
            ),
            initial_extractor_quality=(
                kv_small.gold.initial_extractor_quality(obs)
            ),
        )
        type_error_ps = []
        confirmed_ps = []
        for coord, p in result.extraction_posteriors.items():
            _source, item, value = coord
            if (item, value) in kv_small.campaign.type_error_triples:
                type_error_ps.append(p)
            elif kv_small.kb.contains(item, value):
                confirmed_ps.append(p)
        assert type_error_ps and confirmed_ps
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
        assert mean(type_error_ps) < mean(confirmed_ps) - 0.2
