"""Built-in trust-signal providers.

Each provider wraps one of the repo's existing estimators behind the
:class:`~repro.signals.base.TrustSignal` protocol:

* ``kbt`` — the multi-layer Knowledge-Based Trust model (Section 3);
* ``accu`` / ``popaccu`` — the single-layer fusion baselines (Section
  2.2), with provenance accuracies aggregated up to websites;
* ``pagerank`` — link popularity over the hyperlink graph (or the
  co-claim proxy graph when no hyperlinks are known);
* ``copydetect`` — KBT discounted by detected copying: a site whose
  claims are largely scraped from others keeps little independent
  evidence, so its trust is scaled by its copy-independence weight.

Providers return scores in [0, 1] keyed by website so a
:class:`~repro.signals.frame.SignalFrame` can align and fuse them.
"""

from __future__ import annotations

from repro.copydetect.detector import CopyDetector
from repro.copydetect.evidence import claims_by_source, collect_evidence
from repro.copydetect.weights import independence_weights
from repro.core.config import FalseValueModel, SingleLayerConfig
from repro.core.single_layer import SingleLayerModel
from repro.signals.base import CorpusContext, SignalScores
from repro.web.pagerank import pagerank


class KBTSignal:
    """The multi-layer KBT estimate (Section 3), from the shared fit.

    Reads the context's lazily shared ``FittedKBT`` — scores are the
    fitted ``A_w`` aggregated to websites under the Section 5.4
    reporting rule, identical to ``kbt fit``'s own output.
    """

    name = "kbt"

    def fit(self, context: CorpusContext) -> SignalScores:
        fitted = context.fitted_kbt()
        site_scores = fitted.website_scores()
        return SignalScores(
            name=self.name,
            scores={site: s.score for site, s in site_scores.items()},
            support={site: s.support for site, s in site_scores.items()},
            metadata={
                "estimator": "multi-layer",
                "engine": fitted.config.engine,
                "iterations": fitted.result.iterations_run,
                "min_triples": fitted.min_triples,
            },
        )


class SingleLayerSignal:
    """ACCU / POPACCU provenance fusion aggregated to websites.

    A provenance is an (extractor, web source) pair; its estimated
    accuracy is attributed to the source's website, weighted by the
    number of triples the provenance claims, giving the website-level
    signal the paper's Section 2.3 comparison is about.
    """

    def __init__(
        self,
        false_value_model: FalseValueModel = FalseValueModel.ACCU,
        config: SingleLayerConfig | None = None,
    ) -> None:
        self._config = config or SingleLayerConfig(
            false_value_model=false_value_model
        )

    @property
    def name(self) -> str:
        return self._config.false_value_model.value

    def fit(self, context: CorpusContext) -> SignalScores:
        result = SingleLayerModel(self._config).fit(context.observations)
        numer: dict[str, float] = {}
        denom: dict[str, float] = {}
        claim_sizes = context.observations.source_sizes()
        for prov in result.participating:
            accuracy = result.provenance_accuracy[prov]
            _extractor, source = prov
            weight = float(claim_sizes.get(source, 1))
            site = source.website
            numer[site] = numer.get(site, 0.0) + weight * accuracy
            denom[site] = denom.get(site, 0.0) + weight
        scores = {
            site: numer[site] / weight for site, weight in denom.items()
        }
        return SignalScores(
            name=self.name,
            scores=scores,
            support=denom,
            metadata={
                "estimator": "single-layer",
                "false_value_model": self._config.false_value_model.value,
                "iterations": result.iterations_run,
                "participating_provenances": len(result.participating),
            },
        )


class PageRankSignal:
    """Link popularity over the web graph, normalised to [0, 1].

    The Figure 10 comparison signal: popularity, which Section 5.4.2
    shows is near-orthogonal to accuracy. Falls back to the co-claim
    proxy graph when no hyperlinks are known, so the signal is always
    defined on the corpus's websites.
    """

    name = "pagerank"

    def __init__(
        self,
        damping: float = 0.85,
        max_iterations: int = 100,
        tolerance: float = 1e-10,
    ) -> None:
        self._damping = damping
        self._max_iterations = max_iterations
        self._tolerance = tolerance

    def fit(self, context: CorpusContext) -> SignalScores:
        graph = context.web_graph()
        scores = pagerank(
            graph,
            damping=self._damping,
            max_iterations=self._max_iterations,
            tolerance=self._tolerance,
            normalize=True,
        )
        return SignalScores(
            name=self.name,
            scores=scores,
            support={
                node: float(graph.in_degree(node)) for node in graph.nodes
            },
            metadata={
                "damping": self._damping,
                "nodes": graph.num_nodes,
                "edges": graph.num_edges,
                "graph": "hyperlink" if context.graph is not None
                else "co-claim-proxy",
            },
        )


class CopyAdjustedSignal:
    """KBT discounted by each website's copy-independence weight.

    Runs the pairwise Bayesian dependence test over the shared KBT fit's
    believed claims, derives per-source independence weights (1 for
    sources never flagged as copier), aggregates them to websites with
    the same support weighting KBT uses, and scales the KBT score: a
    site that merely scrapes trustworthy content loses trust, a site
    whose content is independent keeps its KBT score unchanged.
    """

    name = "copydetect"

    def __init__(
        self,
        min_overlap: int = 3,
        threshold: float = 0.5,
        copy_rate: float = 0.8,
        floor: float = 0.05,
        detector: CopyDetector | None = None,
    ) -> None:
        self._min_overlap = min_overlap
        self._threshold = threshold
        self._copy_rate = copy_rate
        self._floor = floor
        self._detector = detector or CopyDetector(copy_rate=copy_rate)

    def fit(self, context: CorpusContext) -> SignalScores:
        fitted = context.fitted_kbt()
        result = fitted.result

        def is_true(item, value) -> bool:
            p = result.triple_probability(item, value)
            return p is not None and p >= 0.5

        claims = claims_by_source(result)
        evidence = collect_evidence(
            claims, is_true, min_overlap=self._min_overlap
        )
        verdicts = self._detector.detect(
            evidence, result.source_accuracy, threshold=self._threshold
        )
        source_weights = independence_weights(
            verdicts, copy_rate=self._copy_rate, floor=self._floor
        )

        support = result.expected_triples_by_source()
        numer: dict[str, float] = {}
        denom: dict[str, float] = {}
        for source in result.source_accuracy:
            source_support = support.get(source, 0.0)
            if source_support <= 0.0:
                continue
            weight = source_weights.get(source, 1.0)
            site = source.website
            numer[site] = numer.get(site, 0.0) + source_support * weight
            denom[site] = denom.get(site, 0.0) + source_support
        site_scores = fitted.website_scores()
        scores = {}
        site_support = {}
        flagged = 0
        for site, kbt_score in site_scores.items():
            independence = (
                numer[site] / denom[site] if denom.get(site) else 1.0
            )
            if independence < 1.0:
                flagged += 1
            scores[site] = kbt_score.score * independence
            site_support[site] = kbt_score.support
        return SignalScores(
            name=self.name,
            scores=scores,
            support=site_support,
            metadata={
                "pairs_tested": len(evidence),
                "verdicts": len(verdicts),
                "flagged_websites": flagged,
                "copy_rate": self._copy_rate,
                "threshold": self._threshold,
            },
        )


def default_providers() -> list:
    """The built-in provider set, in registry order."""
    return [
        KBTSignal(),
        SingleLayerSignal(FalseValueModel.ACCU),
        SingleLayerSignal(FalseValueModel.POPACCU),
        PageRankSignal(),
        CopyAdjustedSignal(),
    ]
