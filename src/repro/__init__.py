"""repro — Knowledge-Based Trust (KBT), a VLDB 2015 reproduction.

Estimates the trustworthiness of web sources from the correctness of the
facts they provide, separating source errors from extraction errors with a
multi-layer probabilistic model (Dong et al., "Knowledge-Based Trust:
Estimating the Trustworthiness of Web Sources", VLDB 2015).

Quickstart::

    from repro import KBTEstimator, ExtractionRecord

    estimator = KBTEstimator()
    fitted = estimator.fit(records)
    for website, score in fitted.website_scores().items():
        print(website, score.score)

Subpackages:

* :mod:`repro.core` — the models (single-layer baseline, multi-layer KBT),
  vote-count algebra, SPLITANDMERGE granularity selection.
* :mod:`repro.extraction` — simulated web corpus + extractor fleet.
* :mod:`repro.kb` — Freebase-like KB, LCWA and type-check gold standards.
* :mod:`repro.web` — synthetic web graph and PageRank.
* :mod:`repro.signals` — the unified trust-signal API: pluggable
  providers (KBT, ACCU/POPACCU, PageRank, copy-adjusted), aligned
  multi-signal frames, calibrated weighted fusion.
* :mod:`repro.io` / :mod:`repro.serving` — versioned trust artifacts,
  their mmap serving layout, and the stores + asyncio gateway over them.
* :mod:`repro.datasets` — the paper's experimental datasets (motivating
  example, Section 5.2 synthetic, Knowledge-Vault-scale synthetic).
* :mod:`repro.eval` — SqV/SqC/SqA, WDev, AUC-PR, Cov, calibration.
* :mod:`repro.mapreduce` — Table 7's MapReduce jobs priced by a cluster
  cost model.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AbsenceScope": "repro.core.config",
    "ConvergenceConfig": "repro.core.config",
    "DataItem": "repro.core.types",
    "ExtractionRecord": "repro.core.types",
    "ExtractorKey": "repro.core.types",
    "ExtractorQuality": "repro.core.quality",
    "FalseValueModel": "repro.core.config",
    "GranularityConfig": "repro.core.config",
    "KBTEstimator": "repro.core.kbt",
    "KBTReport": "repro.core.kbt",
    "KBTScore": "repro.core.types",
    "MultiLayerConfig": "repro.core.config",
    "MultiLayerModel": "repro.core.multi_layer",
    "MultiLayerResult": "repro.core.results",
    "ObservationMatrix": "repro.core.observation",
    "SingleLayerConfig": "repro.core.config",
    "SingleLayerModel": "repro.core.single_layer",
    "SingleLayerResult": "repro.core.results",
    "SourceKey": "repro.core.types",
    "SplitAndMerge": "repro.core.granularity",
    "Triple": "repro.core.types",
    "page_source": "repro.core.types",
    "pattern_extractor": "repro.core.types",
    "website_source": "repro.core.types",
}

__version__ = "1.0.0"

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)[1:]
__all__ = sorted([*_EXPORTS, "__version__"])
