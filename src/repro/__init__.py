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
* :mod:`repro.mapreduce` — FlumeJava-like pipeline + cluster cost model.
"""

from repro.core import (
    AbsenceScope,
    ConvergenceConfig,
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    ExtractorQuality,
    FalseValueModel,
    GibbsConfig,
    GibbsMultiLayer,
    GranularityConfig,
    KBTEstimator,
    KBTReport,
    KBTScore,
    MultiLayerConfig,
    MultiLayerModel,
    MultiLayerResult,
    ObservationMatrix,
    SingleLayerConfig,
    SingleLayerModel,
    SingleLayerResult,
    SourceKey,
    SplitAndMerge,
    Triple,
    page_source,
    pattern_extractor,
    website_source,
)

__version__ = "1.0.0"

__all__ = [
    "AbsenceScope",
    "ConvergenceConfig",
    "DataItem",
    "ExtractionRecord",
    "ExtractorKey",
    "ExtractorQuality",
    "FalseValueModel",
    "GibbsConfig",
    "GibbsMultiLayer",
    "GranularityConfig",
    "KBTEstimator",
    "KBTReport",
    "KBTScore",
    "MultiLayerConfig",
    "MultiLayerModel",
    "MultiLayerResult",
    "ObservationMatrix",
    "SingleLayerConfig",
    "SingleLayerModel",
    "SingleLayerResult",
    "SourceKey",
    "SplitAndMerge",
    "Triple",
    "__version__",
    "page_source",
    "pattern_extractor",
    "website_source",
]
