"""The paper's contribution: single- and multi-layer fusion models, vote
algebra, granularity selection, and the Knowledge-Based Trust estimator.

Both fusion models run on the observation matrix's integer columns. The
multi-layer model compiles them into integer-indexed arrays
(``repro.core.indexing``) and runs Algorithm 1 as segment operations
(``repro.core.engine_numpy``); its dict-walking oracle, which it matches
to <= 1e-9, lives in ``tests/multi_layer_reference.py``. The EM loop is
the sharded execution driver (``repro.exec``);
``MultiLayerConfig.backend`` selects where its map rounds run (serial /
threads / processes / remote, bit-identical to the default single
serial shard)."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AbsenceScope": "repro.core.config",
    "ConvergenceConfig": "repro.core.config",
    "DataItem": "repro.core.types",
    "ExtractionRecord": "repro.core.types",
    "ExtractorKey": "repro.core.types",
    "ExtractorQuality": "repro.core.quality",
    "FalseValueModel": "repro.core.config",
    "FittedKBT": "repro.core.kbt",
    "GranularityConfig": "repro.core.config",
    "GranularityPlan": "repro.core.granularity",
    "IterationSnapshot": "repro.core.results",
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
    "accuracy_vote": "repro.core.votes",
    "default_precision": "repro.core.quality",
    "default_provenance": "repro.core.single_layer",
    "derive_q": "repro.core.quality",
    "page_source": "repro.core.types",
    "pattern_extractor": "repro.core.types",
    "value_posteriors": "repro.core.votes",
    "website_source": "repro.core.types",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
