"""The paper's contribution: single- and multi-layer fusion models, vote
algebra, granularity selection, and the Knowledge-Based Trust estimator.

``MultiLayerConfig.engine`` selects one of two inference engines: the
vectorized NumPy engine (``"numpy"``, the default, see
``repro.core.engine_numpy``) compiles the observation matrix into
integer-indexed arrays (``repro.core.indexing``) and runs Algorithm 1 as
segment operations; the reference pure-Python implementation
(``"python"``) is its oracle — matching to <= 1e-9, several times slower.
The numpy engine's EM loop is the sharded execution driver
(``repro.exec``); ``MultiLayerConfig.backend`` selects where its map
rounds run (serial / threads / processes / remote, bit-identical to the
default single serial shard)."""

from repro.core.config import (
    AbsenceScope,
    ConvergenceConfig,
    FalseValueModel,
    GranularityConfig,
    MultiLayerConfig,
    SingleLayerConfig,
)
from repro.core.gibbs import GibbsConfig, GibbsMultiLayer
from repro.core.granularity import GranularityPlan, SplitAndMerge
from repro.core.kbt import FittedKBT, KBTEstimator, KBTReport, KBTScore
from repro.core.multi_layer import MultiLayerModel, default_precision
from repro.core.observation import ObservationMatrix
from repro.core.quality import ExtractorQuality, derive_q
from repro.core.results import (
    IterationSnapshot,
    MultiLayerResult,
    SingleLayerResult,
)
from repro.core.single_layer import SingleLayerModel, default_provenance
from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    SourceKey,
    Triple,
    page_source,
    pattern_extractor,
    website_source,
)
from repro.core.votes import (
    VoteTable,
    accuracy_vote,
    extraction_posterior,
    value_posteriors,
)

__all__ = [
    "AbsenceScope",
    "ConvergenceConfig",
    "DataItem",
    "ExtractionRecord",
    "ExtractorKey",
    "ExtractorQuality",
    "FalseValueModel",
    "FittedKBT",
    "GibbsConfig",
    "GibbsMultiLayer",
    "GranularityConfig",
    "GranularityPlan",
    "IterationSnapshot",
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
    "VoteTable",
    "accuracy_vote",
    "default_precision",
    "default_provenance",
    "derive_q",
    "extraction_posterior",
    "page_source",
    "pattern_extractor",
    "value_posteriors",
    "website_source",
]
