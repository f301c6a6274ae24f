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
from repro.core.multi_layer import MultiLayerModel
from repro.core.observation import ObservationMatrix
from repro.core.quality import ExtractorQuality, default_precision, derive_q
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
from repro.core.votes import accuracy_vote, value_posteriors

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
    "accuracy_vote",
    "default_precision",
    "default_provenance",
    "derive_q",
    "page_source",
    "pattern_extractor",
    "value_posteriors",
    "website_source",
]
