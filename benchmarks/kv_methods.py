"""The six Section 5.1.2 methods, runnable on the bench KV corpus.

SINGLELAYER   — knowledge-fusion baseline over (extractor, website,
                predicate, pattern) provenances (= our extractor keys).
MULTILAYER    — the multi-layer model at the finest granularity.
MULTILAYERSM  — multi-layer after SPLITANDMERGE on both hierarchies.
The "+" variants initialise source/extractor quality from the gold
standard (Freebase-substitute) instead of defaults.

Each runner returns the triple predictions {(item, value): p} used by the
Table 5 metrics and the Figure 8/9 curves.
"""

from __future__ import annotations

from conftest import (
    MULTI_LAYER_CONFIG,
    SINGLE_LAYER_CONFIG,
    SPLIT_MERGE_CONFIG,
)

from repro.core.granularity import SplitAndMerge
from repro.core.kbt import _transfer_initialisation
from repro.core.multi_layer import MultiLayerModel
from repro.core.single_layer import SingleLayerModel
from repro.eval.metrics import triple_predictions


def _extractor_as_provenance(extractor, _source):
    """The paper's 4-tuple provenance is exactly our extractor key."""
    return extractor


def run_single_layer(kv_corpus, labels, smart_init=None):
    obs = kv_corpus.observation()
    initial = None
    if smart_init is not None:
        # Provenances are extractor keys; initialise from the gold-based
        # per-extractor precision estimate as an accuracy prior.
        initial = {
            extractor: quality.precision
            for extractor, quality in smart_init[1].items()
        }
    model = SingleLayerModel(
        SINGLE_LAYER_CONFIG, provenance_fn=_extractor_as_provenance
    )
    result = model.fit(obs, initial_accuracy=initial)
    return triple_predictions(result, labels), result


def run_multi_layer(kv_corpus, labels, smart_init=None):
    obs = kv_corpus.observation()
    kwargs = {}
    if smart_init is not None:
        kwargs = {
            "initial_source_accuracy": smart_init[0],
            "initial_extractor_quality": smart_init[1],
        }
    result = MultiLayerModel(MULTI_LAYER_CONFIG).fit(obs, **kwargs)
    return triple_predictions(result, labels), result


def run_multi_layer_sm(kv_corpus, labels, smart_init=None):
    obs = kv_corpus.observation()
    regrouped = SplitAndMerge(SPLIT_MERGE_CONFIG, seed=0).apply(obs)
    kwargs = {}
    if smart_init is not None:
        kwargs = {
            "initial_source_accuracy": _transfer_initialisation(
                smart_init[0], regrouped.sources()
            ),
            "initial_extractor_quality": _transfer_initialisation(
                smart_init[1], regrouped.extractors()
            ),
        }
    result = MultiLayerModel(MULTI_LAYER_CONFIG).fit(regrouped, **kwargs)
    return triple_predictions(result, labels), result


METHOD_RUNNERS = {
    "SINGLELAYER": (run_single_layer, False),
    "MULTILAYER": (run_multi_layer, False),
    "MULTILAYERSM": (run_multi_layer_sm, False),
    "SINGLELAYER+": (run_single_layer, True),
    "MULTILAYER+": (run_multi_layer, True),
    "MULTILAYERSM+": (run_multi_layer_sm, True),
}
