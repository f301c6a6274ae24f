"""repro.signals — the unified trust-signal API.

One composable surface over every trust signal the repo computes:
multi-layer KBT, the single-layer ACCU/POPACCU baselines, PageRank over
the web graph, and copy-detection-adjusted accuracy. Providers implement
the :class:`TrustSignal` protocol; a :class:`SignalSuite` runs a registry
of them over one shared :class:`CorpusContext` into an aligned
:class:`SignalFrame`, and :func:`fuse` combines the frame into one
calibrated fused trust score per website (Section 5.4.2's "combine KBT
with other signals").

Quickstart::

    from repro.signals import CorpusContext, SignalSuite, fuse

    context = CorpusContext(observations, gold_labels=gold)
    frame = SignalSuite().run(context, ["kbt", "pagerank", "copydetect"])
    fused = fuse(frame, gold_labels=gold)
    print(frame.compare("kbt", "pagerank")["correlation"])
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CopyAdjustedSignal": "repro.signals.providers",
    "CorpusContext": "repro.signals.base",
    "FusionResult": "repro.signals.fusion",
    "KBTSignal": "repro.signals.providers",
    "PageRankSignal": "repro.signals.providers",
    "SignalError": "repro.signals.base",
    "SignalFrame": "repro.signals.frame",
    "SignalScores": "repro.signals.base",
    "SignalSuite": "repro.signals.suite",
    "SingleLayerSignal": "repro.signals.providers",
    "TrustSignal": "repro.signals.base",
    "calibrate_weights": "repro.signals.fusion",
    "calibration_deviations": "repro.signals.fusion",
    "co_claim_graph": "repro.signals.base",
    "default_providers": "repro.signals.providers",
    "fuse": "repro.signals.fusion",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
