"""The trust-signal provider protocol and the shared corpus context.

KBT is deliberately *one* trust signal among several: the paper's Section
5.4.2 shows it is near-orthogonal to PageRank and proposes combining it
"with other signals" for source quality. This module defines the surface
every signal speaks:

* :class:`TrustSignal` — a provider with a ``name`` that can ``fit`` a
  shared :class:`CorpusContext` into :class:`SignalScores`;
* :class:`SignalScores` — per-website scores plus the support (evidence
  weight) behind each and free-form provenance metadata;
* :class:`CorpusContext` — everything a provider may need: the
  observation matrix, an optional hyperlink graph, optional gold labels,
  and a lazily fitted (and shared) multi-layer KBT model so providers
  that build on the KBT posterior do not refit it independently.

Providers must not mutate the context beyond its caches; the caches are
lock-protected so a :class:`~repro.signals.suite.SignalSuite` can run
independent providers concurrently.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    # The serving side imports this module for SignalScores and
    # SignalError; the corpus-side types stay out of its process.
    from repro.core.config import GranularityConfig, MultiLayerConfig
    from repro.core.kbt import FittedKBT
    from repro.core.observation import ObservationMatrix
    from repro.web.graph import WebGraph


class SignalError(ValueError):
    """A provider could not produce scores (bad input, unknown signal)."""


@dataclass(frozen=True)
class SignalScores:
    """One signal's output: per-website scores with support and metadata.

    ``scores`` maps website -> score (providers keep scores in [0, 1] so
    signals are comparable and fusable); ``support`` maps website -> the
    evidence weight behind the score (expected correct triples for KBT,
    claim counts for the single-layer baselines, in-degree for PageRank).
    ``metadata`` carries provider-specific provenance (JSON scalars only —
    it is embedded verbatim in trust artifacts).
    """

    name: str
    scores: dict[str, float]
    support: dict[str, float] = field(default_factory=dict)
    metadata: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.scores)

    def __contains__(self, website: str) -> bool:
        return website in self.scores

    def get(self, website: str) -> float | None:
        return self.scores.get(website)

    def websites(self) -> Iterator[str]:
        return iter(self.scores)


@runtime_checkable
class TrustSignal(Protocol):
    """The provider protocol every trust signal implements.

    Section 5.4.2 proposes combining KBT "with other signals" for
    source quality; a provider is anything with a stable ``name`` and a
    ``fit(context) -> SignalScores``. Invariants: scores lie in [0, 1]
    and are keyed by website, ``fit`` never mutates the shared context
    beyond its locked caches, and equal contexts give equal scores
    (providers derive all randomness from the corpus, not a clock).
    """

    @property
    def name(self) -> str:
        """Unique registry name (``kbt``, ``pagerank``, ...)."""
        ...

    def fit(self, context: "CorpusContext") -> SignalScores:
        """Compute this signal's scores over the shared corpus context."""
        ...


@dataclass
class CorpusContext:
    """The one corpus view every provider fits against.

    Args:
        observations: the extraction matrix (pre-granularity).
        graph: the hyperlink graph, when one is known. Providers that need
            a graph fall back to :meth:`web_graph`, which derives a
            co-claim proxy graph from the observations.
        gold_labels: website -> "is this site accurate" gold labels (for
            calibrated fusion weights; see :mod:`repro.signals.fusion`).
        config / granularity / min_triples / seed / backend /
            num_shards: the KBT pipeline knobs used by
            :meth:`fitted_kbt` — ``backend``/``num_shards`` select
            sharded execution for the shared fit (results are
            backend-invariant, so providers see the same scores either
            way).
        fitted: a pre-computed KBT fit to share (e.g. the one ``kbt fit``
            just produced); when omitted the first provider that needs it
            triggers one shared fit.
    """

    observations: ObservationMatrix
    graph: WebGraph | None = None
    gold_labels: Mapping[str, bool] | None = None
    config: MultiLayerConfig | None = None
    granularity: GranularityConfig | None = None
    min_triples: float = 5.0
    seed: int = 0
    backend: str | None = None
    num_shards: int | None = None
    fitted: "FittedKBT | None" = None
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    # The graph cache gets its own lock: deriving the co-claim proxy is
    # independent of the (much slower) KBT fit, and graph-only providers
    # must not queue behind it.
    _graph_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    _derived_graph: WebGraph | None = field(
        default=None, repr=False, compare=False
    )

    def fitted_kbt(self) -> "FittedKBT":
        """The shared multi-layer KBT fit (computed once, lock-protected)."""
        with self._lock:
            if self.fitted is None:
                from repro.core.kbt import KBTEstimator

                self.fitted = KBTEstimator(
                    config=self.config,
                    granularity=self.granularity,
                    min_triples=self.min_triples,
                    seed=self.seed,
                    backend=self.backend,
                    num_shards=self.num_shards,
                ).fit(self.observations)
            return self.fitted

    def web_graph(self) -> WebGraph:
        """The hyperlink graph, or a co-claim proxy derived from the corpus.

        Real crawls carry hyperlinks; a bare extraction corpus does not,
        so the fallback links websites that provide values for the same
        data items (both directions). Sites covering widely-claimed items
        accumulate in-links, which makes PageRank over the proxy a
        content-popularity signal — documented as a proxy in the signal
        metadata so consumers can tell the two apart.
        """
        if self.graph is not None:
            return self.graph
        with self._graph_lock:
            if self._derived_graph is None:
                self._derived_graph = co_claim_graph(self.observations)
            return self._derived_graph


#: Per-item cap on pairwise co-claim edges: items claimed by more sites
#: than this contribute edges only among their best-covered claimants,
#: keeping graph derivation out of the O(sites^2) regime on hub items.
_MAX_COCLAIM_SITES = 30


def co_claim_graph(observations: ObservationMatrix) -> WebGraph:
    """Derive the co-claim proxy graph over websites (see ``web_graph``)."""
    import numpy as np

    from repro.web.graph import WebGraph

    claim_counts: dict[str, int] = {}
    for source, size in observations.source_sizes().items():
        site = source.website
        claim_counts[site] = claim_counts.get(site, 0) + size
    graph = WebGraph(sorted(claim_counts))
    seen_pairs: set[tuple[str, str]] = set()
    columns = observations.columns()
    coords = columns.coords
    # Each item's cells, items in the order their first cell comes.
    by_item = np.argsort(columns.cell_item, kind="stable")
    starts = np.flatnonzero(np.diff(columns.cell_item[by_item], prepend=-1))
    bounds = [*starts.tolist(), len(by_item)]
    for g in np.argsort(by_item[starts]).tolist():
        cells = by_item[bounds[g] : bounds[g + 1]].tolist()
        sites = {coords[k][0].website for k in cells}
        if len(sites) < 2:
            continue
        ordered = sorted(
            sites, key=lambda site: (-claim_counts.get(site, 0), site)
        )[:_MAX_COCLAIM_SITES]
        for i, site_a in enumerate(ordered):
            for site_b in ordered[i + 1 :]:
                pair = (site_a, site_b)
                if pair in seen_pairs:
                    continue
                seen_pairs.add(pair)
                graph.add_edge(site_a, site_b)
                graph.add_edge(site_b, site_a)
    return graph
