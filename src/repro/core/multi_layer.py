"""The multi-layer model (Section 3): joint inference over C, V, A, P/R/Q.

This is the paper's main contribution. Two layers of latent variables —
``C_wdv`` (does source ``w`` really provide triple (d, v)?) and ``V_d`` (the
true value of data item ``d``) — are estimated together with the source
accuracies ``A_w`` and the extractor qualities ``(P_e, R_e, Q_e)`` by the
EM-like procedure of Algorithm 1:

1. **C step** (Section 3.3.1): ``p(C_wdv | X) = sigma(VCC' + log-odds(prior))``
   from the extractors' presence/absence votes (Eq. 15 / 31).
2. **V step** (Section 3.3.2-3.3.3): ``p(V_d | X)`` from source accuracy
   votes, weighted by the C posteriors (Eq. 23-25) or by the MAP ``Chat``
   (the Table 6 ablation).
3. **theta_1** (Section 3.4.1): ``A_w`` as the C-weighted average probability
   of the triples the source provides (Eq. 28) — this is the KBT estimate.
4. **theta_2** (Section 3.4.2): extractor precision/recall from the C
   posteriors (Eq. 29-33), with ``Q_e`` derived via Eq. 7.
5. **Prior re-estimation** (Section 3.3.4): ``p(C_wdv = 1)`` updated from the
   previous iteration's value posteriors (Eq. 26), by default from the third
   iteration on.

Sources and extractors with fewer observations than the configured support
keep their default quality and are excluded from inference; triples seen
only through excluded parties receive no probability (coverage < 1,
Section 5.1.1).

The steps run as array passes (:mod:`repro.core.engine_numpy`, looped by
:func:`repro.exec.driver.fit_sharded`); ``tests/multi_layer_reference.py``
keeps the Eq.-by-Eq. dict version they are tested against.
"""

from __future__ import annotations

from repro.core.config import MultiLayerConfig
from repro.core.engine_numpy import fit_numpy
from repro.core.observation import ObservationMatrix
from repro.core.quality import ExtractorQuality
from repro.core.results import MultiLayerResult
from repro.core.types import ExtractorKey, SourceKey


class MultiLayerModel:
    """Algorithm 1: MULTILAYER(X, t_max)."""

    def __init__(self, config: MultiLayerConfig | None = None) -> None:
        self._config = config or MultiLayerConfig()

    @property
    def config(self) -> MultiLayerConfig:
        return self._config

    def fit(
        self,
        observations: ObservationMatrix,
        initial_source_accuracy: dict[SourceKey, float] | None = None,
        initial_extractor_quality: dict[ExtractorKey, ExtractorQuality]
        | None = None,
        frozen_extractors: set[ExtractorKey] | None = None,
        frozen_sources: set[SourceKey] | None = None,
    ) -> MultiLayerResult:
        """Run Algorithm 1 on an observation matrix.

        Args:
            observations: the extraction cube X.
            initial_source_accuracy: optional gold-standard initialisation of
                A_w (the "+" variants of Section 5.1.2).
            initial_extractor_quality: optional initial (P, R, Q) per
                extractor.
            frozen_extractors: extractors whose quality stays pinned at its
                initial value (the theta_2 update skips them). Warm-start
                incremental scoring (``FittedKBT.update``) passes the
                converged extractors here, so columns first seen in the
                delta still adapt. ``config.freeze_extractor_quality``
                freezes all of them; nothing in the library sets it.
            frozen_sources: sources whose accuracy stays pinned at its
                initial value (the theta_1 update skips them). Incremental
                scoring pins converged sources — a delta sub-problem only
                sees a biased slice of their claims — while new sources
                are estimated normally.
        """
        return fit_numpy(
            self._config,
            observations,
            initial_source_accuracy,
            initial_extractor_quality,
            frozen_extractors,
            frozen_sources,
        )
