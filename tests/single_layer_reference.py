"""The dict-walking single-layer baseline, as it was before it ran on the
matrix columns: the parity oracle of ``tests/test_single_layer.py``.

Copied verbatim from the former ``repro.core.single_layer``: provenance
claims and claimants are built by one loop over ``cells()``, and the E
step sums each value's votes over a ``set`` of provenances. The library's
array ``SingleLayerModel`` must match it to <= 1e-12. It walks the
matrix's cells through ``tests/matrix_reference.reference_of``.
"""

from __future__ import annotations

from collections.abc import Callable

from matrix_reference import reference_of
from repro.core.config import FalseValueModel, SingleLayerConfig
from repro.core.observation import ObservationMatrix
from repro.core.results import IterationSnapshot, ProvenanceKey, SingleLayerResult
from repro.core.types import DataItem, ExtractorKey, SourceKey, Value
from repro.core.votes import value_posteriors
from repro.util.logmath import clamp, log_odds, safe_log

#: Maps (extractor, source) to a provenance identity. The default keeps the
#: pair; Section 5.1.2 uses (extractor, website, predicate, pattern).
ProvenanceFn = Callable[[ExtractorKey, SourceKey], ProvenanceKey]


def default_provenance(
    extractor: ExtractorKey, source: SourceKey
) -> ProvenanceKey:
    """The (extractor, web source) pair itself, as in Figure 1(a)."""
    return (extractor, source)


class SingleLayerModel:
    """ACCU / POPACCU fusion over provenances, with EM parameter estimation."""

    def __init__(
        self,
        config: SingleLayerConfig | None = None,
        provenance_fn: ProvenanceFn = default_provenance,
    ) -> None:
        self._config = config or SingleLayerConfig()
        self._provenance_fn = provenance_fn

    @property
    def config(self) -> SingleLayerConfig:
        return self._config

    def fit(
        self,
        observations: ObservationMatrix,
        initial_accuracy: dict[ProvenanceKey, float] | None = None,
    ) -> SingleLayerResult:
        """Run fusion and return triple posteriors + provenance accuracies.

        Args:
            observations: the extraction matrix; extractor confidences are
                ignored (the single-layer baseline is binary, Section 5.1.2).
            initial_accuracy: optional smart initialisation (the "+" method
                variants) mapping provenance -> initial accuracy.
        """
        cfg = self._config
        observations = reference_of(observations)
        claims, claimants = self._build_provenance_view(observations)
        participating = {
            prov
            for prov, triples in claims.items()
            if len(triples) >= cfg.min_source_support
        }
        accuracy: dict[ProvenanceKey, float] = {
            prov: cfg.default_accuracy for prov in claims
        }
        if initial_accuracy:
            for prov, value in initial_accuracy.items():
                if prov in accuracy:
                    accuracy[prov] = clamp(value, 1e-4, 1.0 - 1e-4)

        popularity = (
            self._value_popularity(claimants)
            if cfg.false_value_model is FalseValueModel.POPACCU
            else None
        )

        history: list[IterationSnapshot] = []
        posteriors: dict[DataItem, dict[Value, float]] = {}
        for iteration in range(1, cfg.convergence.max_iterations + 1):
            posteriors = self._estimate_values(
                claimants, accuracy, participating, popularity
            )
            max_delta = self._update_accuracy(
                claims, accuracy, participating, posteriors
            )
            history.append(IterationSnapshot(iteration, max_delta))
            if max_delta < cfg.convergence.tolerance:
                break

        return SingleLayerResult(
            value_posteriors=posteriors,
            provenance_accuracy=accuracy,
            participating=participating,
            num_triples_total=observations.num_triples,
            history=history,
        )

    # ------------------------------------------------------------------
    # Internal steps
    # ------------------------------------------------------------------
    def _build_provenance_view(
        self, observations: ObservationMatrix
    ) -> tuple[
        dict[ProvenanceKey, list[tuple[DataItem, Value]]],
        dict[DataItem, dict[Value, set[ProvenanceKey]]],
    ]:
        """Flatten the cube into provenance claims (Figure 1(a))."""
        claims: dict[ProvenanceKey, list[tuple[DataItem, Value]]] = {}
        claimants: dict[DataItem, dict[Value, set[ProvenanceKey]]] = {}
        for (source, item, value), cell in observations.cells():
            for extractor in cell:
                prov = self._provenance_fn(extractor, source)
                provs = claimants.setdefault(item, {}).setdefault(value, set())
                if prov not in provs:
                    provs.add(prov)
                    claims.setdefault(prov, []).append((item, value))
        return claims, claimants

    @staticmethod
    def _value_popularity(
        claimants: dict[DataItem, dict[Value, set[ProvenanceKey]]],
    ) -> dict[DataItem, dict[Value, float]]:
        """Empirical value distribution per item (POPACCU), Laplace-smoothed."""
        popularity: dict[DataItem, dict[Value, float]] = {}
        for item, values in claimants.items():
            total = sum(len(provs) for provs in values.values())
            denom = total + len(values)
            popularity[item] = {
                value: (len(provs) + 1.0) / denom
                for value, provs in values.items()
            }
        return popularity

    def _estimate_values(
        self,
        claimants: dict[DataItem, dict[Value, set[ProvenanceKey]]],
        accuracy: dict[ProvenanceKey, float],
        participating: set[ProvenanceKey],
        popularity: dict[DataItem, dict[Value, float]] | None,
    ) -> dict[DataItem, dict[Value, float]]:
        """E step: p(V_d | X, A) via vote counting (Eq. 2 / Eq. 21)."""
        cfg = self._config
        log_n = safe_log(float(cfg.n))
        posteriors: dict[DataItem, dict[Value, float]] = {}
        for item, values in claimants.items():
            votes: dict[Value, float] = {}
            for value, provs in values.items():
                vote = 0.0
                supported = False
                for prov in provs:
                    if prov not in participating:
                        continue
                    supported = True
                    if popularity is None:
                        vote += log_n + log_odds(accuracy[prov])
                    else:
                        vote += log_odds(accuracy[prov]) - safe_log(
                            popularity[item][value]
                        )
                if supported:
                    votes[value] = vote
            if votes:
                posteriors[item] = value_posteriors(votes, cfg.n + 1)
        return posteriors

    def _update_accuracy(
        self,
        claims: dict[ProvenanceKey, list[tuple[DataItem, Value]]],
        accuracy: dict[ProvenanceKey, float],
        participating: set[ProvenanceKey],
        posteriors: dict[DataItem, dict[Value, float]],
    ) -> float:
        """M step: A_s = average posterior of claimed triples (Eq. 4)."""
        max_delta = 0.0
        for prov in participating:
            triples = claims[prov]
            total = 0.0
            count = 0
            for item, value in triples:
                values = posteriors.get(item)
                if values is None or value not in values:
                    continue
                total += values[value]
                count += 1
            if count == 0:
                continue
            new_accuracy = clamp(total / count, 1e-4, 1.0 - 1e-4)
            max_delta = max(max_delta, abs(new_accuracy - accuracy[prov]))
            accuracy[prov] = new_accuracy
        return max_delta
