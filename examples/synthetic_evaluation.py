"""Controlled evaluation on synthetic data with known ground truth.

Reproduces a slice of Figure 3: as extractors are added, the multi-layer
model's errors on triple truth (SqV), extraction correctness (SqC) and
source accuracy (SqA) all shrink, while the single-layer baseline's
source-accuracy error *grows* (it blames sources for extractor noise).

Run:  python examples/synthetic_evaluation.py
"""

import statistics

from repro import (
    AbsenceScope,
    MultiLayerConfig,
    MultiLayerModel,
    ObservationMatrix,
    SingleLayerConfig,
    SingleLayerModel,
)
from repro.datasets.synthetic import SyntheticConfig, generate
from repro.eval.metrics import (
    sq_accuracy_loss,
    sq_extraction_loss,
    sq_value_loss,
    triple_predictions,
)


def single_layer_site_accuracy(result, obs):
    """Single-layer A_w: mean triple posterior over the source's triples."""
    claims = {}
    for source, item, value in obs.columns().coords:
        claims.setdefault(source, []).append((item, value))
    estimates = {}
    for source, triples in claims.items():
        ps = [result.triple_probability(item, v) for item, v in triples]
        ps = [p for p in ps if p is not None]
        if ps:
            estimates[source] = statistics.mean(ps)
    return estimates


def evaluate(num_extractors: int, seed: int = 11):
    data = generate(SyntheticConfig(seed=seed, num_extractors=num_extractors))
    obs = ObservationMatrix.from_records(data.records)
    labels = {
        (item, value): data.true_values.get(item) == value
        for _source, item, value in obs.columns().coords
    }

    multi = MultiLayerModel(
        MultiLayerConfig(absence_scope=AbsenceScope.ACTIVE)
    ).fit(obs)
    single = SingleLayerModel(SingleLayerConfig(n=10)).fit(obs)

    return {
        "sqv_multi": sq_value_loss(
            triple_predictions(multi, labels), labels
        ),
        "sqc_multi": sq_extraction_loss(
            multi.extraction_posteriors, data.provided
        ),
        "sqa_multi": sq_accuracy_loss(
            multi.source_accuracy, data.true_accuracy
        ),
        "sqa_single": sq_accuracy_loss(
            single_layer_site_accuracy(single, obs), data.true_accuracy
        ),
    }


def spark(value: float, scale: float = 0.5, width: int = 24) -> str:
    filled = int(min(value / scale, 1.0) * width)
    return "#" * filled


def main():
    print("10 sources (A=0.7), extractors with delta=0.5 R=0.5 P=0.8\n")
    print(f"{'#ext':>4} {'SqV multi':>10} {'SqC multi':>10} "
          f"{'SqA multi':>10} {'SqA single':>11}")
    results = {}
    for num_extractors in (1, 2, 3, 5, 7, 10):
        metrics = evaluate(num_extractors)
        results[num_extractors] = metrics
        print(
            f"{num_extractors:>4} {metrics['sqv_multi']:>10.3f} "
            f"{metrics['sqc_multi']:>10.3f} {metrics['sqa_multi']:>10.3f} "
            f"{metrics['sqa_single']:>11.3f}"
        )

    print("\nSqA as extractors are added (multi stays low, single grows):")
    for num_extractors, metrics in results.items():
        print(f"  E={num_extractors:>2} multi  |{spark(metrics['sqa_multi'])}")
        print(f"       single |{spark(metrics['sqa_single'])}")


if __name__ == "__main__":
    main()
