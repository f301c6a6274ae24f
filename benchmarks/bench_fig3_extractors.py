"""Figure 3: SqV / SqC / SqA vs number of extractors, single vs multi layer.

The Section 5.2 synthetic sweep: 10 sources (A=0.7), extractors varying
from 1 to 10 (delta=0.5, R=0.5, P=0.8), averaged over repeats. Expected
shapes (paper): SqV drops quickly for the multi-layer model, SqC decreases
more slowly, SqA stays low/stable for MULTILAYER while it *increases* for
SINGLELAYER as noisy extractors are added.
"""

import statistics

from conftest import save_result

from repro.core.config import (
    AbsenceScope,
    MultiLayerConfig,
    SingleLayerConfig,
)
from repro.core.multi_layer import MultiLayerModel
from repro.core.observation import ObservationMatrix
from repro.core.single_layer import SingleLayerModel
from repro.datasets.synthetic import SyntheticConfig, generate
from repro.eval.metrics import (
    sq_accuracy_loss,
    sq_extraction_loss,
    sq_value_loss,
    triple_predictions,
)
from repro.util.tables import format_table

EXTRACTOR_COUNTS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
SEEDS = (31, 32, 33)


def labels_for(data, obs):
    return {
        (item, value): data.true_values.get(item) == value
        for _source, item, value in obs.columns().coords
    }


def single_layer_source_accuracy(result, obs):
    """The paper's single-layer A_w: mean triple posterior over every triple
    extracted from the source (all extractors pooled)."""
    claims = {}
    for source, item, value in obs.columns().coords:
        claims.setdefault(source, []).append((item, value))
    estimates = {}
    for source, triples in claims.items():
        probabilities = [
            result.triple_probability(item, value) for item, value in triples
        ]
        probabilities = [p for p in probabilities if p is not None]
        if probabilities:
            estimates[source] = statistics.mean(probabilities)
    return estimates


def run_sweep() -> str:
    multi_cfg = MultiLayerConfig(absence_scope=AbsenceScope.ACTIVE)
    single_cfg = SingleLayerConfig(n=10)
    rows = []
    for num_extractors in EXTRACTOR_COUNTS:
        metrics = {key: [] for key in
                   ("sqv_m", "sqc_m", "sqa_m", "sqv_s", "sqa_s")}
        for seed in SEEDS:
            data = generate(
                SyntheticConfig(seed=seed, num_extractors=num_extractors)
            )
            obs = ObservationMatrix.from_records(data.records)
            labels = labels_for(data, obs)

            multi = MultiLayerModel(multi_cfg).fit(obs)
            metrics["sqv_m"].append(
                sq_value_loss(triple_predictions(multi, labels), labels)
            )
            metrics["sqc_m"].append(
                sq_extraction_loss(multi.extraction_posteriors, data.provided)
            )
            metrics["sqa_m"].append(
                sq_accuracy_loss(multi.source_accuracy, data.true_accuracy)
            )

            single = SingleLayerModel(single_cfg).fit(obs)
            metrics["sqv_s"].append(
                sq_value_loss(triple_predictions(single, labels), labels)
            )
            metrics["sqa_s"].append(
                sq_accuracy_loss(
                    single_layer_source_accuracy(single, obs),
                    data.true_accuracy,
                )
            )
        rows.append(
            [num_extractors]
            + [statistics.mean(metrics[k]) for k in
               ("sqv_s", "sqv_m", "sqc_m", "sqa_s", "sqa_m")]
        )
    return format_table(
        ["#Extractors", "SqV single", "SqV multi", "SqC multi",
         "SqA single", "SqA multi"],
        rows,
        title=(
            "Figure 3: square losses vs #extractors "
            "(paper shape: SqV/SqC fall for multi; SqA grows for single, "
            "stays low for multi)"
        ),
        float_format="{:.3f}",
    )


def test_bench_fig3(benchmark):
    text = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    save_result("fig3_extractors", text)
    lines = [l for l in text.splitlines() if l and l[0].isdigit()]
    first, last = lines[0].split(), lines[-1].split()
    # Multi-layer SqV must fall as extractors are added.
    assert float(last[2]) < float(first[2])
    # Single-layer SqA must end above multi-layer SqA.
    assert float(last[4]) > float(last[5])
