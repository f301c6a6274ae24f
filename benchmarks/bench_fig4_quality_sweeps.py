"""Figure 4: multi-layer square losses vs extractor R, P and source A.

One knob sweeps 0.1..0.9 while the rest stay at the Section 5.2 defaults.
Expected shape (paper): losses generally fall as quality rises, with the
noted deviations — SqA does not fall when extractor recall rises (more
extractions bring more noise), and SqV can tick up slightly with extractor
precision / source accuracy as false triples earn a bit more trust.
"""

import statistics

from conftest import save_result

from repro.core.config import AbsenceScope, MultiLayerConfig
from repro.core.multi_layer import MultiLayerModel
from repro.core.observation import ObservationMatrix
from repro.datasets.synthetic import SyntheticConfig, generate
from repro.eval.metrics import (
    sq_accuracy_loss,
    sq_extraction_loss,
    sq_value_loss,
    triple_predictions,
)
from repro.util.tables import format_table

SWEEP = (0.1, 0.3, 0.5, 0.7, 0.9)
SEEDS = (41, 42, 43)
KNOBS = {
    "extractor recall (R)": "extractor_recall",
    "extractor precision (P)": "component_precision",
    "source accuracy (A)": "source_accuracy",
}


def run_one(config: SyntheticConfig):
    data = generate(config)
    obs = ObservationMatrix.from_records(data.records)
    labels = {
        (item, value): data.true_values.get(item) == value
        for _source, item, value in obs.columns().coords
    }
    result = MultiLayerModel(
        MultiLayerConfig(absence_scope=AbsenceScope.ACTIVE)
    ).fit(obs)
    return (
        sq_value_loss(triple_predictions(result, labels), labels),
        sq_extraction_loss(result.extraction_posteriors, data.provided),
        sq_accuracy_loss(result.source_accuracy, data.true_accuracy),
    )


def run_sweeps() -> str:
    sections = []
    for title, attribute in KNOBS.items():
        rows = []
        for value in SWEEP:
            sqv, sqc, sqa = [], [], []
            for seed in SEEDS:
                config = SyntheticConfig(**{attribute: value, "seed": seed})
                v, c, a = run_one(config)
                sqv.append(v)
                sqc.append(c)
                sqa.append(a)
            rows.append(
                [value, statistics.mean(sqv), statistics.mean(sqc),
                 statistics.mean(sqa)]
            )
        sections.append(
            format_table(
                [title, "SqV", "SqC", "SqA"],
                rows,
                title=f"Figure 4: square loss when varying {title}",
                float_format="{:.3f}",
            )
        )
    return "\n\n".join(sections)


def test_bench_fig4(benchmark):
    text = benchmark.pedantic(run_sweeps, rounds=1, iterations=1)
    save_result("fig4_quality_sweeps", text)
    assert text.count("Figure 4") == 3
