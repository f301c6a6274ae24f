"""Tables 2-4 + Examples 3.1-3.3: the worked example, replayed end to end.

Regenerates the paper's walkthrough numbers from the library's vote algebra:
the Table 3 vote weights, the Table 4 extraction-correctness column, the
Example 3.2 value posteriors, and the Example 3.3 prior update.
"""

from conftest import save_result

from repro.core.observation import ObservationMatrix
from repro.core.votes import accuracy_vote, value_posteriors
from repro.datasets.motivating import (
    EXTRACTIONS,
    KENYA,
    N_AMERICA,
    USA,
    motivating_example,
    source_key,
)
from repro.util.logmath import log_odds, sigmoid
from repro.util.tables import format_table


def extractions(obs, coord):
    """One cell's extractions, {extractor: confidence}, from the columns."""
    columns = obs.columns()
    extractors = list(obs.extractors())
    entries = columns.entry_cell == columns.coords.index(coord)
    return dict(
        zip(
            [extractors[e] for e in columns.entry_extractor[entries].tolist()],
            columns.entry_conf[entries].tolist(),
        )
    )


def vote_count(qualities, cell) -> float:
    """VCC' of one cell (Eq. 14 / 31): every extractor's absence vote,
    an extracting one's swapped for ``conf * Pre + (1 - conf) * Abs``."""
    vcc = sum(quality.absence_vote for quality in qualities.values())
    for extractor, confidence in cell.items():
        quality = qualities[extractor]
        vcc += confidence * (quality.presence_vote - quality.absence_vote)
    return vcc


def run_motivating_tables() -> str:
    ex = motivating_example()
    qualities = ex.quality_by_key()
    obs = ObservationMatrix.from_records(ex.records)
    sections = []

    # --- Table 2: the observation matrix ------------------------------
    pages = [f"W{i}" for i in range(1, 9)]
    rows = []
    for page in pages:
        row = [page, ex.page_values[page] or "-"]
        for name in ("E1", "E2", "E3", "E4", "E5"):
            row.append(EXTRACTIONS[name].get(page, ""))
        rows.append(row)
    sections.append(
        format_table(
            ["Page", "Value", "E1", "E2", "E3", "E4", "E5"],
            rows,
            title="Table 2: Obama's nationality as extracted by 5 extractors",
        )
    )

    # --- Table 3: extractor qualities and votes -----------------------
    rows = []
    for name, quality in ex.extractor_quality.items():
        rows.append(
            [
                name,
                quality.q,
                quality.recall,
                quality.precision,
                quality.presence_vote,
                quality.absence_vote,
            ]
        )
    sections.append(
        format_table(
            ["Extractor", "Q", "R", "P", "Pre", "Abs"],
            rows,
            title=(
                "Table 3: extractor quality and vote counts "
                "(paper: Pre 4.6/3.9/2.8/0.4/0, Abs -4.6/-0.7/-4.5/-0.15/0)"
            ),
            float_format="{:.2f}",
        )
    )

    # --- Table 4: extraction correctness + value posterior ------------
    cases = [
        ("W1", USA), ("W1", KENYA), ("W2", USA), ("W2", N_AMERICA),
        ("W3", USA), ("W3", N_AMERICA), ("W4", USA), ("W4", KENYA),
        ("W5", KENYA), ("W6", USA), ("W6", KENYA), ("W7", KENYA),
        ("W8", KENYA),
    ]
    rows = []
    for page, value in cases:
        cell = extractions(obs, (source_key(page), ex.item, value))
        vcc = vote_count(qualities, cell)
        # Eq. 15: p(C = 1 | X) = sigma(VCC + log-odds(alpha)).
        rows.append([page, value, vcc, sigmoid(vcc + log_odds(0.5))])
    sections.append(
        format_table(
            ["Page", "Value", "VCC", "p(C=1|X)"],
            rows,
            title="Table 4 (cols 2-4): extraction correctness at alpha=0.5",
        )
    )

    # --- Example 3.2: value posterior with A=0.6, n=10 ----------------
    vote = accuracy_vote(0.6, 10)
    posterior = value_posteriors({USA: 4 * vote, KENYA: 2 * vote}, 11)
    sections.append(
        "Example 3.2: VCV per source = {:.2f} (paper 2.7); ".format(vote)
        + "p(USA) = {:.4f} (paper .995), p(Kenya) = {:.4f} (paper .004)".format(
            posterior[USA], posterior[KENYA]
        )
    )

    # --- Example 3.3: prior re-estimation ------------------------------
    alpha = 0.004 * 0.6 + (1 - 0.004) * (1 - 0.6)
    updated = sigmoid(-2.65 + log_odds(alpha))
    sections.append(
        "Example 3.3: updated prior = {:.3f} (paper 0.4); ".format(alpha)
        + "updated posterior = {:.3f} (paper 0.04)".format(updated)
    )
    return "\n\n".join(sections)


def test_bench_motivating_example(benchmark):
    text = benchmark.pedantic(run_motivating_tables, rounds=1, iterations=1)
    save_result("table234_motivating", text)
    assert "Table 4" in text
