"""The paper's motivating example, replayed step by step (Tables 2-4).

Eight webpages disagree about Barack Obama's nationality; five extractors
of varying quality read them. Counting (page, extractor) votes naively
gives USA and Kenya 12 supporters each — the multi-layer model instead
explains the Kenya extractions away as extractor noise.

Run:  python examples/obama_nationality.py
"""

from repro import MultiLayerConfig, MultiLayerModel, ObservationMatrix
from repro.datasets.motivating import (
    EXTRACTIONS,
    KENYA,
    USA,
    motivating_example,
    source_key,
)
from repro.util.logmath import log_odds, sigmoid


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


def show_table_2(example):
    print("Table 2 — what each extractor extracted from each page")
    header = f"{'page':5s} {'provides':9s} " + " ".join(
        f"{name:8s}" for name in EXTRACTIONS
    )
    print(" " + header)
    for page in (f"W{i}" for i in range(1, 9)):
        provided = example.page_values[page] or "-"
        cells = " ".join(
            f"{EXTRACTIONS[name].get(page, ''):8s}" for name in EXTRACTIONS
        )
        print(f" {page:5s} {provided:9s} {cells}")


def show_votes(example):
    print("\nTable 3 — per-extractor vote weights (from P, R, Q)")
    for name, quality in example.extractor_quality.items():
        print(
            f"  {name}: presence {quality.presence_vote:+5.2f}  "
            f"absence {quality.absence_vote:+5.2f}  "
            f"(P={quality.precision} R={quality.recall} Q={quality.q})"
        )


def vote_count(qualities, cell):
    """VCC' of one cell (Eq. 14 / 31): every extractor's absence vote,
    an extracting one's swapped for ``conf * Pre + (1 - conf) * Abs``."""
    vcc = sum(quality.absence_vote for quality in qualities.values())
    for extractor, confidence in cell.items():
        quality = qualities[extractor]
        vcc += confidence * (quality.presence_vote - quality.absence_vote)
    return vcc


def show_extraction_correctness(example):
    print("\nTable 4 — does the page really provide the triple? "
          "(vote count -> sigmoid)")
    obs = ObservationMatrix.from_records(example.records)
    for page, value in [
        ("W1", USA), ("W6", USA), ("W6", KENYA), ("W7", KENYA),
        ("W8", KENYA),
    ]:
        cell = extractions(obs, (source_key(page), example.item, value))
        vcc = vote_count(example.quality_by_key(), cell)
        p = sigmoid(vcc + log_odds(0.5))  # Eq. 15, at alpha = 0.5
        really = example.true_provided(page, value)
        print(
            f"  {page} claims {value:7s}: VCC {vcc:+6.2f} -> "
            f"p(C=1) = {p:.3f}   (ground truth: "
            f"{'provided' if really else 'not provided'})"
        )


def run_full_model(example):
    print("\nFull multi-layer inference (Algorithm 1):")
    obs = ObservationMatrix.from_records(example.records)
    result = MultiLayerModel(MultiLayerConfig()).fit(obs)
    p_usa = result.triple_probability(example.item, USA)
    p_kenya = result.triple_probability(example.item, KENYA)
    print(f"  p(nationality = USA)   = {p_usa:.4f}")
    print(f"  p(nationality = Kenya) = {p_kenya:.6f}")
    print("\n  page trust (A_w):")
    for page in (f"W{i}" for i in range(1, 9)):
        accuracy = result.source_accuracy[source_key(page)]
        truth = example.page_values[page]
        label = f"provides {truth}" if truth else "provides nothing"
        print(f"    {page}: {accuracy:.3f}   ({label})")
    print("\n  learned extractor quality:")
    for name in EXTRACTIONS:
        from repro.datasets.motivating import extractor_key

        quality = result.extractor_quality[extractor_key(name)]
        print(
            f"    {name}: precision {quality.precision:.2f}, "
            f"recall {quality.recall:.2f}"
        )


def main():
    example = motivating_example()
    show_table_2(example)
    show_votes(example)
    show_extraction_correctness(example)
    run_full_model(example)


if __name__ == "__main__":
    main()
