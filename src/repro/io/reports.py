"""CSV output of KBT scores."""

from __future__ import annotations

import csv
from pathlib import Path

from repro.core.kbt import key_text, score_sort_key
from repro.core.types import KBTScore


def write_score_csv(
    scores: dict[object, KBTScore], path: str | Path
) -> int:
    """Write (key, kbt, support) rows sorted by descending trust.

    Ties break on the rendered key, so the output is deterministic for
    any input dict ordering — equal fits produce byte-identical files.
    """
    ordered = sorted(scores.values(), key=score_sort_key)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["key", "kbt", "support"])
        for score in ordered:
            writer.writerow([key_text(score.key), f"{score.score:.6f}",
                             f"{score.support:.2f}"])
    return len(ordered)
