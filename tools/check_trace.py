#!/usr/bin/env python3
"""Check a ``kbt fit --trace`` file against the spans the docs list.

    python tools/check_trace.py trace.jsonl [ITERATIONS]

Every span in the span table of ``docs/architecture.md`` (section
"Observability") must appear in the trace, every line must parse, the
iteration lines must carry their four fields (and, given ITERATIONS,
number 1 .. ITERATIONS), and the last line must be the Table 7 line.
Exits 1, naming what is missing, otherwise.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs" / "architecture.md"
SECTION = "## Observability: `repro.obs` and `kbt fit --trace`"
ITERATION_FIELDS = {
    "iteration", "accuracy_delta", "extractor_delta", "crossed"
}


def documented_spans() -> set[str]:
    """The first-column names of the span table in the docs section."""
    text = DOCS.read_text(encoding="utf-8")
    section = text[text.index(SECTION):]
    section = section[: section.find("\n## ", len(SECTION))]
    return set(re.findall(r"^\| `([a-z_.]+)` \|", section, re.MULTILINE))


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    text = Path(argv[1]).read_text(encoding="utf-8")
    lines = [json.loads(line) for line in text.splitlines()]
    problems = []
    spans = documented_spans()
    if not spans:
        problems.append(f"no span table found in {DOCS}")
    seen = {line["span"] for line in lines if "span" in line}
    missing = sorted(spans - seen)
    if missing:
        problems.append(f"spans missing from the trace: {missing}")
    iterations = [line for line in lines if "iteration" in line]
    if not iterations:
        problems.append("no iteration line")
    for line in iterations:
        if set(line) != ITERATION_FIELDS:
            problems.append(f"malformed iteration line: {line}")
    numbers = [line["iteration"] for line in iterations]
    if len(argv) == 3 and numbers != list(range(1, int(argv[2]) + 1)):
        problems.append(f"iterations {numbers}, expected 1 .. {argv[2]}")
    table = lines[-1].get("table7") if lines else None
    if not (
        isinstance(table, dict)
        and table.get("iterations") == len(iterations)
        and isinstance(table.get("seconds_per_iteration"), dict)
    ):
        problems.append(f"last line is not the Table 7 line: {lines[-1:]}")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if not problems:
        print(
            f"trace ok: {len(spans)} documented spans, "
            f"{len(iterations)} iterations, Table 7 {table}"
        )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
