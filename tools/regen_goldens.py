#!/usr/bin/env python3
"""Regenerate the determinism-ladder golden digests.

The ladder suite (``tests/test_determinism_ladder.py``) pins the float64
fit over the committed corpus ``tests/goldens/corpus.jsonl`` to sha256
digests in ``tests/goldens/ladder_digests.json``. When an *intended*
numerical change moves those bytes (new default, reordered reduction),
rerun this and commit the diff::

    python tools/regen_goldens.py

``--corpus`` additionally regenerates the committed corpora themselves
(only needed when the synthetic generator or the record schema changes —
this invalidates the digests too, so they are recomputed after).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))


def regen_corpora() -> None:
    from repro.datasets.synthetic import SyntheticConfig, generate
    from repro.io.jsonl import write_records

    goldens_dir = ROOT / "tests" / "goldens"
    goldens_dir.mkdir(parents=True, exist_ok=True)
    fit = generate(
        SyntheticConfig(
            num_sources=8, num_extractors=4, num_items=30, seed=123
        )
    ).records
    updates = generate(
        SyntheticConfig(
            num_sources=4, num_extractors=3, num_items=12, seed=321
        )
    ).records
    write_records(fit, goldens_dir / "corpus.jsonl")
    write_records(updates, goldens_dir / "updates.jsonl")
    print(
        f"rewrote corpus.jsonl ({len(fit)} records) and "
        f"updates.jsonl ({len(updates)} records)"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--corpus",
        action="store_true",
        help="also regenerate the committed corpora (rarely needed)",
    )
    args = parser.parse_args()

    if args.corpus:
        regen_corpora()

    import test_determinism_ladder

    goldens = test_determinism_ladder.regenerate()
    print(f"wrote {test_determinism_ladder.DIGESTS_PATH}:")
    print(json.dumps(goldens, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
