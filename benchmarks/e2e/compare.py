"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

A is the baseline, B the candidate. One row per (workload, end-to-end
metric) with a verdict against the metric's bound in ``BENCHMARK.json``:

* ``improved``   B's worse quartile beats A's better quartile, by more
  than a tenth of the bound
* ``within``     B's median is no worse than A's by more than the bound
* ``regressed``  it is worse by more than the bound
* ``unresolved`` either file's own spread (IQR / median of the samples
  inside that run) is wider than the bound, so the row decides nothing

For equal seeds the recorded sha256 digests must be equal too. Exits 1
on any regression or digest mismatch, 2 if the files cannot be compared.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def spread(stats: dict) -> float:
    return abs(stats["q3"] - stats["q1"]) / abs(stats["value"])


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """The row's verdict and B's worsening as a share of A's median."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b["value"] - a["value"]) / abs(a["value"])
    # "Beats": B's quartile on its bad side vs A's on its good side.
    b_bad, a_good = (b["q3"], a["q1"]) if better == "lower" else (b["q1"], a["q3"])
    if sign * (b_bad - a_good) < 0 and -worse > bound / 10:
        return "improved", worse
    if max(spread(a), spread(b)) > bound:
        return "unresolved", worse
    return ("regressed" if worse > bound else "within"), worse


def compare(a: dict, b: dict, benchmark: dict) -> int:
    if a["scale"] != b["scale"]:
        print(f"refusing: scale {a['scale']!r} vs {b['scale']!r}")
        return 2
    if a["seconds"] != b["seconds"]:
        print(f"refusing: {a['seconds']} s runs vs {b['seconds']} s runs")
        return 2
    bounds = {
        m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]
    }
    bad = 0
    print(f"{'workload':<14}{'metric':<27}{'A':>12}{'B':>12}{'worse':>9}"
          f"{'spread':>9}{'bound':>7}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, stats_a in wa["metrics"].items():
            stats_b = wb["metrics"][metric]
            if metric in bounds:
                better, bound = bounds[metric]
                word, worse = verdict(stats_a, stats_b, better, bound)
                bad += word == "regressed"
                limit = f"{bound:.0%}"
            else:
                limit, word = "-", "ungated"
                worse = (stats_b["value"] - stats_a["value"]) / stats_a["value"]
            print(
                f"{name:<14}{metric:<27}{stats_a['value']:>12.4f}"
                f"{stats_b['value']:>12.4f}{worse:>+9.1%}"
                f"{max(spread(stats_a), spread(stats_b)):>9.1%}"
                f"{limit:>7}  {word}"
            )
        for side, entry in (("A", wa), ("B", wb)):
            if entry["failed"]:
                print(f"{name}: {side} failed {entry['failed']} of "
                      f"{entry['attempted']} operations: {entry['failures']}")
                bad += 1
        if a["seed"] == b["seed"]:
            for key, digest in wa["digests"].items():
                same = wb["digests"].get(key) == digest
                bad += not same
                print(f"{name:<14}{key:<27}{'equal' if same else 'DIFFERENT'}")
    print("no regression" if not bad else f"{bad} regression(s) or mismatch(es)")
    return 1 if bad else 0


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in sys.argv[1:])
    return compare(a, b, json.loads(BENCHMARK.read_text()))


if __name__ == "__main__":
    sys.exit(main())
