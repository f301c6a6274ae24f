"""Self-check of the benchmark at smoke scale (not a tier-1 test).

    python -m pytest benchmarks/e2e/test_selfcheck.py -q

Runs all five workloads, end to end and traced, and holds the result
file to the names in ``metrics.py`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import metrics  # noqa: E402
import procs  # noqa: E402


def run_smoke(out: Path) -> dict:
    # A process that outlived the run would be re-parented to this one.
    procs.adopt_orphans()
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "1",
         "--out", str(out)],
        check=True,
    )
    assert procs.children() == [], "the run left a process behind"
    return json.loads(out.read_text())


def test_benchmark_json_is_the_metric_table():
    on_disk = json.loads(compare.BENCHMARK.read_text())
    assert on_disk == metrics.benchmark_json()


def test_smoke_run_reports_every_metric(tmp_path):
    result = run_smoke(tmp_path / "smoke.json")
    assert result["scale"] == "smoke"
    for key in ("commit", "seed", "nproc", "cpu", "python", "numpy"):
        assert key in result
    assert list(result["workloads"]) == list(metrics.WORKLOADS)
    layers_seen = set()
    for name, entry in result["workloads"].items():
        assert entry["failed"] == 0, (name, entry["failures"])
        assert entry["attempted"] >= 1
        for metric, (unit, _better, _bound) in metrics.END_TO_END.items():
            stats = entry["metrics"][metric]
            assert stats["unit"] == unit
            assert math.isfinite(stats["value"]) and stats["value"] > 0, (
                name, metric)
            assert stats["n"] >= 1 and stats["q1"] <= stats["q3"]
        for layer, value in entry["layers"].items():
            assert layer in metrics.PER_LAYER, layer
            assert math.isfinite(value), (name, layer)
            layers_seen.add(layer)
        assert (HERE / "results" / f"trace-{name}.jsonl").stat().st_size > 0
    assert layers_seen == set(metrics.PER_LAYER)

    # A smoke file compares with itself and never with a full-scale one.
    benchmark = json.loads(compare.BENCHMARK.read_text())
    assert compare.compare(result, result, benchmark) == 0
    assert compare.compare(result, {**result, "scale": "full"}, benchmark) == 2
