"""Out-of-core shard streaming: peak-RSS ceiling vs the resident engine.

The paper's production run (2.8B triples, Table 7) relies on MapReduce so
no worker ever holds the corpus; ``MultiLayerConfig.spill_dir`` is the
single-machine analogue — shard packets and the compiled global arrays
live in memory-mapped spill files, and only one packet
(``max_resident_shards=1``) plus the parameter vectors stay materialized.
This bench measures what that buys: it runs the **resident** pipeline
(matrix -> unsharded numpy fit) and the **out-of-core** pipeline
(matrix -> compile -> release -> spill fit) over the same chunked KV
record stream, each in its own subprocess (``ru_maxrss`` is a
process-lifetime high-water mark), and records

* peak RSS of each pipeline and their ratio — the acceptance criterion
  demands out-of-core stays **below** the resident engine's peak at full
  scale;
* fit wall time of each — out-of-core must stay within **2x** of the
  resident fit;
* the bit-exact model digest of each — which must be **equal**: spilling
  changes where arrays live, never a single bit of the result.

Stats land in ``benchmarks/results/BENCH_outofcore.json``. Set
``OUTOFCORE_BENCH_SCALE=smoke`` for the reduced CI corpus (digest
equality still asserted; the RSS and wall-time gates need the full-scale
corpus to be meaningful).
"""

import json
import os
import subprocess
import sys
import tempfile

from _harness import gate_timings, is_smoke, save_result, save_stats
from _outofcore_child import NUM_SHARDS

from repro.util.tables import format_table

SMOKE = is_smoke("outofcore")

WEBSITES = 150 if SMOKE else 3_000
SEED = 29

#: Acceptance gates (full scale only).
MAX_WALL_RATIO = 2.0


def _run_child(mode: str, *extra: str) -> dict:
    """Run one pipeline in a fresh interpreter; parse its JSON line."""
    script = os.path.join(os.path.dirname(__file__), "_outofcore_child.py")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(os.path.dirname(__file__), os.pardir, "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    proc = subprocess.run(
        [sys.executable, script, mode, str(WEBSITES), str(SEED), *extra],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{mode} child failed (exit {proc.returncode}); stderr:\n"
            f"{proc.stderr.strip()[-2000:]}"
        )
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as err:
        raise RuntimeError(
            f"{mode} child produced no stats line; stdout tail:\n"
            f"{proc.stdout.strip()[-500:]}\nstderr tail:\n"
            f"{proc.stderr.strip()[-500:]}"
        ) from err


def run_outofcore_bench() -> tuple[str, dict]:
    resident = _run_child("resident")
    with tempfile.TemporaryDirectory(prefix="kbt-spill-") as spill_dir:
        outofcore = _run_child("outofcore", spill_dir)

    rss_ratio = outofcore["peak_rss_kb"] / resident["peak_rss_kb"]
    wall_ratio = outofcore["fit_wall_s"] / resident["fit_wall_s"]
    rows = [
        ["records", float(resident["records"])],
        ["shards (max_resident=1)", float(NUM_SHARDS)],
        ["resident peak RSS (MB)", resident["peak_rss_kb"] / 1024.0],
        ["out-of-core peak RSS (MB)", outofcore["peak_rss_kb"] / 1024.0],
        ["peak RSS ratio (ooc / resident)", rss_ratio],
        ["resident fit (s)", resident["fit_wall_s"]],
        ["out-of-core fit (s)", outofcore["fit_wall_s"]],
        ["fit wall ratio (ooc / resident)", wall_ratio],
        ["streamed compile (s)", outofcore["compile_wall_s"]],
        [
            "bit-identical",
            1.0 if resident["digest"] == outofcore["digest"] else 0.0,
        ],
    ]
    text = format_table(
        ["Metric", "Value"],
        rows,
        title=(
            "Out-of-core shard streaming vs resident numpy engine "
            f"({'smoke' if SMOKE else 'full'} corpus)"
        ),
        float_format="{:.4g}",
    )
    stats = {
        "corpus": {
            "records": resident["records"],
            "websites": WEBSITES,
            "num_shards": NUM_SHARDS,
            "max_resident_shards": 1,
        },
        "resident": resident,
        "outofcore": outofcore,
        "peak_rss_ratio": rss_ratio,
        "fit_wall_ratio": wall_ratio,
        "bit_identical": resident["digest"] == outofcore["digest"],
    }
    return text, stats


def test_bench_outofcore(benchmark):
    text, stats = benchmark.pedantic(
        run_outofcore_bench, rounds=1, iterations=1
    )
    save_result("outofcore", text)
    save_stats("outofcore", stats, scale="smoke" if SMOKE else "full")
    # Residency must never change a bit of the fitted model.
    assert stats["bit_identical"], (
        stats["resident"]["digest"],
        stats["outofcore"]["digest"],
    )
    # The acceptance gates: a measured peak-RSS ceiling below the
    # resident engine's, within 2x its fit wall time. Only meaningful on
    # the full-scale corpus — a smoke corpus is dominated by fixed
    # interpreter/numpy overhead in both pipelines.
    if gate_timings("outofcore"):
        assert stats["peak_rss_ratio"] < 1.0, stats["peak_rss_ratio"]
        assert stats["fit_wall_ratio"] <= MAX_WALL_RATIO, stats[
            "fit_wall_ratio"
        ]
