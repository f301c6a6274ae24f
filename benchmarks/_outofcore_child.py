"""Subprocess worker for the out-of-core bench (one pipeline per process).

``bench_outofcore.py`` measures peak RSS, and ``ru_maxrss`` is a
process-lifetime high-water mark — the resident and out-of-core
pipelines must therefore run in *separate* processes. This module is
both the shared corpus definition (imported by the bench) and the child
entry point::

    python benchmarks/_outofcore_child.py <resident|outofcore> \
        <websites> <seed> [spill_dir]

The child folds the chunked KV record stream into an
``ObservationMatrix`` and runs one full pipeline over it —

* ``resident``  — fit the unsharded numpy engine (the PR 1 baseline
  pipeline);
* ``outofcore`` — compile, release the matrix's cells, and fit via the
  sharded driver with ``spill_dir`` + ``max_resident_shards=1`` (the
  tightest memory ceiling);

— and prints one JSON line with its peak RSS, fit wall time, and a
bit-exact digest of the fitted model (``float.hex`` over accuracies and
value posteriors), which the parent compares across modes: out-of-core
results must be **bit-identical** to the resident engine.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import sys
import time
from itertools import chain

from repro.core.config import (
    AbsenceScope,
    ConvergenceConfig,
    MultiLayerConfig,
)
from repro.core.observation import ObservationMatrix
from repro.datasets.kv import KVConfig, iter_kv_record_chunks

#: Shards of the out-of-core fit; with ``max_resident_shards=1`` the
#: packet working set is ~1/16th of the corpus's array mass.
NUM_SHARDS = 16


def corpus_config(websites: int, seed: int) -> KVConfig:
    """The bench corpus (the backend-scaling family, sized by caller)."""
    return KVConfig(
        num_websites=websites,
        items_per_predicate=60,
        num_systems=16,
        pages_zipf_exponent=0.9,
        claims_zipf_exponent=0.9,
        max_pages_per_site=30,
        max_claims_per_page=250,
        max_patterns_per_system=80,
        broad_pattern_fraction=0.2,
        narrow_affinity_base=0.004,
        seed=seed,
    )


def model_config() -> MultiLayerConfig:
    """Fixed-iteration EM so both pipelines do identical work."""
    return MultiLayerConfig(
        engine="numpy",
        absence_scope=AbsenceScope.ACTIVE,
        min_extractor_support=3,
        min_source_support=2,
        convergence=ConvergenceConfig(max_iterations=5, tolerance=0.0),
    )


def result_digest(result) -> str:
    """A bit-exact fingerprint of the fitted model (hex floats)."""
    digest = hashlib.sha256()
    for source in sorted(result.source_accuracy, key=str):
        digest.update(str(source).encode())
        digest.update(result.source_accuracy[source].hex().encode())
    for item in sorted(result.value_posteriors, key=str):
        digest.update(str(item).encode())
        for value, p in sorted(
            result.value_posteriors[item].items(), key=lambda kv: str(kv[0])
        ):
            digest.update(str(value).encode())
            digest.update(p.hex().encode())
    return digest.hexdigest()


def build_matrix(corpus_cfg: KVConfig) -> ObservationMatrix:
    return ObservationMatrix.from_records(
        chain.from_iterable(iter_kv_record_chunks(corpus_cfg))
    )


def run_resident(corpus_cfg: KVConfig) -> dict:
    from repro.core.multi_layer import MultiLayerModel

    observations = build_matrix(corpus_cfg)
    start = time.perf_counter()
    result = MultiLayerModel(model_config()).fit(observations)
    fit_s = time.perf_counter() - start
    return {
        "records": observations.num_records,
        "fit_wall_s": fit_s,
        "digest": result_digest(result),
    }


def run_outofcore(corpus_cfg: KVConfig, spill_dir: str) -> dict:
    from repro.core.indexing import compile_problem
    from repro.exec.driver import fit_sharded

    cfg = dataclasses.replace(
        model_config(),
        backend="serial",
        num_shards=NUM_SHARDS,
        spill_dir=spill_dir,
        max_resident_shards=1,
    )
    start = time.perf_counter()
    corpus = build_matrix(corpus_cfg)
    problem = compile_problem(corpus, cfg)
    corpus.release()
    compile_s = time.perf_counter() - start
    start = time.perf_counter()
    result = fit_sharded(cfg, corpus, problem=problem)
    fit_s = time.perf_counter() - start
    return {
        "records": corpus.num_records,
        "compile_wall_s": compile_s,
        "fit_wall_s": fit_s,
        "digest": result_digest(result),
    }


def main(argv: list[str]) -> int:
    mode, websites, seed = argv[0], int(argv[1]), int(argv[2])
    corpus_cfg = corpus_config(websites, seed)
    if mode == "resident":
        stats = run_resident(corpus_cfg)
    elif mode == "outofcore":
        stats = run_outofcore(corpus_cfg, argv[3])
    else:
        raise SystemExit(f"unknown mode: {mode!r}")
    stats["mode"] = mode
    stats["peak_rss_kb"] = resource.getrusage(
        resource.RUSAGE_SELF
    ).ru_maxrss
    print(json.dumps(stats))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
