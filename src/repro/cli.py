"""Command-line interface: ``python -m repro`` or the ``kbt`` script.

The subcommands mirror the fit -> persist -> query lifecycle:

* ``fit`` — read extraction records (JSONL), run the KBT pipeline (and,
  with ``--signals``, any further trust-signal providers), persist the
  fitted model as a versioned trust artifact, optionally write
  per-website scores (CSV)::

      kbt demo demo.jsonl --websites 100 --seed 7 --gold gold.jsonl
      kbt fit demo.jsonl --artifact model.kbt --output scores.csv
      kbt fit demo.jsonl --artifact model.kbt --signals all --gold gold.jsonl
      kbt fit demo.jsonl --artifact model.kbt --backend processes --shards 8
      kbt fit demo.jsonl --artifact model.kbt --spill-dir /tmp/spill \\
          --shards 32 --max-resident-shards 1   # out-of-core streaming
      kbt fit demo.jsonl --artifact model.kbt --trace trace.jsonl

* ``query`` — answer score lookups from an artifact without refitting::

      kbt query model.kbt --top 10
      kbt query model.kbt --site site0001.example
      kbt query model.kbt --breakdown site0001.example

* ``signals`` — inspect the trust signals embedded in an artifact::

      kbt signals model.kbt
      kbt signals model.kbt --site site0001.example

* ``compare`` — the Figure-10-style two-signal disagreement view::

      kbt compare model.kbt --a kbt --b pagerank --k 10

* ``serve`` — expose the artifact over HTTP (JSON) through the asyncio
  gateway: zero-copy mmap store, connection limits, per-request
  timeouts, ETag caching, POST /batch, and hot artifact swap::

      kbt serve model.kbt --port 8080
      kbt serve model.kbt --max-connections 256 --request-timeout 30

* ``swap`` — point a running gateway at a freshly fitted artifact
  (saved with its serving layout, as ``fit``, ``update`` and ``ingest``
  save each one), without dropping a single in-flight request. The
  gateway's admin endpoint accepts loopback clients by default; a
  shared secret (``kbt serve --admin-token`` / ``kbt swap --token``,
  or ``KBT_ADMIN_TOKEN`` for both) is required to swap from anywhere
  else::

      kbt swap model_v2.kbt --server 127.0.0.1:8080

* ``update`` — fold new records into an existing artifact incrementally
  (frozen extractor qualities, one-to-two EM sweeps on the delta)::

      kbt update model.kbt new_records.jsonl

* ``ingest`` — run the continuous pipeline: tail a spool directory (or
  stdin), fold micro-batches in with warm updates, cold-refit when the
  staleness policy fires, and hot-swap every generation into a running
  gateway. SIGINT/SIGTERM drain cleanly::

      kbt ingest model.kbt --watch spool/ \\
          --batch-records 500 --batch-seconds 2 \\
          --refit-after 50 --drift-refit-threshold 0.1 \\
          --gateway http://127.0.0.1:8080 --token SECRET

* ``demo`` — generate a synthetic Knowledge-Vault-like corpus as JSONL
  (``--gold`` also emits website gold labels for calibrated fusion).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

# Each subcommand imports what it runs, inside its ``run_*``: ``kbt
# serve`` never loads the model code, and ``kbt --help`` not even numpy.
from repro.core.config import BACKENDS, EXECUTION_FIELDS
from repro.exec.supervisor import ExecError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.kbt import FittedKBT, KBTEstimator
    from repro.core.observation import ObservationMatrix


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbt",
        description=(
            "Knowledge-Based Trust: estimate website trustworthiness from "
            "extracted (subject, predicate, object) triples, persist the "
            "fitted model, and serve score lookups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser(
        "fit",
        help="run the KBT pipeline and persist a trust artifact",
    )
    fit.add_argument("records", help="input JSONL file")
    fit.add_argument(
        "--artifact", "-a", default=None,
        help="path for the persisted trust artifact (model.kbt)",
    )
    fit.add_argument(
        "--no-observations", action="store_true",
        help=(
            "write a serving-only artifact without the extraction cells "
            "(smaller, but 'kbt update' will refuse it)"
        ),
    )
    fit.add_argument(
        "--signals", default=None, metavar="NAMES",
        help=(
            "also fit trust-signal providers and embed them in the "
            "artifact: comma-separated names (kbt,accu,popaccu,pagerank,"
            "copydetect) or 'all'"
        ),
    )
    fit.add_argument(
        "--gold", default=None, metavar="JSONL",
        help=(
            "website gold labels (JSONL: {\"website\": ..., \"accurate\": "
            "...}) used to calibrate the signal-fusion weights; without "
            "them fusion weights are uniform"
        ),
    )
    fit.add_argument(
        "--trace", default=None, metavar="FILE",
        help=(
            "write the run's timings as JSON lines: one per span (read, "
            "build, compile, each EM stage, assemble, save, layout), one "
            "per EM iteration, and a closing Table 7 line"
        ),
    )
    _add_model_options(fit)
    _add_summary_options(fit)

    query = sub.add_parser(
        "query", help="answer score lookups from a trust artifact"
    )
    query.add_argument("artifact", help="trust artifact written by 'fit'")
    what = query.add_mutually_exclusive_group(required=True)
    what.add_argument("--site", help="score of one website")
    what.add_argument(
        "--page", nargs=2, metavar=("SITE", "URL"),
        help="score of one webpage",
    )
    what.add_argument(
        "--batch", metavar="SITES",
        help="comma-separated websites, scored in one call",
    )
    what.add_argument(
        "--top", type=int, metavar="K", help="the K most trustworthy sites"
    )
    what.add_argument(
        "--percentile", metavar="SITE", help="score percentile of a website"
    )
    what.add_argument(
        "--breakdown", metavar="SITE",
        help="contributing sources behind a website's score",
    )
    what.add_argument(
        "--stats", action="store_true", help="artifact-level statistics"
    )

    signals = sub.add_parser(
        "signals",
        help="inspect the trust signals embedded in an artifact",
    )
    signals.add_argument("artifact", help="trust artifact written by 'fit'")
    signals.add_argument(
        "--site", default=None,
        help="per-signal breakdown of one website (default: the listing)",
    )

    compare = sub.add_parser(
        "compare",
        help="two-signal disagreement view (the Figure 10 quadrants)",
    )
    compare.add_argument("artifact", help="trust artifact written by 'fit'")
    compare.add_argument(
        "--a", default="kbt", help="first signal (default kbt)"
    )
    compare.add_argument(
        "--b", default="pagerank", help="second signal (default pagerank)"
    )
    compare.add_argument(
        "--k", type=int, default=10,
        help="entries per disagreement quadrant (default 10)",
    )
    compare.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the raw JSON payload instead of tables",
    )

    serve = sub.add_parser(
        "serve", help="serve JSON score lookups over HTTP"
    )
    serve.add_argument(
        "artifact",
        help=(
            "trust artifact written by 'fit' (its serving layout is "
            "exported beside it first if missing: a hot swap only maps "
            "a saved layout), or a layout directory"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    # Accepted and ignored: the gateway is the only frontend, but
    # benchmarks/e2e, CI and existing scripts still pass the old selector.
    serve.add_argument(
        "--gateway", action="store_true", help=argparse.SUPPRESS
    )
    serve.add_argument(
        "--max-connections", type=int, default=256, metavar="N",
        help=(
            "concurrent-connection ceiling; arrivals beyond it get an "
            "immediate JSON 503 (default 256)"
        ),
    )
    serve.add_argument(
        "--request-timeout", type=float, default=30.0, metavar="S",
        help=(
            "deadline in seconds for requests run on the worker pool "
            "(signal routes, large batches / rankings / breakdowns); "
            "one exceeding it answers 504. Bounded lookups are "
            "answered on the event loop and need none (default 30)"
        ),
    )
    serve.add_argument(
        "--workers", type=int, default=8, metavar="N",
        help=(
            "worker-pool size — the backpressure bound on concurrently "
            "executing unbounded requests and hot swaps; bounded "
            "lookups never enter the pool (default 8)"
        ),
    )
    serve.add_argument(
        "--admin-token", default=None, metavar="SECRET",
        help=(
            "shared secret required (as X-Admin-Token) on POST "
            "/admin/swap; defaults to $KBT_ADMIN_TOKEN. Without one, "
            "only loopback clients may swap"
        ),
    )

    swap = sub.add_parser(
        "swap",
        help="hot-swap the artifact behind a running gateway",
    )
    swap.add_argument(
        "artifact",
        help=(
            "the new trust artifact; the path is resolved on the "
            "gateway's host and must be readable there"
        ),
    )
    swap.add_argument(
        "--server", default="127.0.0.1:8080", metavar="HOST:PORT|URL",
        help="the running 'kbt serve' to update (HOST:PORT, or its URL)",
    )
    swap.add_argument(
        "--token", default=None, metavar="SECRET",
        help=(
            "admin token sent as X-Admin-Token; defaults to "
            "$KBT_ADMIN_TOKEN (needed when the gateway was started "
            "with --admin-token, or when swapping from a non-loopback "
            "client)"
        ),
    )

    update = sub.add_parser(
        "update",
        help="fold new records into an artifact without a full refit",
    )
    update.add_argument("artifact", help="trust artifact written by 'fit'")
    update.add_argument("records", help="JSONL file with new records")
    update.add_argument(
        "--artifact-out", default=None,
        help="write the updated artifact here (default: in place)",
    )
    update.add_argument(
        "--sweeps", type=int, default=2,
        help="EM sweeps over the delta sub-problem (default 2)",
    )
    _add_placement_options(update)
    _add_checkpoint_options(update)
    _add_summary_options(update)

    ingest = sub.add_parser(
        "ingest",
        help=(
            "run the continuous pipeline: micro-batch updates, "
            "staleness-triggered refits, hot swaps into a gateway"
        ),
    )
    ingest.add_argument(
        "artifact",
        help=(
            "the cold-fit trust artifact to start from (saved with "
            "observations, the default)"
        ),
    )
    feed = ingest.add_mutually_exclusive_group(required=True)
    feed.add_argument(
        "--watch", default=None, metavar="DIR",
        help=(
            "tail every *.jsonl spool file in DIR; partially written "
            "trailing lines are re-read once complete, appends and new "
            "files are picked up automatically"
        ),
    )
    feed.add_argument(
        "--stdin", action="store_true",
        help="read JSONL records from standard input until EOF",
    )
    ingest.add_argument(
        "--batch-records", type=int, default=500, metavar="N",
        help="flush a batch at N records (default 500)",
    )
    ingest.add_argument(
        "--batch-seconds", type=float, default=2.0, metavar="S",
        help=(
            "flush a partial batch S seconds after its first record "
            "(default 2.0) — records or seconds, whichever first"
        ),
    )
    ingest.add_argument(
        "--sweeps", type=int, default=2,
        help="EM sweeps per incremental update (default 2)",
    )
    ingest.add_argument(
        "--refit-after", type=int, default=None, metavar="N",
        help=(
            "force a cold refit after N warm updates since the last "
            "cold fit (default: no count trigger)"
        ),
    )
    ingest.add_argument(
        "--drift-refit-threshold", type=float, default=None, metavar="D",
        help=(
            "cold refit when any website's score has drifted more than "
            "D from the last cold fit (default: no drift trigger)"
        ),
    )
    ingest.add_argument(
        "--alert-band", type=float, default=0.05, metavar="D",
        help=(
            "emit a drift alert when a website moves more than D "
            "between consecutive generations (default 0.05)"
        ),
    )
    ingest.add_argument(
        "--gateway", default=None, metavar="URL",
        help=(
            "hot-swap each generation into the running "
            "'kbt serve' at URL (e.g. http://127.0.0.1:8080); "
            "the gateway must see the same filesystem. Default: write "
            "generations without publishing"
        ),
    )
    ingest.add_argument(
        "--token", default=None, metavar="SECRET",
        help=(
            "admin token sent as X-Admin-Token on swap and status "
            "pushes; defaults to $KBT_ADMIN_TOKEN"
        ),
    )
    ingest.add_argument(
        "--generations-dir", default=None, metavar="DIR",
        help=(
            "where versioned generation artifacts land "
            "(default: <artifact>.generations/)"
        ),
    )
    ingest.add_argument(
        "--keep-generations", type=int, default=5, metavar="N",
        help=(
            "retain the newest N generation artifacts, dropping older "
            "ones and their exported layouts (default 5)"
        ),
    )
    ingest.add_argument(
        "--max-batches", type=int, default=None, metavar="N",
        help="stop after N batches (smoke tests; default: run until "
        "signalled)",
    )
    # No checkpoint flags: every micro-batch is a different problem, so
    # batch 2 would refuse batch 1's checkpoint.
    _add_placement_options(ingest)

    worker = sub.add_parser(
        "worker",
        help="serve shard map steps for a remote-backend coordinator",
    )
    worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help=(
            "the coordinator's --remote-endpoint address; the worker "
            "connects there, registers, and serves map steps until the "
            "coordinator sends stop"
        ),
    )
    worker.add_argument(
        "--retry-interval", type=float, default=1.0, metavar="S",
        help=(
            "seconds between reconnect attempts when the coordinator is "
            "unreachable or the connection drops (default 1.0)"
        ),
    )
    worker.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help=(
            "give up after N consecutive failed connection attempts "
            "(default: retry forever, so workers may be started before "
            "the coordinator)"
        ),
    )

    demo = sub.add_parser(
        "demo", help="generate a synthetic corpus as JSONL"
    )
    demo.add_argument("output", help="output JSONL file")
    demo.add_argument("--websites", type=int, default=100)
    demo.add_argument("--systems", type=int, default=8)
    demo.add_argument("--items-per-predicate", type=int, default=40)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument(
        "--gold", default=None, metavar="JSONL",
        help="also write per-website gold labels (for 'fit --gold')",
    )
    return parser


def _add_model_options(parser: argparse.ArgumentParser) -> None:
    """The model/granularity knobs of ``fit``."""
    parser.add_argument(
        "--min-triples", type=float, default=5.0,
        help="report sources with at least this much extraction support",
    )
    parser.add_argument(
        "--absence-scope", choices=["all", "active"], default="active",
        help="which extractors cast absence votes",
    )
    parser.add_argument(
        "--split-merge", action="store_true",
        help="run SPLITANDMERGE granularity selection before inference",
    )
    parser.add_argument(
        "--min-size", type=int, default=5,
        help="SPLITANDMERGE lower bound m",
    )
    parser.add_argument(
        "--max-size", type=int, default=10_000,
        help="SPLITANDMERGE upper bound M",
    )
    parser.add_argument(
        "--iterations", type=int, default=5, help="EM iterations",
    )
    parser.add_argument(
        "--precision", choices=["float64", "float32"], default=None,
        help=(
            "arithmetic precision of the E steps: float64 "
            "(default, the reference arithmetic every bit-identity "
            "guarantee is stated against) or float32 (the same E-step "
            "kernel run in single precision, on any --backend; no faster "
            "on a 2-core host: 1.5 ms per EM iteration against float64's "
            "1.6 ms at 20.6K records, 9.8 against 10.0 ms at 152K; scores "
            "stay within the documented precision envelope of float64 — "
            "see docs/architecture.md)"
        ),
    )
    _add_placement_options(parser)
    _add_checkpoint_options(parser)


def _add_placement_options(parser: argparse.ArgumentParser) -> None:
    """Where the EM rounds run (``fit`` / ``update`` / ``ingest``);
    every ``dest`` is a name in ``EXECUTION_FIELDS``."""
    parser.add_argument(
        "--backend", choices=list(BACKENDS), default=None,
        help=(
            "sharded execution backend (map per data-item shard, one "
            "reduce per EM iteration; results are bit-identical across "
            "backends and shard counts); default: one serial shard"
        ),
    )
    parser.add_argument(
        "--shards", dest="num_shards", type=int, default=None, metavar="N",
        help=(
            "number of data-item shards (default: one per CPU with "
            "--backend or --spill-dir, else one)"
        ),
    )
    parser.add_argument(
        "--spill-dir", default=None, metavar="DIR",
        help=(
            "run out-of-core: stream records into a cell-index-only "
            "corpus, spill shard packets to DIR and map them back, so "
            "resident memory holds one packet plus the per-coordinate "
            "parameter vectors instead of the full extraction corpus "
            "(results stay bit-identical)"
        ),
    )
    parser.add_argument(
        "--max-resident-shards", type=int, default=None, metavar="N",
        help=(
            "with --spill-dir: keep at most N shard packets "
            "materialized at once (LRU; default: all mapped)"
        ),
    )
    parser.add_argument(
        "--remote-endpoint", default=None, metavar="HOST:PORT",
        help=(
            "run distributed: listen on HOST:PORT as the coordinator and "
            "dispatch shard map steps to workers started with "
            "'kbt worker --connect HOST:PORT' (implies --backend remote "
            "unless one is given; results stay bit-identical for any "
            "worker count)"
        ),
    )
    parser.add_argument(
        "--num-workers", type=int, default=None, metavar="N",
        help=(
            "with --remote-endpoint: wait for N workers to register "
            "before the fit starts (default 1; late joiners are still "
            "used for re-dispatch and speculation)"
        ),
    )
    parser.add_argument(
        "--reduce-chunk", type=int, default=None, metavar="N",
        help=(
            "stream the per-iteration reduce over the global arrays in "
            "windows of N elements instead of whole-array scans "
            "(bit-identical results for any N; with --spill-dir the "
            "file-backed resident set stays bounded by one window per "
            "array)"
        ),
    )


def _add_checkpoint_options(parser: argparse.ArgumentParser) -> None:
    """Checkpointed fits (``fit`` / ``update``)."""
    parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help=(
            "atomically checkpoint the EM state to DIR/checkpoint.npz "
            "during the fit, so a killed run can continue with --resume"
        ),
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="K",
        help=(
            "with --checkpoint-dir: write a checkpoint every K "
            "iterations (default: 1, after every iteration)"
        ),
    )
    parser.add_argument(
        "--resume", action="store_true", default=False,
        help=(
            "continue from the checkpoint under --checkpoint-dir if one "
            "exists; a resumed fit is bit-identical to an uninterrupted "
            "one"
        ),
    )


def _execution_from_args(args: argparse.Namespace) -> dict:
    """The execution settings a command line gave (absent flags: None)."""
    return {name: getattr(args, name, None) for name in EXECUTION_FIELDS}


def _add_summary_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--output", "-o", default=None,
        help="CSV file for website scores (default: stdout summary only)",
    )
    parser.add_argument(
        "--top", type=int, default=10,
        help="number of sites to print in the summary",
    )


def _build_estimator(args: argparse.Namespace) -> KBTEstimator:
    from dataclasses import replace

    from repro.core.config import (
        AbsenceScope,
        GranularityConfig,
        MultiLayerConfig,
    )
    from repro.core.kbt import KBTEstimator

    config = MultiLayerConfig(absence_scope=AbsenceScope(args.absence_scope))
    config = replace(
        config,
        convergence=replace(
            config.convergence, max_iterations=args.iterations
        ),
    )
    granularity = None
    if args.split_merge:
        granularity = GranularityConfig(
            min_size=args.min_size, max_size=args.max_size
        )
    return KBTEstimator(
        config=config,
        granularity=granularity,
        min_triples=args.min_triples,
        precision=args.precision,
        **_execution_from_args(args),
    )


def _print_summary(
    fitted: FittedKBT, num_records: int, args: argparse.Namespace
) -> bool:
    """Write the CSV + stdout ranking; returns False when nothing scored."""
    from repro.core.kbt import score_sort_key
    from repro.io.reports import write_score_csv

    scores = fitted.website_scores()
    if not scores:
        print(
            "no website cleared the support threshold "
            f"({fitted.min_triples} triples)",
            file=sys.stderr,
        )
        return False
    if args.output:
        written = write_score_csv(scores, args.output)
        print(f"wrote {written} website scores to {args.output}")
    ranked = sorted(scores.values(), key=score_sort_key)
    print(f"{num_records} records -> KBT for {len(ranked)} websites")
    print(f"{'website':30s} {'KBT':>7s} {'support':>8s}")
    for score in ranked[: args.top]:
        print(f"{str(score.key):30s} {score.score:7.3f} "
              f"{score.support:8.1f}")
    return True


def _read_gold_labels(path: str) -> dict[str, bool]:
    """Website gold labels from JSONL: {"website": ..., "accurate": ...}.

    ``accurate`` must be a JSON boolean (``"false"`` is not one). An
    ``accuracy`` number is accepted in its place and thresholded at 0.5
    (the label "is this site accurate").
    """
    labels: dict[str, bool] = {}
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                website = data["website"]
                if "accurate" in data:
                    label = data["accurate"]
                    if not isinstance(label, bool):
                        raise TypeError
                else:
                    accuracy = data["accuracy"]
                    if type(accuracy) not in (int, float):  # not bool
                        raise TypeError
                    label = accuracy >= 0.5
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                raise ValueError(
                    f"{path}:{line_number}: malformed gold label (need "
                    '{"website": ..., "accurate": ...} or "accuracy")'
                ) from None
            labels[website] = label
    if not labels:
        raise ValueError(f"no gold labels found in {path}")
    return labels


def _fit_signals(
    fitted: FittedKBT,
    observations: ObservationMatrix,
    args: argparse.Namespace,
) -> tuple[dict, dict[str, float]]:
    """Run the selected providers and calibrate the fusion weights."""
    from repro.signals import CorpusContext, SignalSuite, fuse

    gold = _read_gold_labels(args.gold) if args.gold else None
    context = CorpusContext(
        observations=observations,
        gold_labels=gold,
        min_triples=fitted.min_triples,
        fitted=fitted,
    )
    suite = SignalSuite()
    frame = suite.run(context, args.signals)
    fusion = fuse(frame, gold_labels=gold)
    signals = {name: frame.signal(name) for name in frame.names}
    kind = "calibrated" if fusion.calibrated else "uniform"
    print(
        f"fitted {len(frame.names)} trust signals "
        f"({', '.join(frame.names)}) over {len(frame)} websites; "
        f"{kind} fusion weights: "
        + ", ".join(
            f"{name}={weight:.3f}"
            for name, weight in fusion.weights.items()
        )
    )
    return signals, fusion.weights


def _check_output_dirs(**outputs: str | None) -> None:
    """Refuse an output whose directory does not exist, before any
    record is read: the alternative is a whole fit, then a traceback."""
    from pathlib import Path

    for what, path in outputs.items():
        if path is not None and not Path(path).parent.is_dir():
            raise ValueError(
                f"cannot write {what} {path}: no directory "
                f"{Path(path).parent}"
            )


def run_fit(args: argparse.Namespace) -> int:
    _check_output_dirs(
        artifact=args.artifact, output=args.output, trace=args.trace
    )
    if args.trace is None:
        return _fit(args)
    from repro import obs

    recorder = obs.Recorder()
    try:
        with obs.installed(recorder):
            return _fit(args)
    finally:
        recorder.write(args.trace)


def _fit(args: argparse.Namespace) -> int:
    from repro.core.observation import ObservationMatrix
    from repro.io.jsonl import read_records

    # Stream straight into the matrix: no intermediate record list.
    observations = ObservationMatrix.from_records(read_records(args.records))
    if observations.num_records == 0:
        print("no records found", file=sys.stderr)
        return 1
    if args.gold and not args.signals:
        print(
            "error: --gold calibrates signal-fusion weights and needs "
            "--signals (e.g. --signals all)",
            file=sys.stderr,
        )
        return 1
    fitted = _build_estimator(args).fit(observations)
    signals: dict = {}
    fusion_weights: dict[str, float] = {}
    if args.signals:
        signals, fusion_weights = _fit_signals(fitted, observations, args)
        if not args.artifact:
            print(
                "note: --signals without --artifact: the fitted signals "
                "are reported above but not persisted",
                file=sys.stderr,
            )
    if args.artifact:
        fitted.save(
            args.artifact,
            include_observations=not args.no_observations,
            metadata={"records_file": args.records},
            signals=signals,
            fusion_weights=fusion_weights,
        )
        print(f"saved trust artifact to {args.artifact}")
    scored = _print_summary(fitted, observations.num_records, args)
    if not scored and not args.artifact:
        return 1
    return 0


def run_query(args: argparse.Namespace) -> int:
    from repro.serving.store import TrustStore

    store = TrustStore.open(args.artifact)
    if args.stats:
        payload = store.stats_json()
    elif args.site is not None:
        payload = store.score_json(args.site)
    elif args.page is not None:
        payload = store.page_json(*args.page)
    elif args.batch is not None:
        payload = store.batch_json(
            [site for site in args.batch.split(",") if site]
        )
    elif args.top is not None:
        payload = store.top_json(args.top)
    elif args.percentile is not None:
        percentile = store.percentile(args.percentile)
        payload = (
            None
            if percentile is None
            else {"key": args.percentile, "percentile": percentile}
        )
    else:
        payload = store.breakdown(args.breakdown)
    if payload is None:
        print("no score for that key", file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2, ensure_ascii=False))
    return 0


def run_signals(args: argparse.Namespace) -> int:
    from repro.serving.store import TrustStore

    store = TrustStore.open(args.artifact)
    if args.site is None:
        payload = store.signals_json()
        if not payload["signals"]:
            print(
                "no trust signals in this artifact (fitted without "
                "--signals, a version-1 artifact, or written by 'kbt "
                "update', which drops embedded signals)",
                file=sys.stderr,
            )
            return 1
    else:
        payload = store.signal_breakdown(args.site)
        if payload is None:
            print("no signal scores for that website", file=sys.stderr)
            return 1
    print(json.dumps(payload, indent=2, ensure_ascii=False))
    return 0


def run_compare(args: argparse.Namespace) -> int:
    from repro.serving.store import TrustStore
    from repro.util.tables import format_table

    store = TrustStore.open(args.artifact)
    payload = store.compare(args.a, args.b, k=args.k)
    if args.as_json:
        print(json.dumps(payload, indent=2, ensure_ascii=False))
        return 0
    a, b = payload["a"], payload["b"]
    print(
        f"{a} vs {b} over {payload['websites_compared']} websites; "
        f"Pearson correlation {payload['correlation']:+.3f}"
    )
    for title, quadrant in (
        (f"high {a}, low {b}", "high_a_low_b"),
        (f"high {b}, low {a}", "high_b_low_a"),
    ):
        entries = payload[quadrant]
        if not entries:
            print(f"\n{title}: no disagreeing websites")
            continue
        rows = [
            [
                entry["website"],
                entry[a],
                entry[f"{a}_percentile"],
                entry[b],
                entry[f"{b}_percentile"],
            ]
            for entry in entries
        ]
        print()
        print(
            format_table(
                ["website", a, f"{a} pctl", b, f"{b} pctl"],
                rows,
                title=title,
            )
        )
    return 0


def import_gateway():
    """Import :mod:`repro.serving.gateway`, and asyncio with it, without
    ssl; returns the module.

    The gateway speaks plain HTTP, and every ``import ssl`` in asyncio
    is guarded, yet asyncio loads ssl where it can, which maps OpenSSL's
    libssl and libcrypto into the process for good. So the import runs
    with ssl marked unavailable — ``sys.modules["ssl"] = None``, the
    import system's rule for a module that cannot be imported — and the
    marker is removed afterwards. A process that has already loaded
    asyncio or ssl (a test runner calling :func:`main`) is left as it is.
    """
    blocked = "asyncio" not in sys.modules and "ssl" not in sys.modules
    if blocked:
        sys.modules["ssl"] = None
    try:
        import repro.serving.gateway as gateway
    finally:
        if blocked:
            del sys.modules["ssl"]
    return gateway


def run_serve(args: argparse.Namespace) -> int:
    import os
    from pathlib import Path

    from repro.io.mmap_layout import cache_layout

    gateway = import_gateway()
    from repro.serving.mmap_store import MmapTrustStore

    path = Path(args.artifact)
    if not path.is_dir():
        # The layout a save wrote beside the artifact is found by the
        # file's stamp, without reading the file; an artifact without
        # one (copied, format 1-3, or its cache deleted) is hashed and
        # has it exported here, once, before the event loop starts. The
        # gateway itself never exports: a hot swap maps a saved layout
        # or refuses.
        path = cache_layout(path)[0]
    try:
        gateway.serve_gateway(
            MmapTrustStore.open(path),
            host=args.host,
            port=args.port,
            max_connections=args.max_connections,
            request_timeout=args.request_timeout,
            workers=args.workers,
            admin_token=(
                args.admin_token or os.environ.get("KBT_ADMIN_TOKEN")
            ),
        )
    except gateway.ListenError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


def run_swap(args: argparse.Namespace) -> int:
    import os

    from repro.ingest.pipeline import HttpPublisher, PublishError

    # HOST:PORT, or the URL the gateway's start-up line prints.
    server = args.server if "://" in args.server else f"http://{args.server}"
    publisher = HttpPublisher(
        server,
        token=args.token or os.environ.get("KBT_ADMIN_TOKEN"),
        timeout=None,
    )
    try:
        payload = publisher.publish(args.artifact)
    except PublishError as err:
        detail = err.detail
        if err.code is None:
            problem = f"cannot reach gateway at {args.server}"
        else:
            problem = f"swap failed ({err.code})"
            try:
                detail = json.loads(detail).get("error", detail)
            except json.JSONDecodeError:
                pass
        print(f"error: {problem}: {detail}", file=sys.stderr)
        return 1
    print(
        f"swapped: generation {payload['generation']}, "
        f"{payload['websites']} websites, etag {payload['etag']}"
    )
    return 0


def run_update(args: argparse.Namespace) -> int:
    from repro.core.kbt import FittedKBT
    from repro.io.artifact import load_artifact
    from repro.io.jsonl import read_records

    out_path = args.artifact_out or args.artifact
    _check_output_dirs(artifact=out_path, output=args.output)
    artifact = load_artifact(args.artifact)
    if artifact.signals:
        print(
            "note: embedded trust signals are fitted to the old corpus "
            "and are dropped from the updated artifact; re-run "
            "'kbt fit --signals' to refresh them",
            file=sys.stderr,
        )
    fitted = FittedKBT.from_artifact(artifact)
    before = set(fitted.website_scores())
    updated = fitted.update(
        read_records(args.records),
        sweeps=args.sweeps,
        **_execution_from_args(args),
    )
    updated.save(out_path)
    print(f"saved updated trust artifact to {out_path}")
    new_sites = sorted(set(updated.website_scores()) - before)
    if new_sites:
        shown = ", ".join(new_sites[:5])
        more = "" if len(new_sites) <= 5 else f" (+{len(new_sites) - 5} more)"
        print(f"{len(new_sites)} newly scored websites: {shown}{more}")
    # The artifact was saved either way — like `fit --artifact`, an empty
    # summary is a warning, not a failure.
    _print_summary(updated, updated.observations.num_records, args)
    return 0


def run_ingest(args: argparse.Namespace) -> int:
    import os
    import signal as signal_module
    import threading

    from repro.core.kbt import FittedKBT
    from repro.ingest import (
        HttpPublisher,
        IngestPipeline,
        MicroBatcher,
        QueueRecordSource,
        SpoolDirectorySource,
        StalenessPolicy,
    )
    from repro.io.jsonl import RecordParser

    fitted = FittedKBT.load(args.artifact)

    stdin_error: list[str] = []
    if args.watch is not None:
        source = SpoolDirectorySource(args.watch)
    else:
        source = QueueRecordSource()

        def _read_stdin() -> None:
            # One parser for the stream: its key memo is bounded by the
            # keys of the model this process keeps fitted anyway.
            parser = RecordParser()
            try:
                # Bytes, split at "\n" only, as every JSONL reader does.
                for line_number, line in enumerate(sys.stdin.buffer, 1):
                    record = parser.parse(line, "<stdin>", line_number)
                    if record is not None:
                        source.push(record)
            except ValueError as err:
                stdin_error.append(f"bad record on stdin: {err}")
            finally:
                source.close()

        threading.Thread(target=_read_stdin, daemon=True).start()

    batcher = MicroBatcher(
        source,
        max_records=args.batch_records,
        max_latency=args.batch_seconds,
    )
    # SIGINT and SIGTERM both drain: the pending partial batch is
    # flushed, processed, and published before the process exits.
    for signum in (signal_module.SIGINT, signal_module.SIGTERM):
        try:
            signal_module.signal(signum, lambda *_: batcher.stop())
        except (ValueError, OSError):
            pass  # off the main thread (embedded use)

    token = args.token or os.environ.get("KBT_ADMIN_TOKEN")
    publisher = (
        HttpPublisher(args.gateway, token=token) if args.gateway else None
    )
    pipeline = IngestPipeline(
        fitted,
        args.generations_dir or f"{args.artifact}.generations",
        publisher=publisher,
        policy=StalenessPolicy(
            refit_after_batches=args.refit_after,
            drift_refit_threshold=args.drift_refit_threshold,
            alert_band=args.alert_band,
        ),
        sweeps=args.sweeps,
        keep_generations=args.keep_generations,
        update_options=_execution_from_args(args),
    )
    print(
        f"ingesting into {pipeline.generations_dir} "
        f"(batch <= {args.batch_records} records or "
        f"{args.batch_seconds:g}s"
        + (f", publishing to {args.gateway}" if args.gateway else "")
        + ")",
        flush=True,
    )
    try:
        batches = pipeline.run(batcher.batches(), max_batches=args.max_batches)
    finally:
        if args.watch is not None:
            source.close()
    if stdin_error:
        print(f"error: {stdin_error[0]}", file=sys.stderr)
        return 1
    print(
        f"drained: {batches} batches, {pipeline.records_ingested} records, "
        f"{pipeline.refits} cold refits, generation {pipeline.generation}",
        flush=True,
    )
    return 0


def run_worker(args: argparse.Namespace) -> int:
    from repro.exec.remote import run_worker

    return run_worker(
        args.connect,
        retry_interval=args.retry_interval,
        max_retries=args.max_retries,
    )


def run_demo(args: argparse.Namespace) -> int:
    from repro.datasets.kv import KVConfig, generate_kv
    from repro.io.jsonl import write_records

    corpus = generate_kv(
        KVConfig(
            num_websites=args.websites,
            num_systems=args.systems,
            items_per_predicate=args.items_per_predicate,
            seed=args.seed,
        )
    )
    count = write_records(corpus.campaign.records, args.output)
    print(
        f"wrote {count} extraction records from {len(corpus.sites)} "
        f"websites to {args.output}"
    )
    if args.gold:
        with open(args.gold, "w", encoding="utf-8") as handle:
            for website, accuracy in sorted(
                corpus.true_site_accuracy.items()
            ):
                handle.write(
                    json.dumps(
                        {
                            "website": website,
                            "accuracy": accuracy,
                            "accurate": accuracy >= 0.5,
                        }
                    )
                    + "\n"
                )
        print(
            f"wrote {len(corpus.true_site_accuracy)} website gold labels "
            f"to {args.gold}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fit":
            return run_fit(args)
        if args.command == "query":
            return run_query(args)
        if args.command == "signals":
            return run_signals(args)
        if args.command == "compare":
            return run_compare(args)
        if args.command == "serve":
            return run_serve(args)
        if args.command == "swap":
            return run_swap(args)
        if args.command == "update":
            return run_update(args)
        if args.command == "ingest":
            return run_ingest(args)
        if args.command == "worker":
            return run_worker(args)
        if args.command == "demo":
            return run_demo(args)
    except (ExecError, ValueError) as err:
        # ExecError covers terminal map-step failures (the message names
        # the shard, attempt count, and the underlying cause — for a
        # corrupt spill packet that cause is the one-line SpillError
        # remedy, not a worker traceback). ArtifactError, LayoutError,
        # SignalError, CheckpointError and SpillError are ValueErrors,
        # so they land here too.
        print(f"error: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Stdout was closed early (e.g. piped into `head`); exit quietly.
        sys.stderr.close()
        return 0
    return 2  # unreachable: argparse enforces the subcommand


if __name__ == "__main__":
    sys.exit(main())
