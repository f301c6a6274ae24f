"""The records -> served benchmark.

One workload, as the driver runs it (last stdout line is the result)::

    python3 benchmarks/e2e/run.py --workload serve-zipf --seed 23 \
        --seconds 10 --trace 0

All five, each in its own process, into one result file::

    python3 benchmarks/e2e/run.py [--seed N] [--trace 1] [--smoke] \
        [--out FILE] [--ledger]

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is a separate pass that records a span around every layer
call, writes ``results/trace-<workload>.jsonl`` and reports the
per-layer metrics. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402

import fit  # noqa: E402
import ingest  # noqa: E402
import procs  # noqa: E402
import serve  # noqa: E402
from corpus import SCALES, Scale  # noqa: E402
from metrics import (  # noqa: E402
    ALIASES,
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOADS,
    unit_of,
)
from spans import Tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402

RESULTS = HERE / "results"
SETUP_REPETITIONS = 3
SMOKE_SECONDS = 3


# ----------------------------------------------------------------------
# The five workloads behind one shape: setup / measure / trace / teardown
# ----------------------------------------------------------------------
class FitWide:
    # One single-threaded process at a time, so it and the speed probe
    # share one core: the probe then times the core the work runs on,
    # not the idle one beside it.
    single_core = True
    setup = staticmethod(fit.setup)

    def teardown(self, jsonl) -> None:
        pass

    def measure(self, jsonl, seconds, smoke, probe):
        return fit.measure_wide(jsonl, seconds, probe)

    def trace(self, jsonl, tracer, seconds, probe):
        return fit.wide_trace(jsonl, jsonl.parent, tracer, seconds)


class FitDeep(FitWide):
    single_core = False

    def measure(self, jsonl, seconds, smoke, probe):
        return fit.measure_deep(jsonl, seconds, probe)

    def trace(self, jsonl, tracer, seconds, probe):
        return fit.deep_trace(jsonl, jsonl.parent, tracer, seconds)


class Serve:
    single_core = False
    teardown = staticmethod(serve.teardown)

    def __init__(self, kind: str) -> None:
        self.kind = kind

    def setup(self, seed, scale, workdir, tracer):
        return serve.setup(self.kind, seed, scale, workdir, tracer)

    def measure(self, served, seconds, smoke, probe):
        return serve.measure(self.kind, served, seconds, smoke, probe)

    def trace(self, served, tracer, seconds, probe):
        return serve.trace(self.kind, served, tracer, seconds, probe)


class IngestLive:
    single_core = False
    setup = staticmethod(ingest.setup)
    teardown = staticmethod(ingest.teardown)
    measure = staticmethod(ingest.measure)
    trace = staticmethod(ingest.trace)


REGISTRY = {
    "fit-wide": FitWide(),
    "fit-deep": FitDeep(),
    "serve-zipf": Serve("serve-zipf"),
    "serve-uniform": Serve("serve-uniform"),
    "ingest-live": IngestLive(),
}
assert list(REGISTRY) == list(WORKLOADS)


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = (
        statistics.quantiles(values, n=4)
        if len(values) > 1
        else (values[0],) * 3
    )
    return {"value": q2, "n": len(values), "q1": q1, "q3": q3}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: Scale) -> dict:
    """Set up (several times, for a steady ``setup_s``), measure, check."""
    workload = REGISTRY[name]
    tracer = Tracer(name, enabled=trace)
    root = HERE / ".work" / f"{name}-{os.getpid()}"
    if workload.single_core:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    probe = SpeedProbe()
    probe.start()
    state = None
    setups, factors = [], []
    try:
        for attempt in range(1 if trace else SETUP_REPETITIONS):
            if state is not None:
                workload.teardown(state)
                state = None
            workdir = root / f"setup-{attempt}"
            shutil.rmtree(root, ignore_errors=True)
            workdir.mkdir(parents=True)
            start = time.perf_counter()
            state = workload.setup(seed, scale, workdir, tracer)
            end = time.perf_counter()
            setups.append(end - start)
            factors.append(probe.factor(start, end))
        smoke = scale.name == "smoke"
        if trace:
            layers = workload.trace(state, tracer, seconds, probe)
            generate = tracer.self_seconds("datasets.kv.generate")
            layers["datasets.kv.generate_s"] = generate[0]
            result = {"layers": layers}
            tracer.dump(RESULTS / f"trace-{name}.jsonl")
        else:
            result = workload.measure(state, seconds, smoke, probe)
            # Preparation a workload did in its child counts as set-up.
            extra = scaled = 0.0
            if "extra_setup_stamps" in result:
                start, end = result.pop("extra_setup_stamps")
                extra = end - start
                scaled = extra / probe.factor(start, end)
            result["samples"]["setup_s"] = [
                s / f + scaled for s, f in zip(setups, factors)
            ]
            result["raw"]["setup_s"] = [s + extra for s in setups]
    finally:
        if state is not None:
            workload.teardown(state)
        probe.stop()
        shutil.rmtree(root, ignore_errors=True)
    return result


def contract_line(result: dict, trace: bool) -> dict:
    """The driver's result object (the last line of stdout)."""
    if trace:
        layers = result["layers"]
        metrics = {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, (unit, _better) in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {
                "value": statistics.median(result["samples"][name]),
                "unit": unit,
            }
            for name, (unit, _better, _bound) in END_TO_END.items()
        }
    failed = len(result.get("failures", []))
    return {
        "correct": failed == 0,
        "attempted": max(1, result.get("attempted", 1)),
        "failed": failed,
        "metrics": metrics,
    }


def print_workload(name: str, result: dict, trace: bool) -> None:
    print(f"== {name} ({'traced' if trace else 'end to end'}) ==")
    if trace:
        for metric, value in result["layers"].items():
            unit = PER_LAYER[metric][0]
            print(f"  {metric:<44} {value:>14.4f} {unit}")
        return
    for metric, values in result["samples"].items():
        unit = unit_of(metric)
        stats = quartiles(values)
        alias = ALIASES[name].get(metric, "")
        print(
            f"  {metric:<28} {stats['value']:>12.4f} {unit:<6} "
            f"n={stats['n']:<3} iqr=[{stats['q1']:.4f}, {stats['q3']:.4f}]"
            + (f"  # {alias}" if alias else "")
        )
    for key, values in result["raw"].items():
        print(f"  raw {key:<24} {statistics.median(values):>12.4f}"
              "   (not scaled to reference speed)")
    for key, value in result["counts"].items():
        print(f"  {key:<28} {value:>12.4f}")
    failed = len(result["failures"])
    attempted = max(1, result["attempted"])
    print(
        f"  error_rate                   {failed / attempted:>12.6f} "
        f"({failed} failed / {attempted} attempted)"
    )
    for failure in sorted(set(result["failures"]))[:20]:
        print(f"  FAILED: {failure}")


# ----------------------------------------------------------------------
# All workloads, one result file
# ----------------------------------------------------------------------
def environment() -> tuple[dict, list[str]]:
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True
    ).stdout.strip()
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    warnings = []
    if nproc < 2:
        warnings.append(f"nproc is {nproc}: client and server share a core")
    if load > nproc:
        warnings.append(f"1-minute load average {load:.2f} exceeds nproc {nproc}")
    env = {
        "commit": commit or "unknown",
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "load_1m": load,
    }
    return env, warnings


def run_suite(args) -> int:
    scale = SCALES["smoke" if args.smoke else "full"]
    env, warnings = environment()
    for warning in warnings:
        print(f"WARNING: {warning}", file=sys.stderr)
    result = {
        **env,
        "seed": args.seed,
        "scale": scale.name,
        "seconds": args.seconds,
        "warnings": warnings,
        "workloads": {},
    }
    RESULTS.mkdir(exist_ok=True)
    passes = [0, 1] if args.trace else [0]
    for name in [args.workload] if args.workload else list(WORKLOADS):
        entry = result["workloads"][name] = {}
        for trace in passes:
            detail = RESULTS / f".detail-{name}-{os.getpid()}.json"
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--detail", str(detail),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
            if done.returncode != 0:
                print(f"{name}: exited {done.returncode}", file=sys.stderr)
                return 1
            report = json.loads(detail.read_text())
            detail.unlink()
            if trace:
                entry["layers"] = report["layers"]
                continue
            entry.update(
                metrics={
                    metric: {**quartiles(values), "unit": unit_of(metric)}
                    for metric, values in report["samples"].items()
                },
                attempted=max(1, report["attempted"]),
                failed=len(report["failures"]),
                failures=sorted(set(report["failures"]))[:20],
                raw={
                    key: statistics.median(values)
                    for key, values in report["raw"].items()
                },
                counts=report["counts"],
                digests=report["digests"],
            )
    out = Path(args.out) if args.out else RESULTS / (
        f"e2e-{scale.name}-seed{args.seed}.json"
    )
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    if args.ledger:
        if scale.name != "full" or args.workload:
            print("the ledger takes full-scale, all-workload runs only",
                  file=sys.stderr)
            return 1
        row = {
            "commit": env["commit"],
            "fingerprint": f"{env['cpu']} x{env['nproc']} "
            f"py{env['python']} np{env['numpy']}",
            "seed": args.seed,
            "seconds": args.seconds,
            "metrics": {
                name: {
                    metric: stats["value"]
                    for metric, stats in entry["metrics"].items()
                }
                for name, entry in result["workloads"].items()
            },
        }
        with open(HERE / "ledger.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(row, separators=(",", ":")) + "\n")
    return 1 if any(e["failed"] for e in result["workloads"].values()) else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="result file (all-workload runs)")
    parser.add_argument("--ledger", action="store_true",
                        help="append this full-scale run to ledger.jsonl")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else RUN_SECONDS
    driver_run = args.workload and not (args.out or args.ledger)
    if not driver_run and not args.detail:
        return run_suite(args)
    scale = SCALES["smoke" if args.smoke else "full"]
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), scale
    )
    print_workload(args.workload, result, bool(args.trace))
    if args.detail:
        Path(args.detail).write_text(json.dumps(result))
    print(json.dumps(contract_line(result, bool(args.trace))))
    return 0


def guarded_main() -> int:
    """``main``, after which no process this run started is left: not a
    server, not a fit child, not a grandchild that outlived its parent."""
    procs.adopt_orphans()
    # A terminated run unwinds like a failed one, through every finally.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return main()
    finally:
        procs.end_descendants()


if __name__ == "__main__":
    sys.exit(guarded_main())
