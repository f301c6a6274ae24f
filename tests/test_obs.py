"""``repro.obs``: spans that cost nothing off, and ``kbt fit --trace``."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

pytest.importorskip("numpy")

from repro import obs
from repro.cli import main as cli_main
from repro.core.config import ConvergenceConfig, MultiLayerConfig
from repro.core.kbt import KBTEstimator
from repro.io.jsonl import write_records

from test_artifact import corpus


def documented_spans() -> set[str]:
    """The span table of docs/architecture.md, as the CI step reads it
    (``tools/check_trace.py``)."""
    path = Path(__file__).parent.parent / "tools" / "check_trace.py"
    spec = importlib.util.spec_from_file_location("check_trace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.documented_spans()


def test_off_is_one_shared_object():
    assert not obs.recording()
    assert obs.span("a") is obs.span("b")
    with obs.span("a"):
        obs.event(ignored=True)


def test_spans_nest_and_table7_divides_by_iterations():
    recorder = obs.Recorder()
    with obs.installed(recorder):
        assert obs.recording()
        for iteration in (1, 2):
            with obs.span("em.map"):
                with obs.span("em.extcorr"):
                    pass
            obs.event(iteration=iteration)
    assert not obs.recording()
    lines = list(recorder.lines())
    spans = [line for line in lines if "span" in line]
    assert [(s["span"], s["parent"]) for s in spans] == [
        ("em.extcorr", "em.map"), ("em.map", None)
    ] * 2
    table = lines[-1]["table7"]
    assert table["iterations"] == 2
    seconds = table["seconds_per_iteration"]
    assert seconds["II TriplePr"] is None
    assert seconds["I ExtCorr"] == pytest.approx(
        sum(s["seconds"] for s in spans if s["span"] == "em.extcorr") / 2
    )


def read_trace(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.fixture
def records_file(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records(corpus(), path)
    return path


def test_fit_trace(tmp_path, records_file):
    plain, traced = tmp_path / "plain.kbt", tmp_path / "traced.kbt"
    trace = tmp_path / "trace.jsonl"
    common = ["fit", str(records_file), "--iterations", "4"]
    assert cli_main([*common, "--artifact", str(plain)]) == 0
    assert cli_main(
        [*common, "--artifact", str(traced), "--trace", str(trace)]
    ) == 0
    # Tracing reads clocks; it changes no byte of the fit.
    assert traced.read_bytes() == plain.read_bytes()
    lines = read_trace(trace)
    spans = {line["span"] for line in lines if "span" in line}
    assert spans == documented_spans()
    assert len(spans) == 20
    iterations = [line for line in lines if "iteration" in line]
    assert [line["iteration"] for line in iterations] == [1, 2, 3, 4]
    for line in iterations:
        assert set(line) == {
            "iteration", "accuracy_delta", "extractor_delta", "crossed"
        }
        assert line["crossed"] >= 0
    table = lines[-1]["table7"]
    assert table["iterations"] == 4
    assert all(
        isinstance(seconds, float)
        for seconds in table["seconds_per_iteration"].values()
    )


def test_processes_map_is_one_driver_span(tmp_path):
    """Where the map task runs in workers, the driver times the round."""
    cfg = MultiLayerConfig(
        convergence=ConvergenceConfig(max_iterations=2, tolerance=0.0)
    )
    recorder = obs.Recorder()
    with obs.installed(recorder):
        KBTEstimator(cfg, backend="processes", num_shards=2).fit(corpus())
    names = {name for name, *_rest in recorder.spans}
    assert "em.map" in names and "em.srcaccu" in names
    assert not {"em.extcorr", "em.triplepr"} & names
    seconds = recorder.table7()["seconds_per_iteration"]
    assert seconds["I ExtCorr"] is None and seconds["map round"] > 0


def test_each_checkpoint_is_one_span(tmp_path):
    """A fit with a checkpoint directory records one
    ``exec.checkpoint.save`` per checkpoint it writes (every iteration
    here), and tracing changes no byte of its artifact."""
    iterations = 3
    cfg = MultiLayerConfig(
        convergence=ConvergenceConfig(max_iterations=iterations, tolerance=0.0)
    )

    def fit(name: str) -> bytes:
        fitted = KBTEstimator(
            cfg, checkpoint_dir=str(tmp_path / name), checkpoint_every=1
        ).fit(corpus())
        return fitted.save(tmp_path / f"{name}.kbt").read_bytes()

    recorder = obs.Recorder()
    with obs.installed(recorder):
        traced = fit("traced")
    names = [name for name, *_rest in recorder.spans]
    assert names.count("exec.checkpoint.save") == iterations
    assert traced == fit("plain")
