"""Each process imports only the layers it runs.

``kbt serve`` maps a layout and answers lookups: its process must never
load the EM engine, SPLITANDMERGE, PageRank, copy detection,
evaluation or the ingest HTTP client. Two things keep it so — package
``__init__``s that resolve their re-exports on first access
(:mod:`repro._lazy`), and serving modules that import the fit layer only
on the cold paths that need it. The checks run in fresh interpreters,
since this test process has long imported everything.

The public API those lazy packages present is pinned here as well:
``__all__``, ``from pkg import name``, ``from pkg import *``, ``dir``
and ``from pkg import submodule`` behave as with eager imports.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import FunctionType
from urllib.parse import parse_qs

import pytest

pytest.importorskip("numpy")

import repro
from repro.core.kbt import KBTEstimator
from repro.io.mmap_layout import artifact_etag, cached_layout_dirs
from repro.serving.routes import handle_route
from repro.serving.store import TrustStore

from test_gateway import finish, http_get, spawn_serve
from test_ingest import batch_for, corpus as small_corpus

PACKAGES = [
    "repro",
    "repro.core",
    "repro.io",
    "repro.serving",
    "repro.ingest",
    "repro.signals",
    "repro.exec",
]

#: Modules the gateway's process must not hold: the model, the artifact
#: decoder, the execution backends, the signal providers, the ingest
#: loop, the web graph, evaluation, copy detection, urllib's client,
#: numpy (a mapped layout is read through typed memoryviews) and
#: statistics (with its fractions and decimal).
NOT_IN_THE_GATEWAY = [
    "repro.core.engine_numpy",
    "repro.core.observation",
    "repro.core.kbt",
    "repro.io.artifact",
    "repro.exec.backends",
    "repro.signals.providers",
    "repro.ingest.pipeline",
    "repro.web",
    "repro.eval",
    "repro.copydetect",
    "urllib.request",
    "numpy",
    "statistics",
]

# What `kbt serve` imports (the CLI, then run_serve's gateway and
# store), then one saved fit opened and the requests in argv[2] answered
# over HTTP, each as [status, body]: every route but the two signal
# routes, which load the signal frame and numpy on first use, and swaps,
# refused ones included.
SERVE_REQUESTS = """
import http.client, json, sys
import repro.cli
from repro.serving.gateway import GatewayThread, ListenError, serve_gateway
from repro.serving.manager import StoreManager
from repro.serving.mmap_store import MmapTrustStore

store = MmapTrustStore.open(sys.argv[1])
answers = []
with GatewayThread(StoreManager(store)) as url:
    host, port = url.removeprefix("http://").rsplit(":", 1)
    connection = http.client.HTTPConnection(host, int(port), timeout=30)
    for method, target, headers, body in json.loads(sys.argv[2]):
        connection.request(method, target, body=body, headers=headers)
        response = connection.getresponse()
        answers.append([response.status, response.read().decode("utf-8")])
    connection.close()
print(json.dumps({"answers": answers, "modules": sorted(sys.modules)}))
"""


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter over this checkout's ``repro``."""
    source = str(Path(repro.__file__).resolve().parents[1])
    paths = [source, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )


def routed(store, target: str) -> list:
    """``[status, body]`` of the route table's answer to a GET of
    ``target``."""
    path, _, query = target.partition("?")
    status, payload = handle_route(store, path, parse_qs(query))
    return [status, json.dumps(payload, ensure_ascii=False)]


def saved_without_layout(fitted, path):
    """``fitted`` saved at ``path``, its layout then deleted: an
    artifact that arrives without one."""
    fitted.save(path)
    for layout in cached_layout_dirs(path):
        shutil.rmtree(layout)
    return path


def test_the_gateway_loads_only_the_serving_layer(tmp_path):
    fitted = KBTEstimator().fit(small_corpus())
    path = fitted.save(tmp_path / "model.kbt")
    (tmp_path / "next").mkdir()
    swapped = KBTEstimator().fit(
        small_corpus() + batch_for("a.com", "more")
    ).save(tmp_path / "next" / "model.kbt")
    # Two swaps the gateway refuses, writing nothing: a file that is not
    # an artifact, and an artifact whose saved layout is gone.
    refused = tmp_path / "refused"
    refused.mkdir()
    garbage = refused / "garbage.kbt"
    garbage.write_bytes(b"this is not an artifact\n")
    bare = saved_without_layout(
        KBTEstimator().fit(small_corpus() + batch_for("b.com", "bare")),
        refused / "bare.kbt",
    )
    listing = sorted(os.listdir(refused))
    etag = artifact_etag(path)
    sites = ["good.com", "bad.com", "nosuch.com", "good.com"]
    reads = [
        "/score?site=good.com",
        "/page?site=good.com&page=good.com/p",
        f"/batch?sites={','.join(sites)}",
        "/top?k=3",
        "/percentile?site=good.com",
        "/breakdown?site=good.com",
        "/healthz",
        "/score?site=nosuch.com",
    ]
    requests = [
        *(["GET", target, {}, None] for target in reads),
        ["POST", "/batch", {}, json.dumps({"sites": sites})],
        ["GET", "/readyz", {}, None],
        ["GET", "/score?site=good.com", {"If-None-Match": f'"{etag}"'}, None],
        ["POST", "/admin/swap", {}, json.dumps({"artifact": str(garbage)})],
        ["GET", "/readyz", {}, None],
        ["POST", "/admin/swap", {}, json.dumps({"artifact": str(bare)})],
        ["GET", "/readyz", {}, None],
        ["POST", "/admin/swap", {}, json.dumps({"artifact": str(swapped)})],
        ["GET", "/breakdown?site=a.com", {}, None],
    ]

    run = fresh_python("-c", SERVE_REQUESTS, str(path), json.dumps(requests))
    report = json.loads(run.stdout)

    answers = report["answers"]
    before, after = TrustStore.open(path), TrustStore.open(swapped)
    assert answers[: len(reads)] == [routed(before, t) for t in reads]
    assert answers[len(reads) - 1][0] == 404
    body = json.loads(answers[0][1])
    want = fitted.website_scores()["good.com"]
    assert (body["key"], body["score"], body["support"]) == (
        want.key,
        want.score,
        want.support,
    )
    assert answers[len(reads)] == routed(before, reads[2])
    ready, not_modified, *refusals, swap, new_breakdown = answers[
        len(reads) + 1 :
    ]
    assert ready[0] == 200 and json.loads(ready[1])["etag"] == etag
    assert not_modified == [304, ""]
    for refusal, still_ready in zip(refusals[::2], refusals[1::2]):
        assert refusal[0] == 400
        assert json.loads(refusal[1])["error"].startswith(
            "swap rejected: LayoutError: no serving-layout manifest"
        )
        assert still_ready == ready
    assert len(refusals) == 4
    assert sorted(os.listdir(refused)) == listing
    assert swap[0] == 200
    assert json.loads(swap[1]) == {
        "status": "swapped",
        "etag": artifact_etag(swapped),
        "generation": 1,
        "websites": len(after),
    }
    assert new_breakdown == routed(after, "/breakdown?site=a.com")

    loaded = set(report["modules"])
    assert "repro.serving.gateway" in loaded  # the check ran for real
    assert [name for name in NOT_IN_THE_GATEWAY if name in loaded] == []


def test_kbt_serve_exports_a_missing_layout_before_it_serves(tmp_path):
    """What a swap refuses, ``kbt serve`` serves: it exports the layout
    once, before its event loop, and answers byte for byte as the store
    over the artifact's columns."""
    fitted = KBTEstimator().fit(small_corpus())
    bare = saved_without_layout(fitted, tmp_path / "bare.kbt")
    proc, _line, address = spawn_serve(bare, "--port", 0)
    try:
        ready = http_get(address, "/readyz")
        scored = http_get(address, "/score?site=good.com")
    finally:
        assert finish(proc) == (0, "")
    assert json.loads(ready[1])["etag"] == artifact_etag(bare)
    status, body = routed(TrustStore.open(bare), "/score?site=good.com")
    assert scored[:2] == (status, body.encode("utf-8"))
    assert [p.name for p in cached_layout_dirs(bare)] == [
        f"bare.kbt.layout-{artifact_etag(bare)[:16]}"
    ]


def test_help_imports_no_numpy():
    run = fresh_python("-X", "importtime", "-m", "repro", "--help")
    assert "usage: kbt" in run.stdout
    # -X importtime writes "import time: self | cumulative | name".
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in run.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }
    assert "repro.cli" in imported
    assert "numpy" not in imported


# ----------------------------------------------------------------------
# The public API of the lazy packages
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_is_its_defining_modules_object(name):
    package = importlib.import_module(name)
    exports = package._EXPORTS
    assert set(package.__all__) - {"__version__"} == set(exports)
    for export in package.__all__:
        if export == "__version__":
            continue
        home = importlib.import_module(exports[export])
        value = getattr(home, export)
        assert getattr(package, export) is value, export
        if isinstance(value, (type, FunctionType)):
            # The table names where the object is defined, not a module
            # that re-exports it.
            assert value.__module__ == home.__name__, export


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_binds_all_and_dir_lists_it(name):
    package = importlib.import_module(name)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(package.__all__)
    for export in package.__all__:
        assert namespace[export] is getattr(package, export)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_an_unknown_name_is_an_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {name} import no_such_name", {})


def test_from_a_package_import_a_submodule():
    # In a fresh interpreter the package does not yet hold the
    # submodule, so the name falls through __getattr__ to the import.
    check = (
        "import sys\n"
        "from repro.core import results\n"
        "from repro import core\n"
        "assert results is sys.modules['repro.core.results']\n"
        "assert core is sys.modules['repro.core']\n"
        "print('ok')\n"
    )
    assert fresh_python("-c", check).stdout == "ok\n"
    from repro.core import results

    assert results is sys.modules["repro.core.results"]


def test_the_errors_callers_catch_as_value_errors_are_value_errors():
    """The gateway's swap handler and the CLI catch ``ValueError`` for
    these, without importing the modules that define them."""
    from repro.exec.checkpoint import CheckpointError
    from repro.exec.spill import SpillError
    from repro.io.artifact import ArtifactError
    from repro.io.mmap_layout import LayoutError
    from repro.signals.base import SignalError

    for error in (
        ArtifactError,
        LayoutError,
        SignalError,
        CheckpointError,
        SpillError,
    ):
        assert issubclass(error, ValueError), error
