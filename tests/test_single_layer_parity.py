"""The array ``SingleLayerModel`` against its dict oracle, and its
independence from the hash seed.

``tests/single_layer_reference.py`` is the dict version the array fit
replaced, kept verbatim. The two must agree to 1e-12 on every accuracy
and posterior, with equal participating sets, key orders, iteration
counts and coverage, for either false-value model, any support cutoff,
initialisation, stopping rule and provenance function. The array fit
sums in claim order, so its bytes — and the ``accu`` / ``popaccu``
signals built on it — do not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    ConvergenceConfig,
    FalseValueModel,
    SingleLayerConfig,
)
from repro.core.observation import ObservationMatrix
from repro.core.single_layer import SingleLayerModel
from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    SourceKey,
)

from single_layer_reference import SingleLayerModel as ReferenceModel

TOLERANCE = 1e-12
CORPUS = Path(__file__).parent / "goldens" / "corpus.jsonl"

SOURCES = [SourceKey((f"w{i % 3}.com", f"w{i}.com/p")) for i in range(6)]
EXTRACTORS = [ExtractorKey((f"e{i}",)) for i in range(4)]
ITEMS = [DataItem(f"s{i}", "p") for i in range(5)]
#: ``1``, ``True`` and ``1.0`` are one value: the first seen names it.
VALUES = ["a", "b", "c", 1, True, 1.0]

#: Provenance functions: the default pair, and three that merge pairs.
PROVENANCE_FNS = {
    "pair": None,
    "site": lambda extractor, source: source.features[0],
    "extractor": lambda extractor, source: extractor,
    "merged-pair": lambda extractor, source: (
        extractor.features[0] < "e2",
        source.features[0],
    ),
}


def records_strategy(max_records: int = 50):
    return st.lists(
        st.builds(
            ExtractionRecord,
            extractor=st.sampled_from(EXTRACTORS),
            source=st.sampled_from(SOURCES),
            item=st.sampled_from(ITEMS),
            value=st.sampled_from(VALUES),
            confidence=st.floats(min_value=0.05, max_value=1.0),
        ),
        max_size=max_records,
    )


def assert_parity(want, got) -> None:
    """``got`` (the array fit) against ``want`` (the dict oracle)."""
    assert got.participating == want.participating
    assert got.iterations_run == want.iterations_run
    assert got.coverage == want.coverage
    assert list(got.provenance_accuracy) == list(want.provenance_accuracy)
    for prov, accuracy in want.provenance_accuracy.items():
        assert abs(got.provenance_accuracy[prov] - accuracy) <= TOLERANCE
    assert list(got.value_posteriors) == list(want.value_posteriors)
    for item, values in want.value_posteriors.items():
        mine = got.value_posteriors[item]
        assert list(map(repr, mine)) == list(map(repr, values))
        for value, p in values.items():
            assert abs(mine[value] - p) <= TOLERANCE
    for snap_want, snap_got in zip(want.history, got.history):
        assert abs(snap_got.max_delta - snap_want.max_delta) <= TOLERANCE


@settings(max_examples=80, deadline=None)
@given(
    records=records_strategy(),
    false_value_model=st.sampled_from(list(FalseValueModel)),
    n=st.integers(min_value=1, max_value=100),
    min_source_support=st.integers(min_value=1, max_value=4),
    provenance=st.sampled_from(sorted(PROVENANCE_FNS)),
    max_iterations=st.integers(min_value=1, max_value=8),
    tolerance=st.sampled_from([0.0, 1e-4, 1e-2]),
    initial=st.dictionaries(
        st.tuples(st.sampled_from(EXTRACTORS), st.sampled_from(SOURCES)),
        st.floats(min_value=0.0, max_value=1.0),
        max_size=6,
    ),
)
def test_matches_the_dict_oracle(
    records,
    false_value_model,
    n,
    min_source_support,
    provenance,
    max_iterations,
    tolerance,
    initial,
):
    config = SingleLayerConfig(
        n=n,
        false_value_model=false_value_model,
        min_source_support=min_source_support,
        convergence=ConvergenceConfig(
            max_iterations=max_iterations, tolerance=tolerance
        ),
    )
    fn = PROVENANCE_FNS[provenance]
    options = {} if fn is None else {"provenance_fn": fn}
    observations = ObservationMatrix.from_records(records)
    want = ReferenceModel(config, **options).fit(observations, initial)
    got = SingleLayerModel(config, **options).fit(observations, initial)
    assert_parity(want, got)


@pytest.mark.parametrize("false_value_model", list(FalseValueModel))
def test_matches_the_dict_oracle_on_the_golden_corpus(false_value_model):
    from repro.io.jsonl import read_records

    observations = ObservationMatrix.from_records(read_records(CORPUS))
    config = SingleLayerConfig(false_value_model=false_value_model)
    assert_parity(
        ReferenceModel(config).fit(observations),
        SingleLayerModel(config).fit(observations),
    )


def test_provenance_fn_runs_once_per_source_extractor_pair():
    records = [
        ExtractionRecord(extractor, source, item, "a")
        for extractor in EXTRACTORS[:2]
        for source in SOURCES[:3]
        for item in ITEMS
    ]
    calls = []

    def provenance(extractor, source):
        calls.append((extractor, source))
        return (extractor, source)

    SingleLayerModel(provenance_fn=provenance).fit(
        ObservationMatrix.from_records(records)
    )
    assert sorted(calls, key=repr) == sorted(
        {(r.extractor, r.source) for r in records}, key=repr
    )


_DIGEST_CHILD = """
import hashlib, sys
from repro.core.config import FalseValueModel, SingleLayerConfig
from repro.core.observation import ObservationMatrix
from repro.core.single_layer import SingleLayerModel
from repro.io.jsonl import read_records
from repro.signals import CorpusContext
from repro.signals.providers import SingleLayerSignal

observations = ObservationMatrix.from_records(read_records(sys.argv[1]))
lines = []
for model in FalseValueModel:
    result = SingleLayerModel(
        SingleLayerConfig(false_value_model=model)
    ).fit(observations)
    for prov, accuracy in result.provenance_accuracy.items():
        lines.append(f"A {prov} {accuracy.hex()}")
    for item, values in result.value_posteriors.items():
        for value, p in values.items():
            lines.append(f"V {item} {value!r} {p.hex()}")
    lines.append(f"P {sorted(map(str, result.participating))}")
    scores = SingleLayerSignal(model).fit(CorpusContext(observations))
    for site, score in scores.scores.items():
        lines.append(f"S {site} {score.hex()} {scores.support[site].hex()}")
print(hashlib.sha256("\\n".join(lines).encode()).hexdigest())
"""


def test_fits_and_signals_do_not_depend_on_the_hash_seed():
    """Two interpreters with different ``PYTHONHASHSEED``s fit the golden
    corpus to the same ``float.hex`` digest: both results, both signals,
    values and key orders."""
    digests = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        done = subprocess.run(
            [sys.executable, "-c", _DIGEST_CHILD, str(CORPUS)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout.strip())
    assert len(digests) == 1, digests
