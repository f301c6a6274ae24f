"""The columnar matrix and the array compile against their dict-backed
reference (``tests/matrix_reference.py``), and the ``str``-tie orders.

Every construction — ``from_records``, ``from_cells``,
``restricted_to_items``, ``extended``, ``relabel`` — is run on both
sides from the same inputs. Every key table, counter and
``CompiledProblem`` field must be equal, and so must every dict view of
the columns (``reference_of``) and of the reference, orders and value
types included (``1``, ``True`` and ``1.0`` share a cell but are not
the same value). CI runs this file under three hash seeds.
"""

import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrix_reference import (
    ReferenceMatrix,
    plans_of,
    reference_compile_problem,
    reference_of,
)
from repro.core.config import (
    AbsenceScope,
    FalseValueModel,
    MultiLayerConfig,
)
from repro.core.indexing import CompiledProblem, compile_problem
from repro.core.kbt import KBTEstimator
from repro.core.observation import ObservationMatrix
from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    SourceKey,
)
from repro.io.artifact import ArtifactError, load_artifact

from test_artifact import member_arrays, rewrite_members, v3_parts

VALUES = ["a", "b", 1, True, 1.0, None, 0]


def typed(x):
    """``x`` with every scalar tagged by its type, so ``1 != True``."""
    if isinstance(x, (tuple, list)):
        return type(x)(typed(part) for part in x)
    if isinstance(x, dict):
        return [(typed(k), typed(v)) for k, v in x.items()]
    if isinstance(x, (set, frozenset)):
        return sorted(map(repr, x))
    return (type(x).__name__, x)


@st.composite
def record_lists(draw, max_size=40):
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["e0", "e1", "e2", "e3"]),
                st.sampled_from(["w0", "w1", "w2", "w3"]),
                st.sampled_from(["s0", "s1", "s2", "s3"]),
                st.sampled_from(VALUES),
                st.sampled_from([0.2, 0.5, 0.9, 1.0]),
            ),
            max_size=max_size,
        )
    )
    return [
        ExtractionRecord(
            ExtractorKey((e,)), SourceKey((w,)), DataItem(s, "p"), v, c
        )
        for e, w, s, v, c in rows
    ]


def counters(m):
    """The key tables and counters a matrix holds itself."""
    return (
        list(m.sources()),
        list(m.extractors()),
        list(m.source_sizes().items()),
        list(m.extractor_sizes().items()),
        (
            m.num_records, m.num_cells, m.num_sources, m.num_extractors,
            m.num_triples,
        ),
    )


def views(m):
    """Every view and counter of a ``ReferenceMatrix``, orders and value
    types included. The active sets count the extractors with a cell
    here: a restriction's reference keeps corpus-level ones besides."""
    cells = list(m.cells())
    coords = [coord for coord, _cell in cells]
    return {
        "cells": typed(cells),
        "cell": [typed(m.cell(coord)) for coord in coords],
        "missing": m.cell((SourceKey(("nowhere",)), DataItem("x", "p"), 9)),
        "sources": list(m.sources()),
        "extractors": list(m.extractors()),
        "items": list(m.items()),
        "triples": typed(list(m.triples())),
        "counts": (
            m.num_records, m.num_cells, m.num_sources, m.num_extractors,
            m.num_items, m.num_triples,
        ),
        "source_sizes": list(m.source_sizes().items()),
        "extractor_sizes": list(m.extractor_sizes().items()),
        "active": [
            typed(m.active_extractors(s) & set(m.extractors()))
            for s in m.sources()
        ],
        "values_for_item": [
            typed(m.values_for_item(item)) for item in m.items()
        ],
        "source_claims": [typed(m.source_claims(s)) for s in m.sources()],
        "extractor_cells": [
            typed(m.extractor_cells(e)) for e in m.extractors()
        ],
        "records": typed([tuple(r) for r in m.iter_records()]),
    }


#: Compile-only configs. The compile does not read ``use_weighted_vcv``;
#: it is False because a POPACCU config refuses weighted VCV.
CONFIGS = [
    MultiLayerConfig(
        engine="numpy",
        absence_scope=AbsenceScope.ACTIVE,
        min_source_support=source,
        min_extractor_support=extractor,
        confidence_threshold=threshold,
        false_value_model=model,
        use_weighted_vcv=False,
    )
    for source, extractor, threshold, model in [
        (1, 1, None, FalseValueModel.ACCU),
        (1, 1, 0.5, FalseValueModel.POPACCU),
        (2, 1, None, FalseValueModel.POPACCU),
        (1, 2, 0.5, FalseValueModel.ACCU),
        (2, 3, None, FalseValueModel.ACCU),
        (3, 2, 0.95, FalseValueModel.POPACCU),
    ]
]


def assert_same_problem(m, reference):
    held = {id(coord) for coord in m.columns().coords}
    for cfg in CONFIGS:
        got = compile_problem(m, cfg)
        want = reference_compile_problem(reference, cfg)
        assert all(id(coord) in held for coord in got.coords)
        for field in dataclasses.fields(CompiledProblem):
            if not field.init:
                continue
            a = getattr(got, field.name)
            b = getattr(want, field.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype, field.name
                assert np.array_equal(a, b), field.name
            elif b is None:
                assert a is None, field.name
            elif isinstance(b, set):
                assert a == b, field.name
                assert list(a) == list(b), field.name  # iteration order
            else:
                assert typed(a) == typed(b), field.name


def assert_parity(m, reference):
    assert counters(m) == counters(reference)
    assert views(reference_of(m)) == views(reference)
    assert_same_problem(m, reference)


def cell_columns(m):
    cells = list(m.cells())
    return (
        [coord for coord, _cell in cells],
        [len(cell) for _coord, cell in cells],
        [e for _coord, cell in cells for e in cell],
        [conf for _coord, cell in cells for conf in cell.values()],
    )


class TestParity:
    @given(record_lists())
    @settings(max_examples=80, deadline=None)
    def test_from_records(self, records):
        assert_parity(
            ObservationMatrix.from_records(records),
            ReferenceMatrix.from_records(records),
        )

    def test_empty(self):
        assert_parity(
            ObservationMatrix.from_records([]),
            ReferenceMatrix.from_records([]),
        )

    @given(record_lists(), record_lists(max_size=15), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_from_cells(self, base, delta, ordered):
        reference = ReferenceMatrix.from_records(base).extended(
            ReferenceMatrix.from_records(delta)
        )
        columns = cell_columns(reference)
        order = list(reference.extractors()) if ordered else None
        assert_parity(
            ObservationMatrix.from_cells(*columns, extractor_order=order),
            ReferenceMatrix.from_cells(*columns, extractor_order=order),
        )

    @given(
        record_lists(),
        st.sets(st.sampled_from(["s0", "s1", "s2", "s9"])),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_restricted_to_items(self, records, subjects, then_extend):
        items = {DataItem(s, "p") for s in subjects}
        m = ObservationMatrix.from_records(records).restricted_to_items(items)
        reference = ReferenceMatrix.from_records(records).restricted_to_items(
            items
        )
        if then_extend:  # the warm-start update's delta problem
            delta = records[::3]
            m = m.extended(ObservationMatrix.from_records(delta))
            reference = reference.extended(ReferenceMatrix.from_records(delta))
        assert_parity(m, reference)

    @given(record_lists(), record_lists(max_size=15), record_lists(max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_extended(self, base, delta, more):
        m = ObservationMatrix.from_records(base).extended(
            ObservationMatrix.from_records(delta)
        )
        reference = ReferenceMatrix.from_records(base).extended(
            ReferenceMatrix.from_records(delta)
        )
        assert_parity(m, reference)
        assert_parity(
            m.extended(ObservationMatrix.from_records(more)),
            reference.extended(ReferenceMatrix.from_records(more)),
        )
        # A delta whose extractor table is not in entry order.
        assert_parity(
            ObservationMatrix.from_records(more).extended(m),
            ReferenceMatrix.from_records(more).extended(reference),
        )

    @given(record_lists())
    @settings(max_examples=40, deadline=None)
    def test_relabel(self, records):
        def source_map(w, d, v):
            return SourceKey(("all",)) if v in ("a", 1) else w

        def extractor_map(e, d, v):
            return e.child_bucket(int(d.subject[1:]) % 2)

        m = ObservationMatrix.from_records(records)
        reference = ReferenceMatrix.from_records(records)
        assert_parity(
            m.relabel(*plans_of(m, source_map, extractor_map)),
            reference.relabel(
                source_map=source_map, extractor_map=extractor_map
            ),
        )


# ----------------------------------------------------------------------
# Malformed cells are refused
# ----------------------------------------------------------------------
W1, W2 = SourceKey(("w1",)), SourceKey(("w2",))
E1, E2 = ExtractorKey(("e1",)), ExtractorKey(("e2",))
ITEM = DataItem("s", "p")


class TestMalformedCells:
    def test_repeated_coordinate(self):
        with pytest.raises(ValueError, match="coordinate is repeated"):
            ObservationMatrix.from_cells(
                [(W1, ITEM, "a"), (W1, ITEM, "a")], [1, 1], [E1, E2],
                [1.0, 1.0],
            )

    def test_repeated_extractor_in_a_cell(self):
        with pytest.raises(ValueError, match="extractor twice"):
            ObservationMatrix.from_cells(
                [(W1, ITEM, "a")], [2], [E1, E1], [0.5, 1.0]
            )

    def test_empty_cell(self):
        with pytest.raises(ValueError, match="length of at least 1"):
            ObservationMatrix.from_cells(
                [(W1, ITEM, "a"), (W2, ITEM, "a")], [0, 1], [E1], [1.0]
            )

    @pytest.mark.parametrize("confidence", [float("nan"), -0.5])
    def test_bad_confidence(self, confidence):
        with pytest.raises(ValueError, match="NaN or negative"):
            ObservationMatrix.from_cells(
                [(W1, ITEM, "a")], [1], [E1], [confidence]
            )

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda a: a["cell_item"].__setitem__(1, a["cell_item"][0]),
             "coordinate is repeated"),
            (lambda a: a["obs_extractor"].__setitem__(
                1, a["obs_extractor"][0]
            ), "extractor twice"),
            (lambda a: a["cell_len"].__setitem__(slice(0, 2), [0, 4]),
             "length of at least 1"),
            (lambda a: a["obs_conf"].__setitem__(0, float("nan")),
             "NaN or negative"),
        ],
    )
    def test_load_artifact_names_the_file(self, tmp_path, corrupt, message):
        # Two cells that differ only in item, two entries each.
        records = [
            ExtractionRecord(extractor, W1, item, "a")
            for item in (ITEM, DataItem("t", "p"))
            for extractor in (E1, E2)
        ]
        path = KBTEstimator().fit(records).save(
            tmp_path / "model.kbt"
        )
        arrays = member_arrays(path)
        corrupt(arrays)
        members = {}
        for name, array in arrays.items():
            member = io.BytesIO()
            np.save(member, array)
            members[f"{name}.npy"] = member.getvalue()
        rewrite_members(path, path, members)
        with pytest.raises(ArtifactError, match=message) as raised:
            load_artifact(path)
        assert str(path) in str(raised.value)


# ----------------------------------------------------------------------
# Distinct keys that share a str: orders follow the matrix, not the
# hash seed
# ----------------------------------------------------------------------
#: Three data items, four sources and two extractors that print alike.
TIED_ITEMS = [
    DataItem("a", "b, c, d"),
    DataItem("a, b, c", "d"),
    DataItem("a, b", "c, d"),
]
TIED_SOURCES = [
    SourceKey(("x", "y, z")),
    SourceKey(("x, y, z",)),
    SourceKey(("x", "y", "z")),
    SourceKey(("x, y", "z")),
]
TIED_EXTRACTORS = [ExtractorKey(("e", "0")), ExtractorKey(("e, 0",))]


def tied_records():
    assert len({str(item) for item in TIED_ITEMS}) == 1
    assert len({str(source) for source in TIED_SOURCES}) == 1
    assert len({str(extractor) for extractor in TIED_EXTRACTORS}) == 1
    return [
        ExtractionRecord(TIED_EXTRACTORS[k % 2], source, item, value)
        for k, (item, value, source) in enumerate(
            (item, value, source)
            for item in TIED_ITEMS
            for value in ("v", "u")
            for source in TIED_SOURCES
        )
    ]


class TestStrTies:
    def test_restriction_orders_ties_by_cell(self):
        m = ObservationMatrix.from_records(tied_records())
        sub = m.restricted_to_items(set(TIED_ITEMS))
        # Items, values and sources all tie or keep their first-seen
        # order, so the sub-matrix lists the cells as the matrix does.
        assert sub.columns().coords == m.columns().coords
        other = DataItem("a", "z")  # sorts after "(a, b, c, d)"
        extra = ExtractionRecord(E1, TIED_SOURCES[0], other, "v")
        m = ObservationMatrix.from_records([extra, *tied_records()])
        assert m.restricted_to_items(
            {other, *TIED_ITEMS}
        ).columns().coords == m.columns().coords[1:] + [
            (TIED_SOURCES[0], other, "v")
        ]

    def test_artifact_orders_tied_estimable_keys_by_table_id(self, tmp_path):
        records = tied_records()
        fitted = KBTEstimator(
            MultiLayerConfig(
                engine="numpy",
                absence_scope=AbsenceScope.ACTIVE,
                min_source_support=1,
                min_extractor_support=1,
            ),
            min_triples=0.0,
        ).fit(records)
        path = fitted.save(tmp_path / "tied.kbt")
        header, payload = v3_parts(path)
        sources = payload["est_sources"].tolist()
        extractors = payload["est_extractors"].tolist()
        # Every key ties on str, so the estimable sets list table ids.
        assert sources == list(range(len(TIED_SOURCES)))
        assert extractors == list(range(len(TIED_EXTRACTORS)))
        assert [
            SourceKey(tuple(features), bucket)
            for features, bucket in header["sources"][: len(TIED_SOURCES)]
        ] == TIED_SOURCES
