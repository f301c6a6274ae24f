"""The matrix's side readers against their dict-walking references
(``tests/reader_reference.py``).

Each reader — the two triple weightings, the gold labels and "+"
initialisation, the co-claim graph and the SPLITANDMERGE planners —
runs as the library has it on an ``ObservationMatrix`` and as it was on
a ``ReferenceMatrix`` built from the same records, the same restriction
or the same relabelling. Dicts must be equal in content, value types and
key order; graphs in every node's out-links, in order; plans in
``rounds`` and in the final key of every cell and every entry (the
library's id plans against the reference's per-triple dict planner).
``1``, ``True`` and ``1.0`` share a cell but not a type check. CI runs
this file under three hash seeds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import reader_reference as reference
from matrix_reference import ReferenceMatrix, plans_of, reference_of
from repro.core.config import GranularityConfig
from repro.core.granularity import SplitAndMerge
from repro.core.observation import ObservationMatrix
from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    SourceKey,
    Triple,
)
from repro.core.weighting import idf_weights, predicate_variety_weights
from repro.extraction.schema import ObjectType, PredicateSpec, Schema
from repro.kb.gold import GoldStandard
from repro.kb.knowledge_base import KnowledgeBase
from repro.signals.base import co_claim_graph
from test_matrix_parity import typed

SUBJECTS = ["s0", "s1", "s2", "s3"]
PREDICATES = ["num", "name", "other"]
VALUES = ["a", "b", "s0", 1, True, 1.0, 0, 7, None]
#: Keys at up to three levels, so merges have parents to go to and can
#: cascade; no bucketed key (the reference planner raises on splitting
#: one).
SOURCES = [
    ("w0",),
    ("w0", "num"),
    ("w0", "name"),
    ("w1", "num"),
    ("w2",),
    ("w0", "num", "u0"),
    ("w0", "num", "u1"),
    ("w1", "num", "u2"),
    ("w1", "name", "u3"),
]
EXTRACTORS = [
    ("e0",),
    ("e0", "x"),
    ("e0", "y"),
    ("e1", "x"),
    ("e0", "x", "num"),
    ("e0", "x", "name"),
    ("e1", "y", "num"),
]

SCHEMA = Schema(
    [
        PredicateSpec(
            "num", "thing", ObjectType.NUMBER, value_range=(0.0, 5.0)
        ),
        PredicateSpec("name", "thing", ObjectType.STRING),
    ]
)
KB = KnowledgeBase(
    [
        Triple("s0", "num", 1),
        Triple("s1", "name", "a"),
        Triple("s2", "num", 7),
        Triple("s3", "other", True),
    ]
)


@st.composite
def record_lists(draw):
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(EXTRACTORS),
                st.sampled_from(SOURCES),
                st.sampled_from(SUBJECTS),
                st.sampled_from(PREDICATES),
                st.sampled_from(VALUES),
                st.sampled_from([0.3, 0.8, 1.0]),
            ),
            max_size=50,
        )
    )
    return [
        ExtractionRecord(
            ExtractorKey(e), SourceKey(w), DataItem(s, p), v, c
        )
        for e, w, s, p, v, c in rows
    ]


def source_map(w, d, v):
    return SourceKey(("w9",)) if v in ("a", 1) else w


def extractor_map(e, d, v):
    return ExtractorKey((*e.features[:1], d.predicate))


@st.composite
def matrix_pairs(draw):
    """One corpus as an ``ObservationMatrix`` and as a ``ReferenceMatrix``:
    as read, restricted to some items, or relabelled."""
    records = draw(record_lists())
    m = ObservationMatrix.from_records(records)
    r = ReferenceMatrix.from_records(records)
    shape = draw(st.sampled_from(["plain", "restricted", "relabelled"]))
    if shape == "restricted":
        items = {
            DataItem(s, p)
            for s in draw(st.sets(st.sampled_from(SUBJECTS)))
            for p in PREDICATES
        }
        return m.restricted_to_items(items), r.restricted_to_items(items)
    if shape == "relabelled":
        return (
            m.relabel(*plans_of(m, source_map, extractor_map)),
            r.relabel(source_map=source_map, extractor_map=extractor_map),
        )
    return m, r


def ordered(mapping):
    """A dict's items, key order and value types included."""
    return typed(list(mapping.items()))


class TestWeightings:
    @given(matrix_pairs())
    @settings(max_examples=60, deadline=None)
    def test_weights(self, pair):
        m, r = pair
        assert ordered(predicate_variety_weights(m)) == ordered(
            reference.predicate_variety_weights(r)
        )
        assert ordered(idf_weights(m)) == ordered(reference.idf_weights(r))


class TestGoldStandard:
    @given(matrix_pairs())
    @settings(max_examples=60, deadline=None)
    def test_labels_and_initialisation(self, pair):
        m, r = pair
        gold = GoldStandard(KB, SCHEMA)
        want = reference.ReferenceGoldStandard(KB, SCHEMA)
        assert ordered(gold.labeled_triples(m)) == ordered(
            want.labeled_triples(r)
        )
        assert ordered(gold.initial_source_accuracy(m)) == ordered(
            want.initial_source_accuracy(r)
        )
        assert ordered(
            gold.initial_extractor_quality(m, gamma=0.3, prior_weight=2.0)
        ) == ordered(
            want.initial_extractor_quality(r, gamma=0.3, prior_weight=2.0)
        )

    def test_true_and_one_are_typed_apart(self):
        """``1`` and ``True`` share the matrix's value id, not a label:
        ``True`` is a type violation of a number predicate."""
        item = DataItem("s0", "num")
        e = ExtractorKey(("e0",))
        records = [
            ExtractionRecord(e, SourceKey(("w0",)), item, 1),
            ExtractionRecord(e, SourceKey(("w1",)), item, True),
        ]
        m = ObservationMatrix.from_records(records)
        accuracy = GoldStandard(KB, SCHEMA).initial_source_accuracy(m)
        assert accuracy[SourceKey(("w0",))] > accuracy[SourceKey(("w1",))]


def edges(graph):
    return [(node, graph.out_links(node)) for node in graph.nodes]


class TestCoClaimGraph:
    @given(matrix_pairs())
    @settings(max_examples=60, deadline=None)
    def test_graph(self, pair):
        m, r = pair
        assert edges(co_claim_graph(m)) == edges(reference.co_claim_graph(r))


def finals(matrix, sources, extractors):
    """Each cell with its final source, and each entry with its final
    extractor, under the library's id plans."""
    columns = matrix.columns()
    coords = columns.coords
    keys = list(matrix.extractors())
    return typed(
        [
            *zip(coords, map(sources.keys.__getitem__, sources.ids.tolist())),
            *(
                (coords[cell], keys[extractor], extractors.keys[final])
                for cell, extractor, final in zip(
                    columns.entry_cell.tolist(),
                    columns.entry_extractor.tolist(),
                    extractors.ids.tolist(),
                )
            ),
        ]
    )


def reference_finals(matrix, sources, extractors):
    """``finals`` under the reference's per-triple dict plans."""
    cells = list(matrix.cells())
    return typed(
        [
            *((coord, sources(*coord)) for coord, _cell in cells),
            *(
                (coord, extractor, extractors(extractor, *coord[1:]))
                for coord, cell in cells
                for extractor in cell
            ),
        ]
    )


class TestPlans:
    @given(
        matrix_pairs(),
        st.integers(1, 4),
        st.integers(0, 4),
        st.booleans(),
        st.integers(0, 2),
    )
    @settings(max_examples=150, deadline=None)
    def test_plans(self, pair, low, extra, merge_small, seed):
        m, r = pair
        config = GranularityConfig(min_size=low, max_size=low + extra)
        planner = SplitAndMerge(config, seed=seed, merge_small=merge_small)
        want = reference.ReferenceSplitAndMerge(
            config, seed=seed, merge_small=merge_small
        )
        got = planner.plan_sources(m), planner.plan_extractors(m)
        expected = want.plan_sources(r), want.plan_extractors(r)
        assert [plan.rounds for plan in got] == [
            plan.rounds for plan in expected
        ]
        assert finals(m, *got) == reference_finals(r, *expected)
        regrouped = r.relabel(*expected)
        assert typed(list(reference_of(planner.apply(m)).cells())) == typed(
            list(regrouped.cells())
        )
