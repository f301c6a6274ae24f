"""Unit tests for the sparse observation matrix: its columns, key tables
and counters.

The matrix holds columns only; the tests read its cells as dicts through
``tests/matrix_reference.reference_of`` (``cells``, ``cell``,
``iter_records``, ``active_extractors``), which converts the columns.
"""

import pickle
from collections import Counter
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrix_reference import plans_of, reference_of
from repro.core.granularity import GranularityPlan
from repro.core.observation import ObservationMatrix
from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    SourceKey,
)


def record(e, w, s, p, v, conf=1.0):
    return ExtractionRecord(
        extractor=ExtractorKey((e,)),
        source=SourceKey((w,)),
        item=DataItem(s, p),
        value=v,
        confidence=conf,
    )


def small_matrix():
    return ObservationMatrix.from_records(
        [
            record("e1", "w1", "s1", "p", "a"),
            record("e2", "w1", "s1", "p", "a", conf=0.5),
            record("e1", "w2", "s1", "p", "b"),
            record("e2", "w2", "s2", "p", "c"),
        ]
    )


class TestConstruction:
    def test_counts(self):
        m = small_matrix()
        assert m.num_records == 4
        assert m.num_cells == 3
        assert m.num_sources == 2
        assert m.num_extractors == 2
        assert m.columns().cell_item.tolist() == [0, 0, 1]  # two items
        assert m.num_triples == 3  # (s1,p,a), (s1,p,b), (s2,p,c)

    def test_cell_contents(self):
        m = small_matrix()
        cell = reference_of(m).cell(
            (SourceKey(("w1",)), DataItem("s1", "p"), "a")
        )
        assert cell == {
            ExtractorKey(("e1",)): 1.0,
            ExtractorKey(("e2",)): 0.5,
        }

    def test_missing_cell_is_empty(self):
        m = small_matrix()
        assert (
            SourceKey(("w9",)), DataItem("s1", "p"), "a"
        ) not in m.columns().coords

    def test_duplicate_keeps_max_confidence(self):
        m = ObservationMatrix.from_records(
            [
                record("e1", "w1", "s1", "p", "a", conf=0.3),
                record("e1", "w1", "s1", "p", "a", conf=0.9),
                record("e1", "w1", "s1", "p", "a", conf=0.5),
            ]
        )
        assert m.columns().entry_conf.tolist() == [0.9]
        assert m.num_records == 3
        assert m.num_cells == 1


class TestIndexes:
    def test_values_for_item(self):
        m = small_matrix()
        columns = m.columns()
        item = columns.cell_item == columns.cell_item[0]  # s1
        assert [columns.coords[k][2] for k in np.flatnonzero(item)] == [
            "a",
            "b",
        ]
        assert columns.cell_value[item].tolist() == [0, 1]
        assert columns.cell_source[item].tolist() == [0, 1]  # w1, w2

    def test_source_claims(self):
        m = small_matrix()
        columns = m.columns()
        w2 = np.flatnonzero(columns.cell_source == 1)
        assert [columns.coords[k][1:] for k in w2] == [
            (DataItem("s1", "p"), "b"),
            (DataItem("s2", "p"), "c"),
        ]

    def test_extractor_cells(self):
        m = small_matrix()
        columns = m.columns()
        e2 = list(m.extractors()).index(ExtractorKey(("e2",)))
        assert columns.entry_cell[columns.entry_extractor == e2].tolist() == [
            0,
            2,
        ]

    def test_active_extractors(self):
        m = small_matrix()
        sources, extractors = m.active_pairs()
        # w1 and w2 were each processed by e1 and e2.
        assert sources.tolist() == [0, 0, 1, 1]
        assert extractors.tolist() == [0, 1, 0, 1]
        assert reference_of(m).active_extractors(SourceKey(("w9",))) == set()

    def test_triples_enumeration(self):
        m = small_matrix()
        assert {coord[1:] for coord in m.columns().coords} == {
            (DataItem("s1", "p"), "a"),
            (DataItem("s1", "p"), "b"),
            (DataItem("s2", "p"), "c"),
        }
        assert m.num_triples == 3

    def test_sizes(self):
        m = small_matrix()
        assert m.source_sizes() == {
            SourceKey(("w1",)): 1,
            SourceKey(("w2",)): 2,
        }
        assert m.extractor_sizes()[ExtractorKey(("e1",))] == 2


class TestRelabel:
    def test_identity_relabel_preserves_everything(self):
        m = small_matrix()
        m2 = m.relabel()
        assert m2.num_cells == m.num_cells
        assert m2.columns().coords == m.columns().coords
        assert m2.num_triples == m.num_triples

    def test_source_relabel_merges(self):
        m = small_matrix()
        merged_key = SourceKey(("all",))
        plan = GranularityPlan([merged_key], np.zeros(3, dtype=np.int64))
        m2 = m.relabel(plan)
        assert m2.num_sources == 1
        assert m2.source_sizes()[merged_key] == 3

    def test_extractor_relabel(self):
        m = small_matrix()
        key = ExtractorKey(("merged",))
        plan = GranularityPlan([key], np.zeros(4, dtype=np.int64))
        m2 = m.relabel(extractors=plan)
        assert m2.num_extractors == 1
        assert m2.num_cells == 3

    def test_relabel_can_split_by_value(self):
        m = small_matrix()

        def by_value(w, d, v):
            return w.child_bucket(0 if v in ("a", "b") else 1)

        m2 = m.relabel(*plans_of(m, source_map=by_value))
        assert m2.num_sources == 3  # w1#0, w2#0, w2#1

    def test_relabel_preserves_confidences(self):
        m = small_matrix()
        m2 = m.relabel()
        cell = reference_of(m2).cell(
            (SourceKey(("w1",)), DataItem("s1", "p"), "a")
        )
        assert cell[ExtractorKey(("e2",))] == 0.5


# ----------------------------------------------------------------------
# The maintained counters and the columns against a specification
# ----------------------------------------------------------------------
def first_seen(keys):
    return list(dict.fromkeys(keys))


@st.composite
def record_lists(draw, max_size=40):
    """Records over small universes: duplicates, weaker and stronger
    repeats of one (extractor, coordinate), keys interleaved."""
    return draw(
        st.lists(
            st.builds(
                record,
                st.sampled_from(["e0", "e1", "e2", "e3"]),
                st.sampled_from(["w0", "w1", "w2", "w3"]),
                st.sampled_from(["s0", "s1", "s2"]),
                st.just("p"),
                st.sampled_from(["a", "b", "c"]),
                st.sampled_from([0.1, 0.5, 0.9, 1.0]),
            ),
            max_size=max_size,
        )
    )


def cells_of(m):
    """The cells as (coordinate, {extractor: confidence}), cell order."""
    return list(reference_of(m).cells())


def records_of(m):
    """One record per cell entry, in cell order."""
    return list(reference_of(m).iter_records())


def active_of(m):
    return {s: reference_of(m).active_extractors(s) for s in m.sources()}


def assert_columns_restate_cells(m):
    """Every counter and id column, restated over the coordinates and
    the cells."""
    columns = m.columns()
    cells = cells_of(m)
    coords = columns.coords
    assert m.num_cells == len(cells) == len(coords)
    assert m.source_sizes() == Counter(s for s, _i, _v in coords)
    assert m.extractor_sizes() == Counter(
        e for _c, cell in cells for e in cell
    )
    assert m.num_sources == len(m.source_sizes())
    assert m.num_extractors == len(m.extractor_sizes())
    sources = list(m.sources())
    assert [sources[s] for s in columns.cell_source.tolist()] == [
        s for s, _i, _v in coords
    ]
    # Equal items (values) share an id, ids in first-seen order.
    for part, ids in ((1, columns.cell_item), (2, columns.cell_value)):
        keys = first_seen(coord[part] for coord in coords)
        assert [keys.index(coord[part]) for coord in coords] == ids.tolist()
    entries = columns.entry_cell.tolist()
    assert entries == sorted(entries)
    assert m.num_triples == len({(i, v) for _s, i, v in coords})


def snapshot(m):
    """Everything a compile reads, order included."""
    return (
        [(coord, list(cell.items())) for coord, cell in cells_of(m)],
        list(m.source_sizes().items()),
        list(m.extractor_sizes().items()),
        active_of(m),
        m.num_records,
    )


class TestAgainstSpecification:
    @given(record_lists())
    @settings(max_examples=60, deadline=None)
    def test_from_records(self, records):
        m = ObservationMatrix.from_records(records)
        strongest = {}
        for r in records:
            cell = strongest.setdefault((r.source, r.item, r.value), {})
            cell[r.extractor] = max(r.confidence, cell.get(r.extractor, 0.0))
        assert dict(cells_of(m)) == strongest
        assert list(strongest) == m.columns().coords
        assert m.num_records == len(records)
        assert list(m.sources()) == first_seen(r.source for r in records)
        assert list(m.extractors()) == first_seen(
            r.extractor for r in records
        )
        for source, active in active_of(m).items():
            assert active == {
                r.extractor for r in records if r.source == source
            }
        assert_columns_restate_cells(m)

    @given(record_lists(), st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_chunk_fed_equals_flat(self, records, size):
        chunks = (records[i : i + size] for i in range(0, len(records), size))
        assert snapshot(
            ObservationMatrix.from_records(chain.from_iterable(chunks))
        ) == snapshot(ObservationMatrix.from_records(records))

    @given(record_lists(), record_lists(max_size=15), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_extended(self, base_records, delta_records, restrict_first):
        m = ObservationMatrix.from_records(base_records)
        o = ObservationMatrix.from_records(delta_records)
        if restrict_first:  # the warm-start update's delta problem
            m = m.restricted_to_items({DataItem("s0", "p")})
        before = snapshot(m), snapshot(o)
        ext = m.extended(o)
        assert (snapshot(m), snapshot(o)) == before
        assert_columns_restate_cells(ext)
        assert_columns_restate_cells(m)

        rebuilt = ObservationMatrix.from_records(
            [*records_of(m), *records_of(o)]
        )
        cells, source_sizes, extractor_sizes, active, _n = snapshot(ext)
        assert cells == snapshot(rebuilt)[0]
        assert source_sizes == snapshot(rebuilt)[1]
        assert dict(extractor_sizes) == rebuilt.extractor_sizes()
        if not restrict_first:
            assert active == snapshot(rebuilt)[3]
        assert ext.num_records == m.num_records + o.num_records
        # Known extractors keep their order; new ones follow in the
        # order the delta's cells list them.
        assert list(ext.extractors()) == first_seen(
            [*m.extractors(), *(e for _c, cell in cells_of(o) for e in cell)]
        )

    @given(record_lists(), st.sets(st.sampled_from(["s0", "s1", "s2", "s9"])))
    @settings(max_examples=60, deadline=None)
    def test_restricted_to_items(self, records, subjects):
        m = ObservationMatrix.from_records(records)
        sub = m.restricted_to_items({DataItem(s, "p") for s in subjects})
        assert dict(cells_of(sub)) == {
            coord: cell
            for coord, cell in cells_of(m)
            if coord[1].subject in subjects
        }
        assert sub.num_records == len(sub.columns().entry_cell)
        # A retained source keeps its corpus-level active extractors
        # that have a cell in the restriction.
        kept = set(sub.extractors())
        for source, active in active_of(sub).items():
            assert active == active_of(m)[source] & kept
        assert_columns_restate_cells(sub)
        # Sources and extractors are in the order the cells list them.
        assert snapshot(sub)[:3] == snapshot(
            ObservationMatrix.from_records(records_of(sub))
        )[:3]

    @given(record_lists(), record_lists(max_size=15))
    @settings(max_examples=60, deadline=None)
    def test_from_cells(self, base_records, delta_records):
        # An extended matrix: its extractor order is not entry order.
        m = ObservationMatrix.from_records(base_records).extended(
            ObservationMatrix.from_records(delta_records)
        )
        cells = cells_of(m)
        columns = (
            [coord for coord, _cell in cells],
            [len(cell) for _coord, cell in cells],
            [e for _coord, cell in cells for e in cell],
            [conf for _coord, cell in cells for conf in cell.values()],
        )
        by_entries = ObservationMatrix.from_cells(*columns)
        assert snapshot(by_entries) == snapshot(
            ObservationMatrix.from_records(records_of(m))
        )
        assert_columns_restate_cells(by_entries)
        restored = ObservationMatrix.from_cells(
            *columns, extractor_order=m.extractors()
        )
        assert snapshot(restored)[:4] == snapshot(m)[:4]
        assert restored.num_records == len(columns[2])

    def test_from_cells_rejects_inconsistent_columns(self):
        m = small_matrix()
        cells = cells_of(m)
        columns = (
            [coord for coord, _cell in cells],
            [len(cell) for _coord, cell in cells],
            [e for _coord, cell in cells for e in cell],
            [conf for _coord, cell in cells for conf in cell.values()],
        )
        e1, e2 = ExtractorKey(("e1",)), ExtractorKey(("e2",))
        for order in ([e1], [e1, e1], [e1, ExtractorKey(("e9",))]):
            with pytest.raises(ValueError, match="extractor_order"):
                ObservationMatrix.from_cells(*columns, extractor_order=order)
        assert list(
            ObservationMatrix.from_cells(*columns, extractor_order=[e2, e1])
            .extractors()
        ) == [e2, e1]
        coords, lens, extractors, confidences = columns
        for bad in (
            (coords, [1, *lens[1:]], extractors, confidences),
            (coords, lens, extractors, confidences[:-1]),
        ):
            with pytest.raises(ValueError, match="entries"):
                ObservationMatrix.from_cells(*bad)

    @given(record_lists())
    @settings(max_examples=40, deadline=None)
    def test_relabel_and_pickle(self, records):
        m = ObservationMatrix.from_records(records)
        assert snapshot(m.relabel()) == snapshot(
            ObservationMatrix.from_records(records_of(m))
        )
        merged = m.relabel(
            *plans_of(
                m,
                source_map=lambda w, d, v: SourceKey(("all",)),
                extractor_map=lambda e, d, v: e.child_bucket(len(str(v)) % 2),
            )
        )
        assert merged.num_triples == m.num_triples
        assert_columns_restate_cells(merged)
        for derived in (False, True):
            if derived:
                assert_columns_restate_cells(m)
            copy = pickle.loads(pickle.dumps(m))
            assert snapshot(copy) == snapshot(m)
            assert_columns_restate_cells(copy)


# ----------------------------------------------------------------------
# The one-loop fold against the per-record method it replaced
# ----------------------------------------------------------------------
class ReferenceFold:
    """``ObservationMatrix._add`` as it was, one method call per record:
    the reference the constructor's one-loop fold must equal."""

    def __init__(self, records):
        self.cells, self.source_sizes, self.extractor_sizes = {}, {}, {}
        self.active, self.num_records = {}, 0
        for r in records:
            self.add(r)

    def add(self, record):
        source = record.source
        extractor = record.extractor
        coord = (source, record.item, record.value)
        cell = self.cells.get(coord)
        if cell is None:
            cell = self.cells[coord] = {}
            sizes = self.source_sizes
            sizes[source] = sizes.get(source, 0) + 1
        if record.confidence > cell.get(extractor, 0.0):
            if extractor not in cell:
                sizes = self.extractor_sizes
                sizes[extractor] = sizes.get(extractor, 0) + 1
            cell[extractor] = record.confidence
        self.active.setdefault(source, set()).add(extractor)
        self.num_records += 1

    def snapshot(self):
        return (
            [(coord, list(cell.items())) for coord, cell in self.cells.items()],
            list(self.source_sizes.items()),
            list(self.extractor_sizes.items()),
            dict(self.active),
            self.num_records,
        )


def fold_snapshot(m):
    """``ReferenceFold.snapshot`` of a matrix, orders included."""
    return snapshot(m)


CONFIDENCES = st.sampled_from([0.25, 0.5, 1.0])


@st.composite
def fold_streams(draw):
    """Records with repeated coordinates at equal, higher and lower
    confidences; ``e0`` extracts from most cells."""
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["e0", "e0", "e0", "e1", "e2"]),
                st.sampled_from(["w0", "w1", "w2"]),
                st.sampled_from([f"s{i}" for i in range(8)]),
                st.sampled_from(["a", "b"]),
                CONFIDENCES,
            ),
            max_size=60,
        )
    )
    if rows:
        for index, confidence in draw(
            st.lists(st.tuples(st.integers(0, len(rows) - 1), CONFIDENCES))
        ):
            rows.append((*rows[index][:4], confidence))
    return [record(e, w, s, "p", v, c) for e, w, s, v, c in rows]


class TestFoldEquivalence:
    @given(fold_streams())
    @settings(max_examples=150, deadline=None)
    def test_fold_equals_the_per_record_method(self, records):
        m = ObservationMatrix.from_records(records)
        reference = ReferenceFold(records)
        assert fold_snapshot(m) == reference.snapshot()
        assert list(m.sources()) == list(reference.source_sizes)
        assert list(m.extractors()) == list(reference.extractor_sizes)

    @given(fold_streams())
    @settings(max_examples=60, deadline=None)
    def test_from_cells_round_trip(self, records):
        m = ObservationMatrix.from_records(records)
        cells = cells_of(m)
        columns = (
            [coord for coord, _cell in cells],
            [len(cell) for _coord, cell in cells],
            [e for _coord, cell in cells for e in cell],
            [conf for _coord, cell in cells for conf in cell.values()],
        )
        restored = ObservationMatrix.from_cells(
            *columns, extractor_order=m.extractors()
        )
        assert fold_snapshot(restored)[:4] == fold_snapshot(m)[:4]
        assert restored.num_records == len(columns[2])

    @given(fold_streams())
    @settings(max_examples=60, deadline=None)
    def test_relabel_parity(self, records):
        m = ObservationMatrix.from_records(records)

        def source_map(w, d, v):
            return SourceKey(("all",)) if v == "a" else w

        def extractor_map(e, d, v):
            return e.child_bucket(int(d.subject[1:]) % 2)

        reference = ReferenceFold(
            ExtractionRecord(
                extractor_map(e, coord[1], coord[2]),
                source_map(*coord),
                coord[1],
                coord[2],
                confidence,
            )
            for coord, cell in ReferenceFold(records).cells.items()
            for e, confidence in cell.items()
        )
        relabelled = m.relabel(*plans_of(m, source_map, extractor_map))
        assert fold_snapshot(relabelled) == reference.snapshot()
        assert fold_snapshot(m.relabel()) == fold_snapshot(
            ObservationMatrix.from_records(records_of(m))
        )
