"""Unit tests for the sparse observation matrix and its derived views."""

import pickle
from collections import Counter
from itertools import chain

from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert m.num_items == 2
        assert m.num_triples == 3  # (s1,p,a), (s1,p,b), (s2,p,c)

    def test_cell_contents(self):
        m = small_matrix()
        cell = m.cell((SourceKey(("w1",)), DataItem("s1", "p"), "a"))
        assert cell == {
            ExtractorKey(("e1",)): 1.0,
            ExtractorKey(("e2",)): 0.5,
        }

    def test_missing_cell_is_empty(self):
        m = small_matrix()
        assert m.cell((SourceKey(("w9",)), DataItem("s1", "p"), "a")) == {}

    def test_duplicate_keeps_max_confidence(self):
        m = ObservationMatrix.from_records(
            [
                record("e1", "w1", "s1", "p", "a", conf=0.3),
                record("e1", "w1", "s1", "p", "a", conf=0.9),
                record("e1", "w1", "s1", "p", "a", conf=0.5),
            ]
        )
        cell = m.cell((SourceKey(("w1",)), DataItem("s1", "p"), "a"))
        assert cell[ExtractorKey(("e1",))] == 0.9
        assert m.num_records == 3
        assert m.num_cells == 1


class TestIndexes:
    def test_values_for_item(self):
        m = small_matrix()
        values = m.values_for_item(DataItem("s1", "p"))
        assert set(values) == {"a", "b"}
        assert values["a"] == {SourceKey(("w1",))}
        assert values["b"] == {SourceKey(("w2",))}

    def test_source_claims(self):
        m = small_matrix()
        assert m.source_claims(SourceKey(("w2",))) == [
            (DataItem("s1", "p"), "b"),
            (DataItem("s2", "p"), "c"),
        ]

    def test_extractor_cells(self):
        m = small_matrix()
        cells = m.extractor_cells(ExtractorKey(("e2",)))
        assert len(cells) == 2

    def test_active_extractors(self):
        m = small_matrix()
        assert m.active_extractors(SourceKey(("w1",))) == {
            ExtractorKey(("e1",)),
            ExtractorKey(("e2",)),
        }
        assert m.active_extractors(SourceKey(("w9",))) == set()

    def test_triples_enumeration(self):
        m = small_matrix()
        assert set(m.triples()) == {
            (DataItem("s1", "p"), "a"),
            (DataItem("s1", "p"), "b"),
            (DataItem("s2", "p"), "c"),
        }

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
        assert set(m2.triples()) == set(m.triples())

    def test_source_relabel_merges(self):
        m = small_matrix()
        merged_key = SourceKey(("all",))
        m2 = m.relabel(source_map=lambda w, d, v: merged_key)
        assert m2.num_sources == 1
        assert m2.source_sizes()[merged_key] == 3

    def test_extractor_relabel(self):
        m = small_matrix()
        key = ExtractorKey(("merged",))
        m2 = m.relabel(extractor_map=lambda e, d, v: key)
        assert m2.num_extractors == 1

    def test_relabel_can_split_by_value(self):
        m = small_matrix()

        def by_value(w, d, v):
            return w.child_bucket(0 if v in ("a", "b") else 1)

        m2 = m.relabel(source_map=by_value)
        assert m2.num_sources == 3  # w1#0, w2#0, w2#1

    def test_relabel_preserves_confidences(self):
        m = small_matrix()
        m2 = m.relabel()
        cell = m2.cell((SourceKey(("w1",)), DataItem("s1", "p"), "a"))
        assert cell[ExtractorKey(("e2",))] == 0.5


# ----------------------------------------------------------------------
# The maintained counters and derived views against a specification
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


def assert_views_restate_cells(m):
    """Every counter and derived view, restated over ``cells()``."""
    cells = list(m.cells())
    coords = [coord for coord, _cell in cells]
    assert m.num_cells == len(cells)
    assert m.source_sizes() == Counter(s for s, _i, _v in coords)
    assert m.extractor_sizes() == Counter(
        e for _c, cell in cells for e in cell
    )
    assert m.num_sources == len(m.source_sizes())
    assert m.num_extractors == len(m.extractor_sizes())
    for source in m.sources():
        claims = [(i, v) for s, i, v in coords if s == source]
        assert m.source_claims(source) == claims
        assert m.source_sizes()[source] == len(claims)
    for extractor in m.extractors():
        touched = {
            c: cell[extractor] for c, cell in cells if extractor in cell
        }
        assert m.extractor_cells(extractor) == touched
        assert list(m.extractor_cells(extractor)) == list(touched)
        assert m.extractor_sizes()[extractor] == len(touched)
    assert list(m.items()) == first_seen(i for _s, i, _v in coords)
    assert m.num_items == len(list(m.items()))
    for item in m.items():
        values = first_seen(v for _s, i, v in coords if i == item)
        assert list(m.values_for_item(item)) == values
        for value in values:
            assert m.values_for_item(item)[value] == {
                s for s, i, v in coords if (i, v) == (item, value)
            }
    triples = list(m.triples())
    assert set(triples) == {(i, v) for _s, i, v in coords}
    assert m.num_triples == len(set(triples)) == len(triples)


def snapshot(m):
    """Everything a compile reads, order included."""
    return (
        [(coord, list(cell.items())) for coord, cell in m.cells()],
        list(m.source_sizes().items()),
        list(m.extractor_sizes().items()),
        {s: m.active_extractors(s) for s in m.sources()},
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
        assert dict(m.cells()) == strongest
        assert list(strongest) == [coord for coord, _cell in m.cells()]
        assert m.num_records == len(records)
        assert list(m.sources()) == first_seen(r.source for r in records)
        assert list(m.extractors()) == first_seen(
            r.extractor for r in records
        )
        for source in m.sources():
            assert m.active_extractors(source) == {
                r.extractor for r in records if r.source == source
            }
        assert_views_restate_cells(m)

    @given(record_lists(), st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_chunk_fed_equals_flat(self, records, size):
        chunks = (records[i : i + size] for i in range(0, len(records), size))
        assert snapshot(
            ObservationMatrix.from_records(chain.from_iterable(chunks))
        ) == snapshot(ObservationMatrix.from_records(records))

    @given(record_lists(), record_lists(max_size=15), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_extended(self, base_records, delta_records, derive_first):
        m = ObservationMatrix.from_records(base_records)
        o = ObservationMatrix.from_records(delta_records)
        if derive_first:
            list(m.items())  # by-item is then carried, not re-derived
        before = snapshot(m), snapshot(o)
        ext = m.extended(o)
        assert (snapshot(m), snapshot(o)) == before
        assert (ext._by_item is not None) == derive_first
        assert_views_restate_cells(ext)
        assert_views_restate_cells(m)

        rebuilt = ObservationMatrix.from_records(
            [*m.iter_records(), *o.iter_records()]
        )
        cells, source_sizes, extractor_sizes, active, _n = snapshot(ext)
        assert cells == snapshot(rebuilt)[0]
        assert source_sizes == snapshot(rebuilt)[1]
        assert dict(extractor_sizes) == rebuilt.extractor_sizes()
        assert active == snapshot(rebuilt)[3]
        assert ext.num_records == m.num_records + o.num_records
        # Known extractors keep their order; new ones follow in the
        # order the delta's cells list them.
        assert list(ext.extractors()) == first_seen(
            [*m.extractors(), *(e for _c, cell in o.cells() for e in cell)]
        )

    @given(record_lists(), st.sets(st.sampled_from(["s0", "s1", "s2", "s9"])))
    @settings(max_examples=60, deadline=None)
    def test_restricted_to_items(self, records, subjects):
        m = ObservationMatrix.from_records(records)
        sub = m.restricted_to_items({DataItem(s, "p") for s in subjects})
        assert dict(sub.cells()) == {
            coord: cell
            for coord, cell in m.cells()
            if coord[1].subject in subjects
        }
        assert sub.num_records == sum(len(cell) for _c, cell in sub.cells())
        for source in sub.sources():
            assert sub.active_extractors(source) == m.active_extractors(
                source
            )
        assert sub._by_item is not None  # filled on the way, not re-derived
        assert_views_restate_cells(sub)
        # Sources and extractors are in the order the cells list them.
        assert snapshot(sub)[:3] == snapshot(
            ObservationMatrix.from_records(sub.iter_records())
        )[:3]

    @given(record_lists())
    @settings(max_examples=40, deadline=None)
    def test_relabel_and_pickle(self, records):
        m = ObservationMatrix.from_records(records)
        assert snapshot(m.relabel()) == snapshot(
            ObservationMatrix.from_records(m.iter_records())
        )
        merged = m.relabel(
            source_map=lambda w, d, v: SourceKey(("all",)),
            extractor_map=lambda e, d, v: e.child_bucket(len(str(v)) % 2),
        )
        assert merged.num_triples == m.num_triples
        assert_views_restate_cells(merged)
        for derived in (False, True):
            if derived:
                assert_views_restate_cells(m)
            copy = pickle.loads(pickle.dumps(m))
            assert snapshot(copy) == snapshot(m)
            assert_views_restate_cells(copy)
