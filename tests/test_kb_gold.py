"""Unit tests for the KB, LCWA labeling, type checking and gold standard."""

import pytest

from repro.core.observation import ObservationMatrix
from repro.core.types import DataItem, Triple
from repro.extraction.entities import EntityCatalog
from repro.extraction.schema import default_schema
from repro.extraction.world import TrueWorld
from repro.kb.gold import GoldStandard
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.lcwa import Label, LCWALabeler
from repro.kb.typecheck import TypeChecker, TypeViolation


@pytest.fixture(scope="module")
def world():
    return TrueWorld.build(
        default_schema(), EntityCatalog(seed=0), items_per_predicate=20,
        seed=0,
    )


class TestKnowledgeBase:
    def test_add_and_query(self):
        kb = KnowledgeBase([Triple("s", "p", "o")])
        assert kb.contains(DataItem("s", "p"), "o")
        assert kb.has_item(DataItem("s", "p"))
        assert not kb.contains(DataItem("s", "p"), "other")
        assert kb.values(DataItem("s", "p")) == {"o"}

    def test_unknown_item(self):
        kb = KnowledgeBase()
        assert not kb.has_item(DataItem("x", "p"))
        assert kb.values(DataItem("x", "p")) == set()

    def test_from_world_full_coverage(self, world):
        kb = KnowledgeBase.from_world(world, coverage=1.0)
        assert kb.num_items == world.num_items
        for item in world.items():
            assert kb.contains(item, world.true_value(item))

    def test_from_world_partial_coverage(self, world):
        kb = KnowledgeBase.from_world(world, coverage=0.4, seed=1)
        fraction = kb.num_items / world.num_items
        assert 0.25 < fraction < 0.55

    def test_from_world_zero_coverage(self, world):
        kb = KnowledgeBase.from_world(world, coverage=0.0)
        assert sum(len(kb.values(item)) for item in kb.items()) == 0

    def test_coverage_validated(self, world):
        with pytest.raises(ValueError):
            KnowledgeBase.from_world(world, coverage=1.5)


class TestLCWA:
    def test_known_fact_true(self):
        kb = KnowledgeBase([Triple("s", "p", "o")])
        assert LCWALabeler(kb).label(DataItem("s", "p"), "o") is Label.TRUE

    def test_conflicting_value_false(self):
        kb = KnowledgeBase([Triple("s", "p", "o")])
        assert LCWALabeler(kb).label(DataItem("s", "p"), "x") is Label.FALSE

    def test_unknown_item_unknown(self):
        kb = KnowledgeBase([Triple("s", "p", "o")])
        assert LCWALabeler(kb).label(DataItem("s2", "p"), "o") is Label.UNKNOWN

    def test_label_many_covers_all_inputs(self):
        kb = KnowledgeBase([Triple("s", "p", "o")])
        triples = [(DataItem("s", "p"), "o"), (DataItem("z", "p"), "o")]
        labeler = LCWALabeler(kb)
        labels = {
            (item, value): labeler.label(item, value) for item, value in triples
        }
        assert len(labels) == 2


class TestTypeChecker:
    @pytest.fixture(scope="class")
    def checker(self):
        return TypeChecker(default_schema())

    def test_valid_entity_value_passes(self, checker):
        assert checker.check(
            DataItem("person:0001", "nationality"), "country:0002"
        ) is None

    def test_wrong_entity_type_flagged(self, checker):
        assert checker.check(
            DataItem("person:0001", "nationality"), "city:0002"
        ) is TypeViolation.INCOMPATIBLE_TYPE

    def test_subject_equals_object_flagged(self, checker):
        assert checker.check(
            DataItem("person:0001", "spouse"), "person:0001"
        ) is TypeViolation.SUBJECT_EQUALS_OBJECT

    def test_out_of_range_number_flagged(self, checker):
        assert checker.check(
            DataItem("person:0001", "height_cm"), 2300.0
        ) is TypeViolation.OUT_OF_RANGE

    def test_in_range_number_passes(self, checker):
        assert checker.check(
            DataItem("person:0001", "height_cm"), 180.0
        ) is None

    def test_string_for_numeric_predicate_flagged(self, checker):
        assert checker.check(
            DataItem("person:0001", "height_cm"), "tall"
        ) is TypeViolation.INCOMPATIBLE_TYPE

    def test_bool_is_not_a_number(self, checker):
        assert checker.check(
            DataItem("person:0001", "height_cm"), True
        ) is TypeViolation.INCOMPATIBLE_TYPE

    def test_unknown_predicate_passes(self, checker):
        assert checker.check(DataItem("s", "mystery"), "anything") is None

    def test_string_predicate_accepts_strings(self, checker):
        assert checker.check(DataItem("person:0001", "gender"),
                             "gender-val0") is None

    def test_non_string_for_string_predicate_flagged(self, checker):
        assert checker.check(
            DataItem("person:0001", "gender"), 3.0
        ) is TypeViolation.INCOMPATIBLE_TYPE


class TestGoldStandard:
    @pytest.fixture(scope="class")
    def gold(self, world):
        kb = KnowledgeBase.from_world(world, coverage=1.0)
        return GoldStandard(kb, default_schema())

    def test_true_fact_labelled_true(self, gold, world):
        item = world.items()[0]
        assert gold.label(item, world.true_value(item)) is Label.TRUE

    def test_false_value_labelled_false(self, gold, world):
        item = world.items_for_predicate("nationality")[0]
        false_value = world.facts(item).false_values()[0]
        assert gold.label(item, false_value) is Label.FALSE

    def test_type_violation_overrides_lcwa(self, gold, world):
        item = world.items_for_predicate("nationality")[0]
        assert gold.label(item, "city:0001") is Label.FALSE
        assert gold.is_extraction_error(item, "city:0001")

    def test_unknown_subject_unknown(self, gold):
        assert gold.label(
            DataItem("person:9999#x", "nationality"), "country:0001"
        ) is Label.UNKNOWN

    def test_labeled_triples_skips_unknowns(self, gold, world, kv_small):
        labels = gold.labeled_triples(kv_small.observation())
        for (item, value), verdict in list(labels.items())[:50]:
            assert isinstance(verdict, bool)

    def test_initial_source_accuracy_orders_sites(self, world):
        """Init from gold must rank an accurate source above a bad one."""
        from repro.core.types import ExtractionRecord, ExtractorKey, SourceKey

        kb = KnowledgeBase.from_world(world, coverage=1.0)
        gold = GoldStandard(kb, default_schema())
        items = world.items_for_predicate("nationality")[:10]
        records = []
        for item in items:
            records.append(
                ExtractionRecord(
                    extractor=ExtractorKey(("e",)),
                    source=SourceKey(("good.com",)),
                    item=item,
                    value=world.true_value(item),
                )
            )
            records.append(
                ExtractionRecord(
                    extractor=ExtractorKey(("e",)),
                    source=SourceKey(("bad.com",)),
                    item=item,
                    value=world.facts(item).false_values()[0],
                )
            )
        obs = ObservationMatrix.from_records(records)
        init = gold.initial_source_accuracy(obs)
        assert init[SourceKey(("good.com",))] > init[SourceKey(("bad.com",))]

    def test_initial_accuracy_smoothing_pulls_to_default(self, world):
        from repro.core.types import ExtractionRecord, ExtractorKey, SourceKey

        kb = KnowledgeBase.from_world(world, coverage=1.0)
        gold = GoldStandard(kb, default_schema())
        item = world.items()[0]
        records = [
            ExtractionRecord(
                extractor=ExtractorKey(("e",)),
                source=SourceKey(("one.com",)),
                item=item,
                value=world.true_value(item),
            )
        ]
        obs = ObservationMatrix.from_records(records)
        init = gold.initial_source_accuracy(
            obs, default_accuracy=0.8, prior_weight=5.0
        )
        # One true label + 5 * 0.8 pseudo-counts over 6.
        assert init[SourceKey(("one.com",))] == pytest.approx(5.0 / 6.0)

    def test_initial_extractor_quality_penalises_type_errors(self, world):
        from repro.core.types import ExtractionRecord, ExtractorKey, SourceKey

        kb = KnowledgeBase.from_world(world, coverage=1.0)
        gold = GoldStandard(kb, default_schema())
        item = world.items_for_predicate("height_cm")[0]
        records = []
        for i in range(20):
            records.append(
                ExtractionRecord(
                    extractor=ExtractorKey(("clean",)),
                    source=SourceKey((f"w{i}",)),
                    item=item,
                    value=150.0 + i,
                )
            )
            records.append(
                ExtractionRecord(
                    extractor=ExtractorKey(("dirty",)),
                    source=SourceKey((f"w{i}",)),
                    item=item,
                    value=9999.0 + i,  # out of range
                )
            )
        obs = ObservationMatrix.from_records(records)
        quality = gold.initial_extractor_quality(obs)
        assert quality[ExtractorKey(("clean",))].precision > (
            quality[ExtractorKey(("dirty",))].precision
        )
