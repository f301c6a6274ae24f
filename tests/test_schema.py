"""Unit tests for the predicate schema."""

import pytest

from repro.extraction.schema import (
    ObjectType,
    PredicateSpec,
    Schema,
    default_schema,
)


class TestPredicateSpec:
    def test_entity_predicate_needs_object_type(self):
        with pytest.raises(ValueError):
            PredicateSpec("nationality", "person", ObjectType.ENTITY)

    def test_numeric_predicate_needs_range(self):
        with pytest.raises(ValueError):
            PredicateSpec("height", "person", ObjectType.NUMBER)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            PredicateSpec(
                "height", "person", ObjectType.NUMBER, value_range=(5.0, 5.0)
            )

    def test_domain_size_minimum(self):
        with pytest.raises(ValueError):
            PredicateSpec("gender", "person", ObjectType.STRING, domain_size=1)

    def test_valid_string_predicate(self):
        spec = PredicateSpec("gender", "person", ObjectType.STRING,
                             domain_size=3)
        assert spec.functional


class TestSchema:
    def test_add_and_get(self):
        schema = Schema()
        spec = PredicateSpec("gender", "person", ObjectType.STRING,
                             domain_size=3)
        schema.add(spec)
        assert schema.get("gender") is spec
        assert "gender" in schema
        assert len(schema) == 1

    def test_duplicate_rejected(self):
        schema = Schema()
        spec = PredicateSpec("gender", "person", ObjectType.STRING,
                             domain_size=3)
        schema.add(spec)
        with pytest.raises(ValueError):
            schema.add(spec)

    def test_unknown_predicate_raises(self):
        with pytest.raises(KeyError):
            Schema().get("nope")

    def test_topic_lookup(self):
        schema = default_schema()
        assert schema.get("nationality").topic == "people"
        assert schema.get("capital").topic == "geography"


class TestDefaultSchema:
    def test_has_papers_predicates(self):
        schema = default_schema()
        for predicate in ("nationality", "date_of_birth", "place_of_birth",
                          "gender"):
            assert predicate in schema

    def test_covers_all_object_types(self):
        kinds = {spec.object_type for spec in default_schema().predicates()}
        assert kinds == set(ObjectType)

    def test_covers_multiple_topics(self):
        topics = {spec.topic for spec in default_schema().predicates()}
        assert len(topics) >= 3

    def test_numeric_predicates_have_sane_ranges(self):
        for spec in default_schema().predicates():
            if spec.object_type in (ObjectType.NUMBER, ObjectType.DATE):
                low, high = spec.value_range
                assert low < high
