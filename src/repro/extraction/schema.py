"""Predicate schema: the Freebase-style type system of the simulated world.

Each predicate declares its subject entity type, its object type (entity,
string, number or date), whether it is functional (single-valued — the
paper's single-truth assumption targets these), the size of a typical value
domain, and the expected numeric range when applicable. The gold-standard
type checker (Section 5.3.1) validates extracted triples against exactly
these declarations: subject==object, type-incompatible objects, and
out-of-range values are labelled false and counted as extraction errors.

Predicates also carry a ``topic``: the corpus generator gives each
website a topic and draws its predicates from that topic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ObjectType(enum.Enum):
    """What kind of value a predicate's object is."""

    ENTITY = "entity"
    STRING = "string"
    NUMBER = "number"
    DATE = "date"


@dataclass(frozen=True, slots=True)
class PredicateSpec:
    """Declaration of one predicate.

    Attributes:
        name: predicate identifier (e.g. ``nationality``).
        subject_type: entity type of valid subjects (e.g. ``person``).
        object_type: kind of the object value.
        object_entity_type: for ENTITY objects, the required entity type.
        functional: True when the predicate has a single true value per
            subject (the paper's experiments use functional semantics).
        domain_size: |dom(d)| for items of this predicate (n + 1).
        value_range: (low, high) for NUMBER/DATE objects; extractions
            outside this range are type errors (e.g. an athlete weighing
            over 1000 pounds, Section 5.3.1).
        topic: coarse topic label; websites cluster their predicates by it.
    """

    name: str
    subject_type: str
    object_type: ObjectType
    object_entity_type: str | None = None
    functional: bool = True
    domain_size: int = 11
    value_range: tuple[float, float] | None = None
    topic: str = "general"

    def __post_init__(self) -> None:
        if self.domain_size < 2:
            raise ValueError("domain_size must be >= 2")
        if self.object_type is ObjectType.ENTITY and not self.object_entity_type:
            raise ValueError("ENTITY predicates need object_entity_type")
        if self.object_type in (ObjectType.NUMBER, ObjectType.DATE):
            if self.value_range is None:
                raise ValueError(f"{self.name}: numeric predicates need a range")
            if self.value_range[0] >= self.value_range[1]:
                raise ValueError(f"{self.name}: empty value_range")


class Schema:
    """A registry of predicate specs."""

    def __init__(self, specs: list[PredicateSpec] | None = None) -> None:
        self._specs: dict[str, PredicateSpec] = {}
        for spec in specs or []:
            self.add(spec)

    def add(self, spec: PredicateSpec) -> None:
        if spec.name in self._specs:
            raise ValueError(f"duplicate predicate {spec.name!r}")
        self._specs[spec.name] = spec

    def get(self, name: str) -> PredicateSpec:
        spec = self._specs.get(name)
        if spec is None:
            raise KeyError(f"unknown predicate {name!r}")
        return spec

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def predicates(self) -> list[PredicateSpec]:
        return list(self._specs.values())

    def predicate_names(self) -> list[str]:
        return list(self._specs)

    def __len__(self) -> int:
        return len(self._specs)


def default_schema() -> Schema:
    """The stock schema used by the Knowledge-Vault-like corpus.

    Covers the kinds of predicates the paper mentions (nationality, date of
    birth, place of birth, gender) plus enough variety across topics and
    object types to exercise every type-checking rule.
    """
    return Schema(
        [
            PredicateSpec(
                "nationality", "person", ObjectType.ENTITY,
                object_entity_type="country", domain_size=11, topic="people",
            ),
            PredicateSpec(
                "date_of_birth", "person", ObjectType.DATE,
                value_range=(1850.0, 2015.0), domain_size=11, topic="people",
            ),
            PredicateSpec(
                "place_of_birth", "person", ObjectType.ENTITY,
                object_entity_type="city", domain_size=11, topic="people",
            ),
            PredicateSpec(
                "gender", "person", ObjectType.STRING, domain_size=3,
                topic="people",
            ),
            PredicateSpec(
                "profession", "person", ObjectType.ENTITY,
                object_entity_type="profession", domain_size=11,
                topic="people",
            ),
            PredicateSpec(
                "spouse", "person", ObjectType.ENTITY,
                object_entity_type="person", domain_size=11, topic="people",
            ),
            PredicateSpec(
                "height_cm", "person", ObjectType.NUMBER,
                value_range=(120.0, 230.0), domain_size=11, topic="people",
            ),
            PredicateSpec(
                "capital", "country", ObjectType.ENTITY,
                object_entity_type="city", domain_size=11, topic="geography",
            ),
            PredicateSpec(
                "population", "country", ObjectType.NUMBER,
                value_range=(1e4, 2e9), domain_size=11, topic="geography",
            ),
            PredicateSpec(
                "continent", "country", ObjectType.ENTITY,
                object_entity_type="continent", domain_size=7,
                topic="geography",
            ),
            PredicateSpec(
                "author", "book", ObjectType.ENTITY,
                object_entity_type="person", domain_size=11, topic="media",
            ),
            PredicateSpec(
                "publication_year", "book", ObjectType.DATE,
                value_range=(1450.0, 2015.0), domain_size=11, topic="media",
            ),
            PredicateSpec(
                "language", "film", ObjectType.ENTITY,
                object_entity_type="language", domain_size=6, topic="media",
            ),
            PredicateSpec(
                "director", "film", ObjectType.ENTITY,
                object_entity_type="person", domain_size=11, topic="media",
            ),
            PredicateSpec(
                "founded_year", "company", ObjectType.DATE,
                value_range=(1600.0, 2015.0), domain_size=11, topic="business",
            ),
            PredicateSpec(
                "headquarters", "company", ObjectType.ENTITY,
                object_entity_type="city", domain_size=11, topic="business",
            ),
        ]
    )
