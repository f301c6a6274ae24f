"""Local Closed-World Assumption labeling (Section 5.3.1).

A triple (s, p, o) is labelled

* ``TRUE``    when it appears in the KB;
* ``FALSE``   when the KB knows (s, p) with some other value o' — the KB is
  assumed *locally complete* for data items it knows anything about;
* ``UNKNOWN`` when the KB knows nothing about (s, p) — such triples are
  removed from the evaluation set.
"""

from __future__ import annotations

import enum

from repro.core.types import DataItem, Value
from repro.kb.knowledge_base import KnowledgeBase


class Label(enum.Enum):
    """Gold-standard verdict for one triple."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


class LCWALabeler:
    """Labels triples against a KB under the local closed-world assumption."""

    def __init__(self, kb: KnowledgeBase) -> None:
        self._kb = kb

    def label(self, item: DataItem, value: Value) -> Label:
        """LCWA verdict for (item, value)."""
        if self._kb.contains(item, value):
            return Label.TRUE
        if self._kb.has_item(item):
            return Label.FALSE
        return Label.UNKNOWN
