"""The Section 5.2 synthetic data generator (known ground truth).

The paper's controlled experiments draw data sets with 10 sources and 5
extractors: every source provides a value for each of ``num_items`` data
items with accuracy ``A = 0.7``; each extractor processes a source with
probability ``delta = 0.5``, extracts each provided triple with recall
``R = 0.5``, and reconciles each of subject / predicate / object correctly
with probability ``P = 0.8`` (so triple-level precision is ``P^3``). One
knob is varied per experiment while the others stay fixed (Figures 3-4).

Reconciliation errors map into the *existing* item space, the way real
extractors fail: a corrupted subject is a systematic confusion with another
subject of the corpus (the same wrong entity every time for a given
extractor), a corrupted predicate flips to the other predicate, and a
corrupted object lands on another value of the item's domain. Corrupted
triples therefore compete with genuine evidence about real items — which is
exactly the signal that lets the multi-layer model separate extraction
errors from source errors (a triple extracted by one extractor and
contradicted by every source's provided values is explained away as
extractor noise).

Everything the evaluation needs is returned alongside the records: the true
value of every item, the set of truly-provided (source, item, value)
coordinates (ground truth for C), and empirical source accuracies and
extractor precision/recall (ground truth for A and P/R).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.types import (
    DataItem,
    ExtractionRecord,
    ExtractorKey,
    SourceKey,
    Value,
)
from repro.util.rng import derive_rng

#: A (source, item, value) coordinate.
Coord = tuple[SourceKey, DataItem, Value]

#: The two predicates of the synthetic world (predicate corruption flips
#: one into the other, so corrupted triples stay on existing items).
PREDICATES = ("p0", "p1")


@dataclass(frozen=True, slots=True)
class SyntheticConfig:
    """Knobs of the Section 5.2 generator (paper defaults)."""

    num_sources: int = 10
    num_extractors: int = 5
    num_items: int = 100
    source_accuracy: float = 0.7
    extractor_coverage: float = 0.5  # delta: P(extractor processes source)
    extractor_recall: float = 0.5  # R: P(extract a provided triple)
    component_precision: float = 0.8  # P: per subject/predicate/object
    num_false_values: int = 10  # n: |dom(d)| = n + 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_sources < 1 or self.num_extractors < 1:
            raise ValueError("need at least one source and one extractor")
        if self.num_items < 2:
            raise ValueError("num_items must be >= 2")
        for name in (
            "source_accuracy",
            "extractor_coverage",
            "extractor_recall",
            "component_precision",
        ):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        if self.num_false_values < 1:
            raise ValueError("num_false_values must be >= 1")

    @property
    def num_subjects(self) -> int:
        """Subjects are shared by the two predicates."""
        return (self.num_items + 1) // 2


@dataclass(frozen=True)
class SyntheticData:
    """A drawn data set plus full ground truth."""

    config: SyntheticConfig
    records: list[ExtractionRecord]
    #: world truth: item -> correct value.
    true_values: dict[DataItem, Value]
    #: ground truth of the C layer: coordinates truly provided by sources.
    provided: set[Coord]
    #: empirical accuracy per source (fraction of its claims that are true).
    true_accuracy: dict[SourceKey, float]
    #: empirical extractor quality measured from the drawn records: the
    #: fraction of extractions that reproduce a provided triple exactly
    #: (precision) and the fraction of seen provided triples extracted
    #: exactly (recall; ~ R * P^3 by construction).
    true_precision: dict[ExtractorKey, float]
    true_recall: dict[ExtractorKey, float]
    #: claims per source: source -> list of (item, value) it provides.
    claims: dict[SourceKey, list[tuple[DataItem, Value]]] = field(
        default_factory=dict
    )

    @property
    def sources(self) -> list[SourceKey]:
        return sorted(self.true_accuracy, key=str)

    @property
    def extractors(self) -> list[ExtractorKey]:
        return sorted(self.true_precision, key=str)


def _make_items(cfg: SyntheticConfig) -> list[DataItem]:
    """``num_items`` items: subjects crossed with the two predicates."""
    items = []
    for subject_index in range(cfg.num_subjects):
        for predicate in PREDICATES:
            if len(items) == cfg.num_items:
                break
            items.append(DataItem(f"s{subject_index}", predicate))
    return items


def _domain_value(item: DataItem, value_index: int) -> str:
    """Value ``value_index`` of the item's domain (0 is the truth)."""
    return f"{item.subject}.{item.predicate}.v{value_index}"


def _draw_web_layer(
    cfg: SyntheticConfig,
) -> tuple[
    list[SourceKey],
    dict[DataItem, Value],
    set[Coord],
    dict[SourceKey, list[tuple[DataItem, Value]]],
    dict[SourceKey, int],
]:
    """The web layer of the Section 5.2 process: what each source provides.

    Shared by :func:`generate` and :func:`iter_synthetic_record_chunks`
    so both consume the page RNG in exactly the same sequence — the
    drawn claims are identical either way.
    """
    page_rng = derive_rng(cfg.seed, "pages")
    sources = [SourceKey((f"w{i}",)) for i in range(cfg.num_sources)]
    items = _make_items(cfg)
    true_values: dict[DataItem, Value] = {
        item: _domain_value(item, 0) for item in items
    }
    provided: set[Coord] = set()
    claims: dict[SourceKey, list[tuple[DataItem, Value]]] = {}
    correct_count: dict[SourceKey, int] = {}
    for source in sources:
        claims[source] = []
        correct_count[source] = 0
        for item in items:
            if page_rng.random() < cfg.source_accuracy:
                value = true_values[item]
                correct_count[source] += 1
            else:
                value = _domain_value(
                    item, page_rng.randint(1, cfg.num_false_values)
                )
            claims[source].append((item, value))
            provided.add((source, item, value))
    return sources, true_values, provided, claims, correct_count


def iter_synthetic_record_chunks(config: SyntheticConfig | None = None):
    """Stream the Section 5.2 corpus as one record chunk per extractor.

    The chunked shape an out-of-core fit folds into the matrix
    (``ObservationMatrix.from_records(chain.from_iterable(chunks))``).
    Per-extractor RNG derivation matches :func:`generate` exactly, so
    concatenating the chunks reproduces ``generate(config).records``
    record for record — only the (small) web layer of true claims is
    held in memory, never the extraction corpus.
    """
    cfg = config or SyntheticConfig()
    sources, _true_values, _provided, claims, _ = _draw_web_layer(cfg)
    for j in range(cfg.num_extractors):
        extractor = ExtractorKey((f"e{j}",))
        rng = derive_rng(cfg.seed, "extract", j)
        confusion = _subject_confusion(cfg, j)
        chunk: list[ExtractionRecord] = []
        for source in sources:
            if rng.random() >= cfg.extractor_coverage:
                continue
            for item, value in claims[source]:
                if rng.random() >= cfg.extractor_recall:
                    continue
                out_item, out_value = _reconcile(
                    cfg, rng, confusion, item, value
                )
                chunk.append(
                    ExtractionRecord(
                        extractor=extractor,
                        source=source,
                        item=out_item,
                        value=out_value,
                    )
                )
        yield chunk


def generate(config: SyntheticConfig | None = None) -> SyntheticData:
    """Draw one data set from the Section 5.2 process."""
    cfg = config or SyntheticConfig()
    extractors = [ExtractorKey((f"e{j}",)) for j in range(cfg.num_extractors)]
    sources, true_values, provided, claims, correct_count = _draw_web_layer(
        cfg
    )
    true_accuracy = {
        source: correct_count[source] / len(claims[source])
        for source in sources
    }

    # --- extraction layer ---------------------------------------------
    records: list[ExtractionRecord] = []
    extracted_provided: dict[ExtractorKey, int] = {e: 0 for e in extractors}
    extracted_total: dict[ExtractorKey, int] = {e: 0 for e in extractors}
    provided_seen: dict[ExtractorKey, int] = {e: 0 for e in extractors}

    for j, extractor in enumerate(extractors):
        rng = derive_rng(cfg.seed, "extract", j)
        confusion = _subject_confusion(cfg, j)
        for source in sources:
            if rng.random() >= cfg.extractor_coverage:
                continue
            provided_seen[extractor] += len(claims[source])
            for item, value in claims[source]:
                if rng.random() >= cfg.extractor_recall:
                    continue
                out_item, out_value = _reconcile(
                    cfg, rng, confusion, item, value
                )
                records.append(
                    ExtractionRecord(
                        extractor=extractor,
                        source=source,
                        item=out_item,
                        value=out_value,
                    )
                )
                extracted_total[extractor] += 1
                if (source, out_item, out_value) in provided:
                    extracted_provided[extractor] += 1

    true_precision = {}
    true_recall = {}
    for extractor in extractors:
        total = extracted_total[extractor]
        seen = provided_seen[extractor]
        true_precision[extractor] = (
            extracted_provided[extractor] / total if total else 0.0
        )
        true_recall[extractor] = (
            extracted_provided[extractor] / seen if seen else 0.0
        )

    return SyntheticData(
        config=cfg,
        records=records,
        true_values=true_values,
        provided=provided,
        true_accuracy=true_accuracy,
        true_precision=true_precision,
        true_recall=true_recall,
        claims=claims,
    )


def _subject_confusion(cfg: SyntheticConfig, extractor_index: int):
    """The extractor's systematic entity-confusion table.

    Each extractor confuses subject ``s_i`` with one fixed other subject —
    the same wrong entity on every occurrence, like a real reconciler that
    consistently resolves an ambiguous name to the wrong person.
    """
    rng = derive_rng(cfg.seed, "confusion", extractor_index)
    table = {}
    for index in range(cfg.num_subjects):
        target = rng.randrange(cfg.num_subjects - 1)
        if target >= index:
            target += 1
        table[f"s{index}"] = f"s{target}"
    return table


def _reconcile(
    cfg: SyntheticConfig,
    rng,
    confusion: dict[str, str],
    item: DataItem,
    value: Value,
) -> tuple[DataItem, Value]:
    """Apply the per-component reconciliation noise of the generator.

    Each component survives with probability P (triple precision P^3);
    corruption targets live in the existing item space.
    """
    subject = item.subject
    predicate = item.predicate
    if rng.random() >= cfg.component_precision:
        subject = confusion[subject]
    if rng.random() >= cfg.component_precision:
        predicate = PREDICATES[1 - PREDICATES.index(predicate)]
    out_item = DataItem(subject, predicate)
    out_value = value
    if rng.random() >= cfg.component_precision:
        # Another value of the (original) item's domain.
        index = rng.randint(1, cfg.num_false_values)
        candidate = _domain_value(item, index)
        if candidate == value:
            candidate = _domain_value(item, 0)
        out_value = candidate
    return out_item, out_value
