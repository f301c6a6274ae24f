"""Seed -> inputs. The program under test sees only the files and arrays
built here, never the seed.

The KV population is drawn once with a fixed generator seed: the cost of
every layer follows the corpus's heavy-tailed shape, and a different
draw moves records, coordinates and artifact bytes by 10-15% — wider
than any regression bound. ``--seed`` therefore draws the
*presentation*: the order the sites appear in the JSONL (and so every
index, float summation order and digest), which held-out sites form
which ingest batch, and the request sequences (see ``loadgen``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from repro.core.config import (
    AbsenceScope,
    ConvergenceConfig,
    MultiLayerConfig,
)
from repro.core.types import ExtractionRecord
from repro.datasets.kv import KVConfig, iter_kv_record_chunks
from repro.io.jsonl import write_records

GENERATOR_SEED = 23
FIT_ITERATIONS = 5
#: ingest-live watches for the first 200 on a site of each batch, so the
#: held-out sites are ones the model is sure to score: the smallest
#: sites with at least this many records.
MIN_HELD_OUT_RECORDS = 36


@dataclass(frozen=True)
class Scale:
    name: str
    websites: int
    #: ingest-live: this many sites arrive as batches, not in the base.
    held_out: int
    sites_per_batch: int


SCALES = {
    "full": Scale("full", websites=150, held_out=48, sites_per_batch=2),
    "smoke": Scale("smoke", websites=60, held_out=12, sites_per_batch=2),
}


def model_config(max_iterations: int = FIT_ITERATIONS, **overrides):
    """The model under test; tolerance 0 fixes the iteration count."""
    return MultiLayerConfig(
        absence_scope=AbsenceScope.ACTIVE,
        min_extractor_support=3,
        min_source_support=2,
        engine="numpy",
        convergence=ConvergenceConfig(
            tolerance=0.0, max_iterations=max_iterations
        ),
        **overrides,
    )


def generate_sites(scale: Scale) -> list[list[ExtractionRecord]]:
    """The population: one record list per website, generator order."""
    config = KVConfig(
        num_websites=scale.websites,
        items_per_predicate=60,
        num_systems=16,
        pages_zipf_exponent=0.9,
        claims_zipf_exponent=0.9,
        max_pages_per_site=30,
        max_claims_per_page=250,
        max_patterns_per_system=80,
        broad_pattern_fraction=0.2,
        narrow_affinity_base=0.004,
        seed=GENERATOR_SEED,
    )
    return [chunk for chunk in iter_kv_record_chunks(config) if chunk]


@dataclass
class Corpus:
    """One seeded presentation of the population."""

    #: sites fitted cold, in seeded order.
    base: list[list[ExtractionRecord]]
    #: ingest-live only: site-aligned batches of the held-out sites.
    batches: list[list[ExtractionRecord]]

    @property
    def base_records(self) -> list[ExtractionRecord]:
        return [record for site in self.base for record in site]

    def write_base(self, path: Path) -> int:
        return write_records(self.base_records, path)


def site_name(site: list[ExtractionRecord]) -> str:
    return site[0].source.website


def present(
    sites: list[list[ExtractionRecord]],
    seed: int,
    scale: Scale,
    hold_out: bool = False,
) -> Corpus:
    """Order the sites (and group the held-out ones) from ``seed``."""
    rng = random.Random(seed)
    held = []
    if hold_out:
        by_size = sorted(
            (s for s in sites if len(s) >= MIN_HELD_OUT_RECORDS), key=len
        )
        held = by_size[: scale.held_out]
        rng.shuffle(held)
    names = {site_name(site) for site in held}
    sites = [site for site in sites if site_name(site) not in names]
    rng.shuffle(sites)
    step = scale.sites_per_batch
    batches = [
        [record for site in held[i : i + step] for record in site]
        for i in range(0, len(held), step)
    ]
    return Corpus(base=sites, batches=batches)
