"""The multi-layer EM iteration priced as Map-Reduce jobs (Table 7).

Each iteration consists of the four jobs the paper times:

* **I. ExtCorr** — records keyed by (w, d, v); the reduce computes
  ``p(C_wdv | X)`` from the group's extractor votes;
* **II. TriplePr** — correctness posteriors keyed by data item; the reduce
  computes ``p(V_d | X)``;
* **III. SrcAccu** — claims keyed by source; the reduce computes ``A_w``;
* **IV. ExtQuality** — extractions keyed by extractor; the reduce computes
  ``(P_e, R_e, Q_e)``.

A job's record count and reduce-group sizes (:class:`StageStats`) are
fixed by the compiled problem, not by the parameters, so every iteration
costs the same: :func:`iteration_timing` reads them off a
:class:`~repro.core.indexing.CompiledProblem` and prices them with the
:class:`ClusterCostModel`. No fit runs here. The straggler effect the
paper observes falls out of the group sizes: without splitting, one mega
extractor's reduce group dominates stage IV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.indexing import CompiledProblem, claims_per_item
from repro.mapreduce.cluster import ClusterCostModel


@dataclass(frozen=True)
class StageStats:
    """Record counts + reduce group sizes of one MR job (Table 7).

    ``num_mapped`` is the map-phase input cardinality; ``group_sizes``
    the reduce-key group sizes. The simulated cluster cost model
    (:mod:`repro.mapreduce.cluster`) converts these into stage wall
    clock; they are structural, so they are identical in every EM
    iteration.
    """

    num_mapped: int
    group_sizes: tuple[int, ...]


def _stage_stats(prob: CompiledProblem) -> dict[str, StageStats]:
    """The Table 7 job statistics of one EM iteration.

    Mirrors the record routing of the paper's dataflow: stage I maps one
    record per extraction entry and reduces by coordinate; stage II maps
    the scored coordinates and reduces the estimable-source claims by
    data item; stage III maps the scored coordinates and reduces by
    source; stage IV re-reads the extraction entries and reduces by
    extractor column.
    """
    n_entries = len(prob.entry_coord)
    n_coords = prob.num_coords
    entries_per_coord = np.bincount(prob.entry_coord, minlength=n_coords)
    coords_per_source = np.bincount(
        prob.coord_source, minlength=len(prob.sources)
    )
    entries_per_col = np.bincount(prob.entry_col, minlength=prob.num_cols)

    def sizes(counts: np.ndarray) -> tuple[int, ...]:
        return tuple(counts[counts > 0].tolist())

    return {
        "ext_corr": StageStats(n_entries, sizes(entries_per_coord)),
        "triple_pr": StageStats(n_coords, sizes(claims_per_item(prob))),
        "src_accu": StageStats(n_coords, sizes(coords_per_source)),
        "ext_quality": StageStats(n_entries, sizes(entries_per_col)),
    }


@dataclass(frozen=True, slots=True)
class IterationTiming:
    """Simulated wall-clock of the four jobs of one EM iteration."""

    ext_corr: float
    triple_pr: float
    src_accu: float
    ext_quality: float

    @property
    def total(self) -> float:
        return self.ext_corr + self.triple_pr + self.src_accu + self.ext_quality


def iteration_timing(
    prob: CompiledProblem, cost_model: ClusterCostModel
) -> IterationTiming:
    """Simulated wall clock of one EM iteration over ``prob``: each
    job's :class:`StageStats` priced by ``cost_model.stage_time``."""
    return IterationTiming(
        **{
            job: cost_model.stage_time(stage.num_mapped, stage.group_sizes)
            for job, stage in _stage_stats(prob).items()
        }
    )


def preparation_time(
    plan_rounds: tuple[tuple[int, ...], ...],
    num_records: int,
    cost_model: ClusterCostModel,
) -> float:
    """Simulated wall-clock of a SPLITANDMERGE preparation pass.

    One map over every record to key it by its finest source/extractor, one
    planning reduce per algorithm round (group sizes = the round's worklist
    sizes), and one final map to rewrite the records under the new keys.
    """
    time = cost_model.map_time(num_records)
    for round_sizes in plan_rounds:
        time += cost_model.reduce_time(round_sizes)
    time += cost_model.map_time(num_records)
    return time
