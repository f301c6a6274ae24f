"""The multi-layer EM iteration as a Map-Reduce dataflow (Table 7).

Each iteration consists of the four jobs the paper times:

* **I. ExtCorr** — records keyed by (w, d, v); the reduce computes
  ``p(C_wdv | X)`` from the group's extractor votes;
* **II. TriplePr** — correctness posteriors keyed by data item; the reduce
  computes ``p(V_d | X)``;
* **III. SrcAccu** — claims keyed by source; the reduce computes ``A_w``;
* **IV. ExtQuality** — extractions keyed by extractor; the reduce computes
  ``(P_e, R_e, Q_e)``.

Since the sharded execution API (:mod:`repro.exec`) landed, this runner no
longer maintains a private dict-based pipeline: the inference itself runs
through :func:`repro.exec.driver.fit_sharded` over a
:class:`~repro.exec.plan.ShardPlan` (numerically identical to
:class:`MultiLayerModel` — the sharded driver is bit-identical to the
numpy engine), and the per-job record counts and reduce group sizes of
the same compiled problem (:class:`StageStats`) feed the
:class:`ClusterCostModel`, which converts them into the simulated
per-stage wall clock Table 7 reports. The straggler effect
the paper observes falls out naturally: without splitting, one mega
extractor's reduce group dominates stage IV.

Supported configuration: the ACCU false-value model with any combination of
weighted/MAP value votes, prior re-estimation, confidence thresholding and
either absence scope (POPACCU is not supported here, matching Section 5.1.2
where the reported multi-layer variant is ACCU).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.config import FalseValueModel, MultiLayerConfig
from repro.core.indexing import CompiledProblem, compile_problem
from repro.core.observation import ObservationMatrix
from repro.core.results import MultiLayerResult
from repro.exec.driver import fit_sharded
from repro.exec.plan import ShardPlan, _claims_per_item, resolve_num_shards
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
        return tuple(int(c) for c in counts if c > 0)

    return {
        "ext_corr": StageStats(n_entries, sizes(entries_per_coord)),
        "triple_pr": StageStats(n_coords, sizes(_claims_per_item(prob))),
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


@dataclass
class MRRunReport:
    """Result + timing of an MR multi-layer run.

    ``plan`` is the shard plan the run executed over; the timings come
    from the per-job record counts and reduce group sizes of the same
    compiled problem (:class:`StageStats`).
    """

    result: MultiLayerResult
    iteration_timings: list[IterationTiming]
    plan: ShardPlan

    def average_iteration(self) -> IterationTiming:
        n = len(self.iteration_timings)
        if n == 0:
            return IterationTiming(0.0, 0.0, 0.0, 0.0)
        return IterationTiming(
            ext_corr=sum(t.ext_corr for t in self.iteration_timings) / n,
            triple_pr=sum(t.triple_pr for t in self.iteration_timings) / n,
            src_accu=sum(t.src_accu for t in self.iteration_timings) / n,
            ext_quality=sum(t.ext_quality for t in self.iteration_timings) / n,
        )

    @property
    def total_iteration_time(self) -> float:
        return sum(t.total for t in self.iteration_timings)


class MRMultiLayerRunner:
    """Runs Algorithm 1 as MR jobs over a simulated cluster."""

    def __init__(
        self,
        config: MultiLayerConfig | None = None,
        cost_model: ClusterCostModel | None = None,
    ) -> None:
        self._config = config or MultiLayerConfig()
        if self._config.false_value_model is not FalseValueModel.ACCU:
            raise NotImplementedError(
                "the MR runner supports the ACCU variant only"
            )
        self._cost = cost_model or ClusterCostModel()

    def run(self, observations: ObservationMatrix) -> MRRunReport:
        """Execute the EM loop as MR jobs; returns result + stage timings."""
        cfg = self._config
        if cfg.backend is None:
            # Sharded execution *is* the MR decomposition; default to the
            # in-process serial backend when the caller did not pick one.
            cfg = replace(cfg, backend="serial")
        prob = compile_problem(observations, cfg)
        plan = ShardPlan.from_problem(
            prob, cfg, resolve_num_shards(cfg, prob)
        )
        result = fit_sharded(cfg, observations, problem=prob, plan=plan)

        # The job structure (record counts, reduce group sizes) is fixed
        # by the corpus, not by the parameters, so every iteration costs
        # the same simulated wall clock.
        stats = _stage_stats(prob)
        per_iteration = IterationTiming(
            ext_corr=self._stage_time("ext_corr", stats),
            triple_pr=self._stage_time("triple_pr", stats),
            src_accu=self._stage_time("src_accu", stats),
            ext_quality=self._stage_time("ext_quality", stats),
        )
        timings = [per_iteration] * result.iterations_run
        return MRRunReport(
            result=result, iteration_timings=timings, plan=plan
        )

    def _stage_time(self, job: str, stats: dict) -> float:
        stage = stats[job]
        return self._cost.stage_time(stage.num_mapped, stage.group_sizes)


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
