"""The Table 7 efficiency experiment: MR stages under a cluster cost model.

The paper's implementation runs on FlumeJava/MapReduce (Section 5.3.4); its
efficiency results are about *stragglers*: reduce tasks for huge sources or
extractors dominate a stage's wall clock until SPLITANDMERGE breaks them up.
We reproduce this as a cost model, not a second pipeline:

* :mod:`repro.mapreduce.cluster` — a cluster cost model computing each
  stage's makespan over ``num_workers`` with an LPT schedule;
* :mod:`repro.mapreduce.mr_multilayer` — the four MR jobs of one EM
  iteration (ExtCorr, TriplePr, SrcAccu, ExtQuality) as record counts and
  reduce-group sizes of the compiled problem (:class:`StageStats`),
  priced by :func:`iteration_timing`. Nothing here runs a fit.
"""

from repro.mapreduce.cluster import ClusterCostModel, lpt_makespan
from repro.mapreduce.mr_multilayer import (
    IterationTiming,
    StageStats,
    iteration_timing,
)

__all__ = [
    "ClusterCostModel",
    "IterationTiming",
    "StageStats",
    "iteration_timing",
    "lpt_makespan",
]
