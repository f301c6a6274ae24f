"""The Table 7 efficiency experiment: MR stages under a cluster cost model.

The paper's implementation runs on FlumeJava/MapReduce (Section 5.3.4); its
efficiency results are about *stragglers*: reduce tasks for huge sources or
extractors dominate a stage's wall clock until SPLITANDMERGE breaks them up.
We reproduce this with

* :mod:`repro.mapreduce.cluster` — a cluster cost model computing each
  stage's makespan over ``num_workers`` with an LPT schedule;
* :mod:`repro.mapreduce.mr_multilayer` — the multi-layer EM iteration as
  the four MR stages of Table 7 (ExtCorr, TriplePr, SrcAccu, ExtQuality):
  executed through the sharded execution API (:mod:`repro.exec`), with
  the shard plan's per-job statistics feeding the cost model.
"""

from repro.mapreduce.cluster import ClusterCostModel, lpt_makespan
from repro.mapreduce.mr_multilayer import (
    IterationTiming,
    MRMultiLayerRunner,
    MRRunReport,
)

__all__ = [
    "ClusterCostModel",
    "IterationTiming",
    "MRMultiLayerRunner",
    "MRRunReport",
    "lpt_makespan",
]
