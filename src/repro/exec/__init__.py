"""Sharded execution: pluggable parallel backends for the multi-layer EM.

The paper fits 2.8B triples as a MapReduce dataflow (Table 7); this
subsystem gives the reproduction the same decomposition as a first-class
API instead of a simulation:

* :class:`~repro.exec.plan.ShardPlan` partitions a compiled problem by
  data item into self-contained shard packets;
* :mod:`repro.exec.worker` runs the per-shard E steps (the map side of
  the ExtCorr / TriplePr jobs);
* :class:`~repro.exec.backends.ExecutionBackend` implementations
  (``serial`` / ``threads`` / ``processes``) decide where the map rounds
  execute;
* :func:`~repro.exec.driver.fit_sharded` is the numpy engine's one EM
  loop (``fit_numpy`` is the same function at one serial shard): map via
  the backend ``MultiLayerConfig.backend`` selects, reduce (SrcAccu /
  ExtQuality — the engine's parameter update) in the driver,
  bit-identical in float64 for any backend and shard count;
* :mod:`repro.exec.spill` makes the plan **out-of-core**: shard packets
  spill to disk (``ShardPlan.persist``) and stream back as memory-mapped
  views (:class:`~repro.exec.spill.OutOfCoreShardSource`), bounding peak
  memory by one packet plus the parameter vectors — the single-machine
  analogue of the paper's "no worker holds the corpus" MapReduce
  property;
* the subsystem is **fault tolerant**: the ``processes`` and ``remote``
  sessions are two transports under one supervision state machine
  (:mod:`repro.exec.supervisor`: crash detection, retry with backoff,
  re-homing, straggler speculation — terminal failures raise
  :class:`~repro.exec.backends.ExecError`), ``checkpoint_dir`` persists
  the EM state atomically every ``checkpoint_every`` iterations
  (:mod:`repro.exec.checkpoint`) so a killed fit resumes with
  ``resume=True`` to bit-identical results, and
  :class:`~repro.exec.faults.FaultPlan` injects deterministic failures
  for tests and benchmarks.

Select it high-level via ``MultiLayerConfig(backend="processes",
num_shards=8)`` (plus ``spill_dir`` /
``max_resident_shards`` for out-of-core and ``checkpoint_dir`` /
``checkpoint_every`` / ``resume`` for crash recovery),
``KBTEstimator(backend=...)`` or the CLI
``--backend/--shards/--spill-dir/--checkpoint-dir`` flags;
:data:`repro.exec.driver.BACKENDS` maps a backend name to its class.
"""

from repro.exec.backends import (
    ExecError,
    ExecutionBackend,
    ExecutionSession,
    ProcessBackend,
    SerialBackend,
    ShardSource,
    ThreadBackend,
)
from repro.exec.checkpoint import (
    CheckpointError,
    FitCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.exec.driver import fit_sharded
from repro.exec.faults import FaultPlan
from repro.exec.plan import Shard, ShardPlan, StageStats
from repro.exec.spill import (
    OutOfCoreShardSource,
    SpillError,
    persist_plan,
    spill_problem_arrays,
)
from repro.exec.worker import IterationParams, run_shard_iteration

__all__ = [
    "CheckpointError",
    "ExecError",
    "ExecutionBackend",
    "ExecutionSession",
    "FaultPlan",
    "FitCheckpoint",
    "IterationParams",
    "OutOfCoreShardSource",
    "ProcessBackend",
    "SerialBackend",
    "Shard",
    "ShardPlan",
    "ShardSource",
    "SpillError",
    "StageStats",
    "ThreadBackend",
    "fit_sharded",
    "load_checkpoint",
    "persist_plan",
    "run_shard_iteration",
    "save_checkpoint",
    "spill_problem_arrays",
]
