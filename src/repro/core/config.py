"""Configuration objects for the single-layer and multi-layer models.

Defaults follow Section 5.1.2 of the paper: ``A_w = 0.8``, ``R_e = 0.8``,
``Q_e = 0.2``, prior ``alpha = 0.5``, ``n = 100`` for the single-layer model
and ``n = 10``, ``gamma = 0.25`` for the multi-layer model, five EM
iterations, and prior re-estimation starting from the third iteration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace


def parse_remote_endpoint(endpoint: str) -> tuple[str, int]:
    """Validate and split a ``"HOST:PORT"`` remote-execution endpoint.

    Returns ``(host, port)``; raises ``ValueError`` naming the defect
    for anything else (no colon, empty host, non-numeric or
    out-of-range port). IPv6 literals use the last colon as the
    separator, so ``::1:7471`` parses as host ``::1``.
    """
    host, sep, port_text = endpoint.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"remote_endpoint must be 'HOST:PORT', got {endpoint!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"remote_endpoint port must be an integer, got "
            f"{port_text!r} in {endpoint!r}"
        ) from None
    if not 1 <= port <= 65535:
        raise ValueError(
            f"remote_endpoint port must be in 1..65535, got {port}"
        )
    return host, port


class FalseValueModel(enum.Enum):
    """How the probability mass over false values is distributed (Eq. 1).

    ACCU spreads ``1 - A`` uniformly over the ``n`` false values; POPACCU
    uses the empirical popularity of the observed false values [13].
    """

    ACCU = "accu"
    POPACCU = "popaccu"


class AbsenceScope(enum.Enum):
    """Which extractors cast *absence* votes for a (w, d, v) coordinate.

    ALL matches the paper's worked example (every extractor in the universe
    is assumed to have processed every page); ACTIVE restricts absence votes
    to extractors that extracted at least one triple from the same source,
    which is the realistic semantics once extractors are modelled at the
    fine ``<extractor, pattern, predicate, website>`` granularity.
    """

    ALL = "all"
    ACTIVE = "active"


@dataclass(frozen=True, slots=True)
class ConvergenceConfig:
    """EM loop control shared by both models."""

    max_iterations: int = 5
    tolerance: float = 1e-4

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance < 0:
            raise ValueError("tolerance must be >= 0")


@dataclass(frozen=True, slots=True)
class SingleLayerConfig:
    """Configuration of the single-layer (knowledge fusion [11]) baseline.

    Attributes:
        n: number of false values per data item domain (|dom(d)| = n + 1).
        default_accuracy: initial source accuracy A_s.
        false_value_model: ACCU or POPACCU likelihood for wrong values.
        min_source_support: a provenance participates in fusion only if it
            provides at least this many triples; below-support provenances
            keep their default accuracy and are excluded, which is what makes
            coverage (Cov) fall below 1.
        convergence: EM loop control.
    """

    n: int = 100
    default_accuracy: float = 0.8
    false_value_model: FalseValueModel = FalseValueModel.ACCU
    min_source_support: int = 2
    convergence: ConvergenceConfig = ConvergenceConfig()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 < self.default_accuracy < 1.0:
            raise ValueError("default_accuracy must be in (0, 1)")
        if self.min_source_support < 1:
            raise ValueError("min_source_support must be >= 1")


#: Inference engines: the array engine (the default) and its Eq.-by-Eq.
#: dict oracle; ``MultiLayerModel.fit`` dispatches on the name.
ENGINES = ("python", "numpy")
#: Execution backends (``repro.exec.driver.BACKENDS`` has the classes).
BACKENDS = ("serial", "threads", "processes", "remote")


#: The :class:`MultiLayerConfig` fields that only say *where and how* a
#: fit runs. They are arguments of ``fit`` / ``update``, never state of a
#: fitted model: artifacts, serving etags and checkpoint digests cover
#: the other fields only. ``precision`` is deliberately not here —
#: float32 changes the numbers.
EXECUTION_FIELDS = (
    "backend",
    "num_shards",
    "spill_dir",
    "max_resident_shards",
    "checkpoint_dir",
    "checkpoint_every",
    "resume",
    "remote_endpoint",
    "num_workers",
    "reduce_chunk",
)


@dataclass(frozen=True, slots=True)
class MultiLayerConfig:
    """Configuration of the multi-layer model (Section 3).

    Attributes:
        n: number of false values per data item domain.
        gamma: prior probability that a source provides a random triple,
            used when deriving Q_e from P_e and R_e (Eq. 7).
        alpha: initial prior p(C_wdv = 1) used before re-estimation kicks in.
        default_accuracy: initial web-source accuracy A_w.
        default_recall: initial extractor recall R_e.
        default_q: initial Q_e (1 - specificity).
        absence_scope: which extractors cast absence votes (see AbsenceScope).
        use_weighted_vcv: use the improved estimator of Section 3.3.3
            (weight value votes by p(C|X)) instead of the MAP Chat;
            disabling this reproduces the "p(Vd|Chat_d)" ablation of Table 6.
        update_prior: re-estimate p(C_wdv = 1) from the previous iteration's
            value posteriors (Section 3.3.4); disabling reproduces the
            "Not updating alpha" ablation.
        prior_update_start_iteration: first iteration (1-based) at which the
            prior update is applied. The paper starts at the third
            iteration; we default to the second — in low-redundancy
            regimes (about one extraction per provided triple) the
            extractor-quality loop can ratchet before the value-layer
            correction arrives if the update starts later (see DESIGN.md).
        prior_floor / prior_ceiling: clamp on the re-estimated prior of
            Section 3.3.4. Eq. 26 omits the 1/n factor of Eq. 5, so an
            extreme source accuracy saturates the prior and the posterior
            with it; bounding the prior's log-odds contribution (default
            +-log(3)) keeps the value-layer feedback a hint rather than an
            override.
        confidence_threshold: if not None, binarise extractor confidences at
            this threshold instead of using soft votes (Section 3.5); the
            Table 6 ablation uses phi = 0 (any positive confidence -> 1).
        min_source_support / min_extractor_support: quality stays at the
            default below these evidence counts; triples seen only through
            below-support extractors are not covered (Cov < 1).
        false_value_model: ACCU (the variant the paper reports) or POPACCU
            (empirical false-value popularity; requires
            ``use_weighted_vcv=False``, see Section 5.1.2).
        quality_floor / quality_ceiling: clamp for estimated P/R/Q/A values,
            keeping the log-odds votes finite.
        convergence: EM loop control.
        engine: inference engine, one of :data:`ENGINES`. ``"numpy"``
            (the default) runs the vectorized array engine; ``"python"``
            runs the reference dict-based implementation, the oracle the
            array engine is tested against (numerically matching to
            <= 1e-9, several times slower on large corpora).
        backend: execution backend of the numpy engine's EM driver, one
            of :data:`BACKENDS`, or None (the default), which the driver
            runs as ``serial``.
            Each EM iteration runs as map (the per-shard ExtCorr /
            TriplePr E steps) + reduce (SrcAccu / ExtQuality: one global
            parameter update); float64 results are bit-identical
            regardless of shard count or backend.
        num_shards: number of data-item shards (None: a single shard
            when neither ``backend`` nor ``spill_dir`` is set, otherwise
            one per available CPU, capped at the item count).
        spill_dir: when set, the fit runs **out-of-core**: the shard
            packets and the compiled global arrays are spilled to this
            directory (:mod:`repro.exec.spill`) and served back as
            memory-mapped views, so the fit's anonymous working set
            drops to one packet plus the per-coordinate parameter and
            posterior vectors — the extraction/claim array mass (the
            part that scales with records per coordinate) lives in
            evictable file-backed pages instead. The single-machine
            analogue of the paper's MapReduce property that no worker
            materializes the full 2.8B-triple corpus (Table 7). Results
            stay bit-identical to resident execution. The directory is
            (re)created and overwritten per fit.
        max_resident_shards: cap on how many spilled shard packets stay
            materialized at once (LRU, per process for the ``processes``
            backend); None keeps all mapped. ``1`` gives the tightest
            memory ceiling. Requires ``spill_dir``.
        freeze_extractor_quality: skip the theta_2 M step entirely, keeping
            every extractor at its initial (P, R, Q). Used by warm-start
            incremental scoring (``FittedKBT.update``): a converged fit's
            extractor qualities are injected as initial values and held
            fixed while only the source/value layers re-run on the delta.
        checkpoint_dir: when set, the sharded driver atomically persists
            the full EM state (theta vectors, posteriors, the priors
            the next iteration reads, iteration counter and
            compatibility digests) to ``checkpoint_dir/checkpoint.npz``
            every ``checkpoint_every`` iterations and at convergence
            (:mod:`repro.exec.checkpoint`), so a fit killed mid-run can
            continue instead of restarting. That state is all the
            driver's: workers hold none.
        checkpoint_every: write a checkpoint every this many iterations
            (default 1: after every reduce). Larger values trade
            recomputation after a crash for less checkpoint I/O during
            the fit. Requires ``checkpoint_dir`` to have any effect.
        resume: continue from the checkpoint under ``checkpoint_dir`` if
            one exists (a missing checkpoint starts a fresh fit). The
            checkpoint's problem and model-config digests must match;
            execution placement (backend, shard count) and the iteration
            budget may differ — resuming is reloading the driver's state
            and dispatching the next round, so every backend resumes. A
            resumed fit produces bit-identical results to an
            uninterrupted one (float32 fits included). Requires
            ``checkpoint_dir``.
        remote_endpoint: the ``"HOST:PORT"`` the ``remote`` backend's
            coordinator listens on; workers join with ``kbt worker
            --connect HOST:PORT`` (:mod:`repro.exec.remote`). Results
            are bit-identical to every other backend for any worker
            count. Required by, and only valid with, ``backend="remote"``.
        num_workers: how many registered workers the remote coordinator
            waits for before dispatching round 1 (default 1); workers
            joining later are still used for re-dispatch and
            speculation. Requires ``backend="remote"``.
        reduce_chunk: window size of the driver's per-iteration *reduce*
            (the theta_1 / theta_2 parameter update,
            :func:`repro.core.engine_numpy.reduce_statistics`): it scans
            the compiled global arrays in contiguous windows of this
            many elements — None (the default) is one window per array
            family — releasing each window's file-backed pages as it
            goes under ``spill_dir``
            (:func:`repro.exec.spill.advise_dontneed_window`). Every
            window after the first seeds its scatter-adds with the
            running totals, so the summation order is *exactly* the
            one-window order: float64 results are **bit-identical** for
            every backend, shard count, and window size
            (determinism-ladder entry 7).
        precision: floating-point mode of the numpy engine. The default
            ``"float64"`` is the reference arithmetic every determinism
            guarantee is stated in. ``"float32"`` opts into the fused
            single-precision E-step kernels
            (:mod:`repro.exec.worker`): elementwise C/V-step
            passes run in float32 through preallocated scratch buffers
            while scatter-adds and the parameter update stay float64.
            Faster and half the E-step memory traffic, but **not**
            bit-compatible with float64 — see the precision contract in
            ``docs/architecture.md`` for the documented deviation bound.
            Requires ``engine="numpy"``; runs on every execution backend
            (the kernel is selected per shard), always outside the
            bit-identity guarantees, which are stated in float64.

    The ten fields named in :data:`EXECUTION_FIELDS` say only *where and
    how* a fit runs; float64 results are bit-identical for every
    combination of them, and they need ``engine="numpy"`` (the driver
    runs over the compiled arrays). :meth:`without_execution` is the
    model alone; :meth:`with_execution` applies caller overrides.
    """

    n: int = 10
    gamma: float = 0.25
    alpha: float = 0.5
    default_accuracy: float = 0.8
    default_recall: float = 0.8
    default_q: float = 0.2
    absence_scope: AbsenceScope = AbsenceScope.ALL
    use_weighted_vcv: bool = True
    update_prior: bool = True
    prior_update_start_iteration: int = 2
    prior_floor: float = 0.25
    prior_ceiling: float = 0.75
    confidence_threshold: float | None = None
    min_source_support: int = 1
    min_extractor_support: int = 1
    false_value_model: FalseValueModel = FalseValueModel.ACCU
    quality_floor: float = 1e-4
    quality_ceiling: float = 1.0 - 1e-4
    #: step size of the extractor-quality M step: 1.0 applies Eq. 29-33
    #: directly; smaller values blend toward the previous estimate
    #: (P <- (1-d) P_old + d P_hat). Early iterations score extraction
    #: correctness with default qualities, so an undamped first M step can
    #: lock in a biased precision estimate; damping keeps the EM loop from
    #: ratcheting on its own transient.
    quality_damping: float = 1.0
    convergence: ConvergenceConfig = ConvergenceConfig()
    engine: str = "numpy"
    backend: str | None = None
    num_shards: int | None = None
    spill_dir: str | None = None
    max_resident_shards: int | None = None
    freeze_extractor_quality: bool = False
    checkpoint_dir: str | None = None
    checkpoint_every: int = 1
    resume: bool = False
    remote_endpoint: str | None = None
    num_workers: int | None = None
    reduce_chunk: int | None = None
    precision: str = "float64"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}: valid engines are "
                f"{', '.join(ENGINES)}"
            )
        if self.backend is not None and self.backend not in BACKENDS:
            raise ValueError(
                f"unknown execution backend {self.backend!r}: valid "
                f"backends are {', '.join(BACKENDS)}"
            )
        placed = [
            name
            for name, default in _EXECUTION_DEFAULTS.items()
            if getattr(self, name) != default
        ]
        if placed and self.engine != "numpy":
            raise ValueError(
                f"execution settings ({', '.join(placed)}) run on the "
                "sharded driver over the compiled arrays: use "
                f'engine="numpy", got engine={self.engine!r}'
            )
        if self.num_shards is not None and self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.max_resident_shards is not None:
            if self.spill_dir is None:
                raise ValueError(
                    "max_resident_shards only applies to out-of-core "
                    "execution: set spill_dir to a spill directory"
                )
            if self.max_resident_shards < 1:
                raise ValueError("max_resident_shards must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.resume and self.checkpoint_dir is None:
            raise ValueError(
                "resume only applies to checkpointed fits: set "
                "checkpoint_dir to the checkpoint directory"
            )
        if self.backend == "remote" and self.remote_endpoint is None:
            raise ValueError(
                'backend="remote" needs remote_endpoint: set it to the '
                "'HOST:PORT' the coordinator should listen on (workers "
                "connect with 'kbt worker --connect HOST:PORT')"
            )
        if self.remote_endpoint is not None:
            if self.backend != "remote":
                raise ValueError(
                    "remote_endpoint only applies to distributed "
                    'execution: set backend="remote"'
                )
            parse_remote_endpoint(self.remote_endpoint)
        if self.num_workers is not None:
            if self.backend != "remote":
                raise ValueError(
                    "num_workers only applies to distributed execution: "
                    'set backend="remote"'
                )
            if self.num_workers < 1:
                raise ValueError("num_workers must be >= 1")
        if self.reduce_chunk is not None and self.reduce_chunk < 1:
            raise ValueError(
                f"reduce_chunk must be >= 1, got {self.reduce_chunk}"
            )
        if self.precision not in ("float64", "float32"):
            raise ValueError(
                f"precision must be 'float64' or 'float32', got "
                f"{self.precision!r}"
            )
        if self.precision == "float32":
            if self.engine != "numpy":
                raise ValueError(
                    'precision="float32" runs the numpy engine\'s fused '
                    f'kernels: use engine="numpy", got '
                    f"engine={self.engine!r}"
                )
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        for name in ("default_accuracy", "default_recall", "default_q"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {value}")
        if self.prior_update_start_iteration < 1:
            raise ValueError("prior_update_start_iteration must be >= 1")
        if not 0.0 < self.prior_floor <= self.prior_ceiling < 1.0:
            raise ValueError("need 0 < prior_floor <= prior_ceiling < 1")
        if self.confidence_threshold is not None and not (
            0.0 <= self.confidence_threshold < 1.0
        ):
            raise ValueError("confidence_threshold must be in [0, 1)")
        if self.min_source_support < 1 or self.min_extractor_support < 1:
            raise ValueError("support thresholds must be >= 1")
        if not 0.0 < self.quality_floor < self.quality_ceiling < 1.0:
            raise ValueError("need 0 < quality_floor < quality_ceiling < 1")
        if not 0.0 < self.quality_damping <= 1.0:
            raise ValueError("quality_damping must be in (0, 1]")

    def without_execution(self) -> "MultiLayerConfig":
        """The model alone: every execution field back at its default."""
        return replace(self, **_EXECUTION_DEFAULTS)

    def with_execution(
        self,
        engine: str | None = None,
        precision: str | None = None,
        **execution,
    ) -> "MultiLayerConfig":
        """This config with a caller's execution overrides applied.

        ``execution`` takes the names in :data:`EXECUTION_FIELDS` (any
        other is a ``TypeError``); ``None`` means "not given". A
        ``remote_endpoint`` without a backend selects
        ``backend="remote"``. The engine changes only when ``engine`` is
        given: an execution field or ``precision="float32"`` on a
        python-engine config is the constructor's validation error.
        """
        unknown = sorted(set(execution) - set(EXECUTION_FIELDS))
        if unknown:
            raise TypeError(
                f"unknown execution setting(s) {', '.join(unknown)}; "
                f"valid names are {', '.join(EXECUTION_FIELDS)}"
            )
        changes = {k: v for k, v in execution.items() if v is not None}
        if (
            "remote_endpoint" in changes
            and "backend" not in changes
            and self.backend is None
        ):
            changes["backend"] = "remote"
        if precision is not None:
            changes["precision"] = precision
        if engine is not None:
            changes["engine"] = engine
        return replace(self, **changes)


_EXECUTION_DEFAULTS = {
    name: MultiLayerConfig.__dataclass_fields__[name].default
    for name in EXECUTION_FIELDS
}


@dataclass(frozen=True, slots=True)
class GranularityConfig:
    """SPLITANDMERGE bounds (Section 4): desired source size in [m, M]."""

    min_size: int = 5
    max_size: int = 10_000

    def __post_init__(self) -> None:
        if self.min_size < 1:
            raise ValueError("min_size must be >= 1")
        if self.max_size < self.min_size:
            raise ValueError("max_size must be >= min_size")
