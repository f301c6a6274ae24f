"""The live trust pipeline: micro-batches in, hot-swapped artifacts out.

Per batch the :class:`IngestPipeline`:

1. folds the records in with :meth:`~repro.core.kbt.FittedKBT.update`
   (warm start; ``update_options`` say where it runs, and the cold
   refit of step 2 runs there too);
2. feeds the new website scores to the :class:`~repro.ingest.policy.
   StalenessPolicy` — when drift or the batch count says the model has
   gone stale, a **cold refit** over the combined observation matrix
   replaces the warm chain and the drift baseline resets;
3. writes the resulting model as a **fresh versioned artifact**
   (``gen-NNNNNN.kbt``, written via
   :func:`~repro.io.atomic.atomic_write` — never in place, so a
   crashed write can never corrupt a generation that serving might
   still map), with its serving layout: ``FittedKBT.save`` writes it
   from the model it holds, into the cache directory the serving store
   looks in;
4. publishes it: in-process through a ``StoreManager``, or remotely via
   the gateway's authenticated ``POST /admin/swap``. Either way the
   swap only has to hash the artifact, match the layout's ETag and map
   the columns — it never loads back what this process just saved;
5. garbage-collects old generations beyond the retention cap
   (artifact plus every layout directory cached for it, finished or
   not), never touching the generation currently serving.

Determinism: the artifact bytes of each generation are a pure function
of the starting artifact and the record stream (deterministic zip
members, no wall-clock metadata), so replaying a recorded stream
through the pipeline yields **bit-identical artifacts** to running the
same ``update()`` sequence by hand — the replay-identity rung of the
determinism ladder, gated in ``tests/test_ingest.py`` and
``benchmarks/bench_ingest.py``.
"""

from __future__ import annotations

import json
import shutil
import urllib.error
import urllib.request
from collections.abc import Iterable
from pathlib import Path

from repro.core.kbt import FittedKBT, KBTEstimator
from repro.core.types import ExtractionRecord
from repro.ingest.policy import StalenessPolicy
from repro.ingest.status import StatusBoard
from repro.io.mmap_layout import cached_layout_dirs


class PublishError(RuntimeError):
    """A generation was written but could not be swapped into serving:
    the gateway answered ``code`` with body ``detail``, or (``code`` is
    None) was not reached, for the reason in ``detail``."""

    def __init__(self, message: str, code: int | None, detail) -> None:
        super().__init__(message)
        self.code = code
        self.detail = detail


class InProcessPublisher:
    """Swap each generation into a local :class:`StoreManager`."""

    def __init__(self, manager) -> None:
        self._manager = manager

    def publish(self, artifact_path: Path) -> dict:
        store = self._manager.swap(artifact_path)
        status = self._manager.status()
        return {
            "etag": status["etag"],
            "generation": status["generation"],
            "websites": len(store),
        }

    def push_status(self, snapshot: dict) -> None:
        """In-process boards are shared directly; nothing to push."""


class HttpPublisher:
    """Swap each generation into a remote gateway over HTTP.

    ``POST /admin/swap`` with the artifact path (the gateway and the
    pipeline must share a filesystem — the same deployment shape as
    ``kbt swap``), authenticated with ``X-Admin-Token`` when a token is
    configured. Status snapshots are mirrored to the gateway's
    ``POST /ingest/status`` so ``GET /ingest/status`` works from
    anywhere, not just the pipeline host.
    """

    def __init__(
        self,
        base_url: str,
        token: str | None = None,
        timeout: float | None = 30.0,
    ) -> None:
        self._base_url = base_url.rstrip("/")
        self._token = token
        self._timeout = timeout

    def _post(self, route: str, payload: dict) -> dict:
        request = urllib.request.Request(
            f"{self._base_url}{route}",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        if self._token:
            request.add_header("X-Admin-Token", self._token)
        try:
            with urllib.request.urlopen(
                request, timeout=self._timeout
            ) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as error:
            detail = error.read().decode("utf-8", "replace")
            raise PublishError(
                f"gateway rejected {route}: {error.code} {detail}",
                error.code,
                detail,
            ) from error
        except (urllib.error.URLError, OSError) as error:
            raise PublishError(
                f"gateway unreachable at {self._base_url}{route}: {error}",
                None,
                getattr(error, "reason", error),
            ) from error

    def publish(self, artifact_path: Path) -> dict:
        return self._post(
            "/admin/swap", {"artifact": str(Path(artifact_path).resolve())}
        )

    def push_status(self, snapshot: dict) -> None:
        try:
            self._post("/ingest/status", snapshot)
        except PublishError:
            # Observability must never take down ingestion: a gateway
            # that swaps fine but predates /ingest/status (or drops the
            # status POST) costs us the dashboard, not the pipeline.
            pass


class IngestPipeline:
    """Drive a fitted model through a stream of record batches."""

    def __init__(
        self,
        fitted: FittedKBT,
        generations_dir: str | Path,
        publisher=None,
        policy: StalenessPolicy | None = None,
        board: StatusBoard | None = None,
        sweeps: int = 2,
        keep_generations: int = 5,
        update_options: dict | None = None,
    ) -> None:
        if keep_generations < 1:
            raise ValueError(
                f"keep_generations must be >= 1, got {keep_generations}"
            )
        if fitted.observations is None:
            raise ValueError(
                "continuous ingestion needs an artifact saved with "
                "include_observations=True (update() re-derives the "
                "delta sub-problem from the stored matrix)"
            )
        self.fitted = fitted
        self.generations_dir = Path(generations_dir)
        self.generations_dir.mkdir(parents=True, exist_ok=True)
        self.publisher = publisher
        self.policy = policy or StalenessPolicy()
        self.board = board or StatusBoard()
        self.sweeps = sweeps
        self.keep_generations = keep_generations
        self.update_options = dict(update_options or {})
        self.generation = 0
        self.batches_applied = 0
        self.records_ingested = 0
        self.refits = 0
        # The starting artifact is the drift baseline: it is (or stands
        # in for) the last cold fit.
        self.policy.rebaseline(fitted.website_scores())
        self.board.update(
            generation=0,
            batches_applied=0,
            records_ingested=0,
            refits=0,
            refit_countdown=self.policy.refit_countdown,
            last_drift=None,
            last_refit_reason=None,
            served_etag=None,
            served_generation=None,
        )

    # ------------------------------------------------------------------
    def process_batch(self, records: list[ExtractionRecord]) -> Path:
        """Apply one batch end to end; returns the new artifact path."""
        if not records:
            raise ValueError("cannot process an empty batch")
        updated = self.fitted.update(
            records, sweeps=self.sweeps, **self.update_options
        )
        stats, alerts = self.policy.observe(updated.website_scores())
        reason = self.policy.refit_due()
        if reason is not None:
            updated = self._cold_refit(updated)
            self.policy.rebaseline(updated.website_scores())
            self.refits += 1
        self.fitted = updated
        self.batches_applied += 1
        self.records_ingested += len(records)
        self.generation += 1

        path = self.generations_dir / f"gen-{self.generation:06d}.kbt"
        # Metadata must stay a pure function of the stream for replay
        # identity — no timestamps, hostnames, or pids.
        self.fitted.save(
            path,
            metadata={
                "ingest_generation": self.generation,
                "batch_records": len(records),
                "cold_refit": reason is not None,
            },
        )

        published = None
        if self.publisher is not None:
            published = self.publisher.publish(path)

        for alert in alerts:
            self.board.add_alert(alert.to_dict())
        self.board.update(
            generation=self.generation,
            batches_applied=self.batches_applied,
            records_ingested=self.records_ingested,
            refits=self.refits,
            refit_countdown=self.policy.refit_countdown,
            last_drift=stats.to_dict(),
            last_refit_reason=reason,
            served_etag=(published or {}).get("etag"),
            served_generation=(published or {}).get("generation"),
            artifact=str(path),
        )
        if self.publisher is not None:
            snapshot = self.board.snapshot()
            if snapshot is not None:
                self.publisher.push_status(snapshot)

        self._collect_garbage()
        return path

    def run(
        self,
        batches: Iterable[list[ExtractionRecord]],
        max_batches: int | None = None,
    ) -> int:
        """Process batches until the iterator ends; returns the count."""
        done = 0
        for batch in batches:
            self.process_batch(batch)
            done += 1
            if max_batches is not None and done >= max_batches:
                break
        return done

    # ------------------------------------------------------------------
    def _cold_refit(self, updated: FittedKBT) -> FittedKBT:
        """Full refit over everything ingested so far.

        ``updated.observations`` is the combined (post-granularity)
        matrix, so the refit runs without granularity re-planning —
        the plan was decided at the original cold fit and incremental
        records entered at their native granularity.
        """
        estimator = KBTEstimator(
            config=updated.config,
            granularity=None,
            min_triples=updated.min_triples,
            seed=updated.seed,
            **self.update_options,
        )
        return estimator.fit(updated.observations)

    def _collect_garbage(self) -> None:
        """Drop generations beyond the retention cap.

        The newest ``keep_generations`` artifacts survive; everything
        older is unlinked along with every layout directory cached for
        it — exported, or left half-written by a killed export. The
        currently-served generation is always the newest (a publish
        failure raises out of :meth:`process_batch` before GC runs), so
        serving never loses its artifact.
        """
        generations = sorted(self.generations_dir.glob("gen-*.kbt"))
        for stale in generations[: -self.keep_generations]:
            for layout in cached_layout_dirs(stale):
                shutil.rmtree(layout, ignore_errors=True)
            stale.unlink(missing_ok=True)


__all__ = [
    "HttpPublisher",
    "IngestPipeline",
    "InProcessPublisher",
    "PublishError",
]
