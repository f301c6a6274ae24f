"""Continuous ingestion: a live trust pipeline over micro-batches.

Streams of extraction records flow in (:mod:`repro.ingest.stream`),
warm ``update()`` generations flow out as versioned artifacts that are
hot-swapped into serving (:mod:`repro.ingest.pipeline`), while a
staleness policy watches drift and schedules cold refits
(:mod:`repro.ingest.policy`) and a status board feeds the gateway's
``GET /ingest/status`` (:mod:`repro.ingest.status`).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "DriftAlert": "repro.ingest.policy",
    "DriftStats": "repro.ingest.policy",
    "HttpPublisher": "repro.ingest.pipeline",
    "IngestPipeline": "repro.ingest.pipeline",
    "InProcessPublisher": "repro.ingest.pipeline",
    "MicroBatcher": "repro.ingest.stream",
    "PublishError": "repro.ingest.pipeline",
    "QueueRecordSource": "repro.ingest.stream",
    "RecordSource": "repro.ingest.stream",
    "SpoolDirectorySource": "repro.ingest.stream",
    "StalenessPolicy": "repro.ingest.policy",
    "StatusBoard": "repro.ingest.status",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
