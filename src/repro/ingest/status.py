"""Shared observability surface between the pipeline and the gateway.

The ingest pipeline and the serving gateway are separate subsystems —
often separate *processes* — but operators ask one question of both:
"what has the live pipeline done lately?" The :class:`StatusBoard` is
the answer's single home. The pipeline publishes a snapshot after every
batch (and every alert); the gateway exposes the latest snapshot at
``GET /ingest/status``.

This module is deliberately stdlib-only: the gateway imports it without
pulling the estimator, numpy, or the rest of :mod:`repro.ingest` into
its import graph.
"""

from __future__ import annotations

import threading
from collections import deque

#: How many drift alerts the board retains (newest first in snapshots).
ALERT_RING_SIZE = 64


class StatusBoard:
    """Thread-safe latest-wins snapshot of the ingest pipeline's state.

    ``update`` merges fields into the current snapshot; ``add_alert``
    appends to a bounded ring buffer so a burst of drifting sources
    cannot grow the board without limit. ``snapshot`` returns a deep
    enough copy that callers can serialise it without holding the lock.
    """

    def __init__(self, alert_ring_size: int = ALERT_RING_SIZE) -> None:
        if alert_ring_size < 1:
            raise ValueError(
                f"alert_ring_size must be >= 1, got {alert_ring_size}"
            )
        self._lock = threading.Lock()
        self._fields: dict = {}
        self._alerts: deque = deque(maxlen=alert_ring_size)

    def update(self, **fields) -> None:
        """Merge ``fields`` into the snapshot (latest value wins)."""
        with self._lock:
            self._fields.update(fields)

    def add_alert(self, alert: dict) -> None:
        """Append one drift alert to the ring buffer."""
        with self._lock:
            self._alerts.append(dict(alert))

    def replace(self, snapshot: dict) -> None:
        """Overwrite the whole board from a published snapshot.

        The remote path: a pipeline running in another process POSTs its
        snapshot to the gateway, which lands it here wholesale. The
        ``alerts`` key (if present) replaces the ring's contents.
        """
        if not isinstance(snapshot, dict):
            raise ValueError(
                f"status snapshot must be an object, got {type(snapshot).__name__}"
            )
        alerts = snapshot.get("alerts", None)
        if alerts is not None and not isinstance(alerts, list):
            raise ValueError("status snapshot 'alerts' must be a list")
        # Convert before taking the lock: a snapshot rejected here (an
        # alert that is not an object) leaves the board as it was.
        if alerts is not None:
            alerts = [
                dict(alert) for alert in alerts[-self._alerts.maxlen :]
            ]
        with self._lock:
            self._fields = {
                key: value
                for key, value in snapshot.items()
                if key != "alerts"
            }
            if alerts is not None:
                self._alerts.clear()
                self._alerts.extend(alerts)

    def snapshot(self) -> dict | None:
        """The current state, or ``None`` if nothing ever reported."""
        with self._lock:
            if not self._fields and not self._alerts:
                return None
            out = dict(self._fields)
            out["alerts"] = [dict(alert) for alert in self._alerts]
            return out


__all__ = ["ALERT_RING_SIZE", "StatusBoard"]
