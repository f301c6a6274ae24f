"""A machine-speed probe, so that timings mean the code and not the host.

On a shared 2-vCPU sandbox the same CPU-bound work takes 0.6 s or 1.6 s
depending on what the host is doing, and the speed changes within
seconds: process CPU time stretches exactly like wall time, so it is the
core that slows, not the scheduler that preempts. A fixed kernel
(integer/dict bytecode + ``json.loads``; nothing from ``repro``) is
therefore timed every ``PERIOD`` seconds on a background thread, by its
own ``thread_time`` so that waiting for the GIL does not count, and every
gated timing is divided by the kernel's mean time over the same interval
relative to ``REFERENCE_SECONDS``. A timing reads as "ms at reference
speed"; raw values are printed beside it.
"""

from __future__ import annotations

import bisect
import json
import statistics
import threading
import time

#: The kernel's time on this sandbox when nothing else slows the core.
REFERENCE_SECONDS = 1.10e-3
PERIOD = 0.04

_LINE = json.dumps(
    {
        "extractor": ["sys01", "sys01-pat003", "capital", "site0001.example"],
        "source": ["site0001.example", "capital", "site0001.example/p1.html"],
        "subject": "france", "predicate": "capital", "value": "paris",
        "confidence": 0.95,
    }
)


def kernel() -> None:
    total = 0
    table = {}
    for i in range(6000):
        table[i & 1023] = total
        total += i * i % 7
    for _ in range(150):
        json.loads(_LINE)


class SpeedProbe(threading.Thread):
    """Samples ``kernel`` until :meth:`stop`; :meth:`factor` reads it."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self._times: list[float] = []
        self._costs: list[float] = []
        self._stopped = threading.Event()
        self._sampled = threading.Event()

    def start(self) -> None:
        super().start()
        self._sampled.wait()

    def run(self) -> None:
        while not self._stopped.is_set():
            start = time.thread_time()
            kernel()
            cost = time.thread_time() - start
            self._times.append(time.perf_counter())
            self._costs.append(cost)
            self._sampled.set()
            time.sleep(PERIOD)

    def stop(self) -> None:
        self._stopped.set()
        self.join()

    def factor(self, start: float, end: float) -> float:
        """How much slower than reference the core ran over
        ``[start, end]`` (``perf_counter`` stamps): 1.0 at reference."""
        lo = max(bisect.bisect_left(self._times, start) - 1, 0)
        hi = bisect.bisect_right(self._times, end) + 1
        return statistics.mean(self._costs[lo:hi]) / REFERENCE_SECONDS
