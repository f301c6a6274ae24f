"""The load generator: blocking sockets, pre-encoded requests, a minimal
``Content-Length`` parser, and at most ``min(2, nproc)`` threads.

Closed loop (``serve-*``): each connection sends its next request when
the previous response is complete. Open loop (``ingest-live`` reader):
requests are due at a fixed rate and timed from their due time, so a
stall is charged to every request it delays.
"""

from __future__ import annotations

import json
import os
import random
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from urllib.parse import parse_qs, urlsplit

from repro.serving.routes import handle_route

CONNECTIONS = min(2, os.cpu_count() or 1)
GATEWAY_CACHE_ENTRIES = 1024


def encode_get(target: str, if_none_match: str | None = None) -> bytes:
    head = f"GET {target} HTTP/1.1\r\nHost: bench\r\n"
    if if_none_match is not None:
        head += f'If-None-Match: "{if_none_match}"\r\n'
    return (head + "\r\n").encode("latin-1")


def encode_post(path: str, body: bytes) -> bytes:
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


class Connection:
    """One keep-alive connection; ``exchange`` is one request/response."""

    def __init__(self, address: tuple[str, int]) -> None:
        self._sock = socket.create_connection(address, timeout=30)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def exchange(self, raw: bytes) -> tuple[int, bytes, bytes]:
        """Send ``raw``; returns ``(status, etag, body)``.

        Raises ``ConnectionError`` if the peer closes mid-response.
        """
        self._sock.sendall(raw)
        buffer = self._buffer
        while True:
            end = buffer.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed before headers")
            buffer += chunk
        head = buffer[:end]
        status = int(head[9:12])
        length = 0
        at = head.find(b"Content-Length: ")
        if at >= 0:
            stop = head.find(b"\r\n", at)
            length = int(head[at + 16 : stop if stop >= 0 else None])
        etag = b""
        at = head.find(b'ETag: "')
        if at >= 0:
            etag = head[at + 7 : head.find(b'"', at + 7)]
        start = end + 4
        while len(buffer) < start + length:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed before body")
            buffer += chunk
        self._buffer = buffer[start + length :]
        return status, etag, buffer[start : start + length]

    def close(self) -> None:
        self._sock.close()


@dataclass
class Plan:
    """Distinct pre-encoded requests plus one seeded sequence of them per
    connection. ``targets[i]`` is ``(method, target, body)`` for the
    correctness check; ``expect[i]`` the status that counts as success."""

    raws: list[bytes] = field(default_factory=list)
    targets: list[tuple[str, str, bytes]] = field(default_factory=list)
    expect: list[int] = field(default_factory=list)
    sequences: list[list[int]] = field(default_factory=list)
    _index: dict = field(default_factory=dict)

    def add(
        self,
        target: str,
        if_none_match: str | None = None,
        post_body: bytes | None = None,
    ) -> int:
        key = (target, if_none_match is not None, post_body)
        index = self._index.get(key)
        if index is None:
            index = self._index[key] = len(self.raws)
            if post_body is not None:
                self.raws.append(encode_post(target, post_body))
                self.targets.append(("POST", target, post_body))
            else:
                self.raws.append(encode_get(target, if_none_match))
                self.targets.append(("GET", target, b""))
            self.expect.append(304 if if_none_match is not None else 200)
        return index


@dataclass
class Sample:
    """What one connection saw: parallel per-request arrays."""

    ends: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    indices: list[int] = field(default_factory=list)
    statuses: list[int] = field(default_factory=list)
    etags: list[bytes] = field(default_factory=list)
    #: request position -> body kept for the byte-for-byte check.
    bodies: dict[int, bytes] = field(default_factory=dict)
    lateness: list[float] = field(default_factory=list)
    dropped: int = 0


def _closed_loop(conn, plan, sequence, stop_at, keep_every, sample):
    raws = plan.raws
    position = 0
    size = len(sequence)
    try:
        while True:
            index = sequence[position % size]
            start = time.perf_counter()
            if start >= stop_at:
                return
            status, etag, body = conn.exchange(raws[index])
            end = time.perf_counter()
            sample.ends.append(end)
            sample.latencies.append(end - start)
            sample.indices.append(index)
            sample.statuses.append(status)
            sample.etags.append(etag)
            if position % keep_every == 0:
                sample.bodies[position] = body
            position += 1
    except (ConnectionError, OSError, ValueError):
        sample.dropped += 1


def run_closed_loop(
    address: tuple[str, int], plan: Plan, seconds: float, keep_every: int
) -> tuple[float, list[Sample]]:
    """Drive every sequence of ``plan`` on its own connection for
    ``seconds``; returns the start time and one sample per connection."""
    connections = [Connection(address) for _ in plan.sequences]
    samples = [Sample() for _ in plan.sequences]
    started = time.perf_counter()
    threads = [
        threading.Thread(
            target=_closed_loop,
            args=(conn, plan, seq, started + seconds, keep_every, sample),
        )
        for conn, seq, sample in zip(connections, plan.sequences, samples)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for conn in connections:
        conn.close()
    return started, samples


def run_open_loop(
    address: tuple[str, int],
    plan: Plan,
    rate: float,
    stop: threading.Event,
    keep_every: int,
    sample: Sample,
) -> None:
    """One connection, one request due every ``1 / rate`` seconds until
    ``stop`` is set; latency runs from the due time."""
    conn = Connection(address)
    sequence = plan.sequences[0]
    raws = plan.raws
    started = time.perf_counter()
    position = 0
    try:
        while not stop.is_set():
            due = started + position / rate
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            index = sequence[position % len(sequence)]
            sent = time.perf_counter()
            status, etag, body = conn.exchange(raws[index])
            end = time.perf_counter()
            sample.ends.append(end)
            sample.latencies.append(end - due)
            sample.lateness.append(sent - due)
            sample.indices.append(index)
            sample.statuses.append(status)
            sample.etags.append(etag)
            if position % keep_every == 0:
                sample.bodies[position] = body
            position += 1
    except (ConnectionError, OSError, ValueError):
        sample.dropped += 1
    finally:
        conn.close()


def expected_body(store, method: str, target: str, body: bytes) -> bytes:
    """The bytes the gateway must answer with, from a local store."""
    url = urlsplit(target)
    if method == "POST":
        payload = store.batch_json(json.loads(body)["sites"])
    else:
        _status, payload = handle_route(store, url.path, parse_qs(url.query))
    return json.dumps(payload, ensure_ascii=False).encode("utf-8")


def check_sample(plan: Plan, sample: Sample, store_for) -> list[str]:
    """Names of the failed requests of one connection.

    Every status is checked; kept bodies are compared byte for byte with
    ``expected_body``. ``store_for(position)`` is the local store a
    response at that position must agree with.
    """
    failures = []
    for index, status in zip(sample.indices, sample.statuses):
        if status != plan.expect[index]:
            failures.append(
                f"status {status} for {plan.targets[index][1]}"
            )
    for position, body in sample.bodies.items():
        index = sample.indices[position]
        if sample.statuses[position] != 200:
            continue
        want = expected_body(store_for(position), *plan.targets[index])
        if body != want:
            failures.append(f"body mismatch for {plan.targets[index][1]}")
    failures.extend(["dropped connection"] * sample.dropped)
    return failures


def lru_hit_ratio(plan: Plan, indices: list[int]) -> float:
    """Replay issued GETs through an LRU the size of the gateway's
    response cache (304s and POSTs never reach it)."""
    cache: OrderedDict[int, None] = OrderedDict()
    hits = lookups = 0
    for index in indices:
        if plan.targets[index][0] != "GET" or plan.expect[index] != 200:
            continue
        lookups += 1
        if index in cache:
            hits += 1
            cache.move_to_end(index)
        else:
            cache[index] = None
            if len(cache) > GATEWAY_CACHE_ENTRIES:
                cache.popitem(last=False)
    return hits / lookups if lookups else 0.0


# ----------------------------------------------------------------------
# Traffic shapes
# ----------------------------------------------------------------------
def zipf_plan(
    websites: list[str], etag: str, seed: int, length: int, connections: int
) -> Plan:
    """The cache-hit mix: Zipf(1.1) over websites; 70% /score, 10%
    /percentile, 10% /breakdown, 5% /top?k=10, 5% revalidations."""
    rng = random.Random(seed)
    ranked = list(websites)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(ranked))]
    plan = Plan()
    routes = ["/score", "/percentile", "/breakdown", "/top", "304"]
    for _ in range(connections):
        sites = rng.choices(ranked, weights, k=length)
        kinds = rng.choices(routes, [70, 10, 10, 5, 5], k=length)
        plan.sequences.append(
            [
                plan.add("/top?k=10")
                if kind == "/top"
                else plan.add(f"/score?site={site}", if_none_match=etag)
                if kind == "304"
                else plan.add(f"{kind}?site={site}")
                for site, kind in zip(sites, kinds)
            ]
        )
    return plan


def uniform_plan(
    websites: list[str],
    pages: list[tuple[str, str]],
    seed: int,
    length: int,
    connections: int,
) -> Plan:
    """The cache-miss mix: keys uniform over every website and webpage.

    The population has about as many single-key targets as the gateway's
    cache has entries, so most requests are GET /batch over a random 8-site
    subset — a target that never repeats, and that pushes the single-key
    targets out of the LRU before they recur: 60% GET /batch, 25% /page,
    5% /score, 5% /breakdown, 5% POST /batch (<= 256 keys).
    """
    rng = random.Random(seed)
    plan = Plan()
    routes = ["batch", "/page", "/score", "/breakdown", "post"]
    post_keys = min(256, len(websites))
    for _ in range(connections):
        sequence = []
        for kind in rng.choices(routes, [60, 25, 5, 5, 5], k=length):
            if kind == "batch":
                subset = ",".join(rng.sample(websites, 8))
                sequence.append(plan.add(f"/batch?sites={subset}"))
            elif kind == "/page":
                site, page = rng.choice(pages)
                sequence.append(plan.add(f"/page?site={site}&page={page}"))
            elif kind == "post":
                body = json.dumps(
                    {"sites": rng.sample(websites, post_keys)}
                ).encode("utf-8")
                sequence.append(plan.add("/batch", post_body=body))
            else:
                sequence.append(
                    plan.add(f"{kind}?site={rng.choice(websites)}")
                )
        plan.sequences.append(sequence)
    return plan


def echo_server() -> None:
    """Answer every request on one connection with a fixed body; the
    floor under any latency this generator can report."""
    response = (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Content-Length: 2\r\n\r\n{}"
    )
    with socket.create_server(("127.0.0.1", 0)) as server:
        print(server.getsockname()[1], flush=True)
        conn, _peer = server.accept()
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            buffer = b""
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                buffer += chunk
                while b"\r\n\r\n" in buffer:
                    _head, _sep, buffer = buffer.partition(b"\r\n\r\n")
                    conn.sendall(response)


if __name__ == "__main__":
    echo_server()
