"""The asyncio serving gateway: ``kbt serve``.

The only HTTP frontend. GET routes are answered by the route table
(:mod:`repro.serving.routes`); the gateway is the serving-tier machinery
around it:

* **One** :class:`asyncio.BufferedProtocol` **per socket**
  (``loop.create_server``): one event loop owns every socket and reads
  each into the gateway's one receive buffer, and each connection parses
  request heads and ``Content-Length`` bodies straight out of its own
  request buffer inside ``data_received``. Keep-alive and pipelined
  requests on one connection are answered strictly in order, and every
  answer one callback produces goes out in a single ``transport.write``.
* **Answers from bytes** — the response cache is an LRU keyed
  ``(etag, request target)`` holding *complete* responses, head and
  body. A GET (unless its ``If-None-Match`` matches: that is a 304) is
  looked up by its raw target against the manager's current ETag as
  soon as it is framed: no URL parsing, no store lease, no head
  building. Status lines come from a
  table built at import, and the ``ETag`` line and the whole 304 once
  per ETag.
* **Misses answer from bytes too** — a miss is: parse the target once
  (an origin-form target is split at its first ``?`` and its query read
  in one pass; anything else goes through the stdlib's URL parser),
  lease the store, then :func:`repro.serving.routes.plan_route`: the
  request's cost and its render. A ``/score`` or ``/batch``
  200 is the store's memoised per-site JSON
  (:meth:`~repro.serving.store.TrustStore.score_body`), joined, never
  re-rendered while one ETag is served; every other answer is
  ``json.dumps`` of the route table's payload.
* **Bounded lookups on the loop, the rest on a pool** — what a request
  costs is known before any work starts
  (:func:`repro.serving.routes.plan_route`: the store rows it will
  touch). At most :data:`INLINE_ROWS` rows of a store that declares its
  lookups memory-resident — every point route, small ``/batch`` /
  ``/top`` / ``/breakdown`` requests, every 400 and 404 — is answered
  inside the callback: a dict lookup and a few mapped reads cost less
  than handing them to another thread. Such an answer is bounded by
  construction, so it needs no deadline. Everything else —
  ``/signals`` and ``/compare`` (a lazy surface build, O(n) scans),
  larger batches, rankings and breakdowns, every route of a store that
  does not make the residency promise, ``/ingest/status`` and hot
  swaps — runs on a bounded thread pool (``workers``), which is also
  the backpressure valve: excess work queues instead of spawning
  threads. While its job runs the connection stops reading; the job's
  completion writes the answer and parsing resumes where it stopped.
  The one caveat: a page fault on a cold column page stalls the loop
  instead of a worker. Acceptable, because the ``key -> row`` index is
  resident and the columns are ~9 bytes per record — the working set
  of a serving process is its whole layout.
* **Fairness and backpressure** — one callback answers at most
  :data:`ANSWER_BUDGET` requests; then the connection pauses reading
  and continues on the loop's next turn, so a client pipelining
  thousands of requests (cache hits included) cannot starve the
  others. While the transport's write buffer is over its high-water
  mark (``pause_writing``) the connection parses nothing and reads
  nothing, so a client that does not read its answers cannot make the
  gateway buffer them.
* **Connection limit** — beyond ``max_connections`` concurrent sockets,
  new arrivals get an immediate JSON 503 and a close, instead of
  unbounded accept backlog.
* **Per-request timeout** — a pooled request that exceeds
  ``request_timeout`` answers 504 (a ``call_later`` deadline) while the
  stray job finishes harmlessly in the pool (its store lease releases
  only when it actually ends, so a hot swap can never unmap memory
  under it).
* **Request framing** — bodies are framed by ``Content-Length`` only:
  a ``Transfer-Encoding`` request is refused with one 501 and a close
  (never parsed as two requests), and so are conflicting duplicate
  ``Content-Length`` headers (one 400 and a close); ``Expect:
  100-continue`` gets its interim response before the body is read; a
  head over :data:`MAX_HEAD_BYTES` is a 431 and a body over
  :data:`MAX_BODY_BYTES` a 413; an HTTP/1.0 request closes after the
  response unless it asks for keep-alive.
* **ETag caching** — every cacheable response carries the artifact's
  sha256 as a strong ETag; ``If-None-Match`` answers 304 with no store
  work. A swap changes the ETag, so stale cache entries can never be
  served.
* **POST /batch** — ``{"sites": [...]}`` bodies of arbitrary size, run
  the way a GET is: up to :data:`INLINE_ROWS` keys answered on the
  loop, more as one pool job under ``request_timeout``; both are
  ``store.batch_body(sites)``, so byte-identical with ``GET /batch``
  over the same keys.
* **Hot swap** — ``POST /admin/swap {"artifact": PATH}`` builds the new
  store first and flips atomically via the refcounted
  :class:`~repro.serving.manager.StoreManager`: in-flight requests
  finish on the store they started with, zero dropped, zero torn. The
  new store maps the serving layout ``FittedKBT.save`` wrote beside the
  artifact (ingest generations included); an artifact without one —
  copied, older, corrupt, or not an artifact at all — is rejected with a
  400 naming the missing layout, writing nothing, while the old store
  keeps serving. A swap has no deadline. The endpoint is
  **authenticated**: with ``admin_token`` set, the request must carry
  it in ``X-Admin-Token`` (constant-time compare); without a token
  only loopback clients are accepted — so binding ``0.0.0.0`` never
  exposes an open swap endpoint that could repoint the gateway at
  arbitrary server-side paths.
* **/healthz vs /readyz** — ``/healthz`` is liveness (the store's
  stats, never cached); ``/readyz`` is readiness: 200 with the current
  ETag and swap generation, 503 once draining.
* **Draining shutdown** — :meth:`Gateway.stop` stops accepting, flips
  ``/readyz``, lets every pooled request complete, then closes idle
  keep-alive sockets and the store.
"""

from __future__ import annotations

import asyncio
import ipaddress
import json
import mmap
import signal
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
from pathlib import Path
from urllib.parse import parse_qs, unquote, urlsplit

from repro.ingest.status import StatusBoard
from repro.serving.manager import StoreManager
from repro.serving.routes import CACHEABLE_ROUTES, lookup_cost, plan_route

#: Largest accepted request body (a /batch over ~100k sites fits).
MAX_BODY_BYTES = 8 << 20
#: Largest accepted request head (request line + headers).
MAX_HEAD_BYTES = 64 << 10
#: Most bytes one read takes off a socket: asyncio's own read size.
RECEIVE_BYTES = 256 << 10
#: A request whose cost (:func:`repro.serving.routes.plan_route`: store
#: rows it will touch) is at most this is answered on the event loop;
#: anything dearer, or of unknown cost, goes to the worker pool under
#: ``request_timeout``. Chosen by measurement, not tunable: the worst
#: 64-row answers (a 64-key batch, ``/top?k=64``, a 58-row breakdown)
#: hold the loop ~0.45 ms — about what one pool hop costs *every*
#: request — so no inline answer delays the loop's other connections by
#: more than the hop it saves them.
INLINE_ROWS = 64
#: Requests one connection answers in one loop callback before it lets
#: the other connections run. A yield costs a loop turn, so it is paid
#: per budget, not per answer; 16 cache hits hold the loop ~0.1 ms, 16
#: of the dearest inline answers (~0.45 ms each) about 7 ms.
ANSWER_BUDGET = 16

_SERVER_LINE = b"Server: kbt-gateway/1\r\n"
_BODY_HEADERS = (
    b"Content-Type: application/json; charset=utf-8\r\nContent-Length: "
)
#: Every status line, with the header all responses share.
_STATUS_HEADS = {
    status.value: f"HTTP/1.1 {status.value} {status.phrase}\r\n".encode(
        "latin-1"
    )
    + _SERVER_LINE
    for status in HTTPStatus
}
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


class ListenError(OSError):
    """``serve_gateway`` could not bind its host and port."""


class _BadRequest(ValueError):
    """A request head that cannot be framed; its message is the 400's
    ``"error"``, and the connection closes after it."""


def _inline(cost: int | None) -> bool:
    """The one inline-or-pool decision: is ``cost`` known and small?"""
    return cost is not None and cost <= INLINE_ROWS


def _encoded(status: int, payload) -> tuple[int, bytes]:
    return status, json.dumps(payload, ensure_ascii=False).encode("utf-8")


def _response(
    status: int, body: bytes, etag_line: bytes = b"", close: bool = False
) -> bytes:
    """One complete response: head and ``Content-Length`` body."""
    return b"".join(
        (
            _STATUS_HEADS[status],
            etag_line,
            _BODY_HEADERS,
            b"%d\r\n" % len(body),
            b"Connection: close\r\n\r\n" if close else b"\r\n",
            body,
        )
    )


def _json(status: int, payload, close: bool = False) -> bytes:
    return _response(*_encoded(status, payload), close=close)


_TIMED_OUT = _json(504, {"error": "request timed out"})
_HEAD_TOO_LARGE = _json(
    431, {"error": "request header section too large"}, close=True
)


def _match_etag(header: str | None, etag: str | None) -> bool:
    """Does an ``If-None-Match`` header validate against our ETag?"""
    if header is None or etag is None:
        return False
    if header.strip() == "*":
        return True
    for candidate in header.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate.strip('"') == etag:
            return True
    return False


def _query_params(query: str) -> dict[str, list[str]]:
    """What ``parse_qs`` makes of ``query`` by default, in one pass:
    ``&``-separated fields, a field without ``=`` or with an empty value
    dropped, then ``+`` as a space and ``%xx`` decoded as UTF-8 (bad
    bytes replaced)."""
    params: dict[str, list[str]] = {}
    for field in query.split("&"):
        name, _, value = field.partition("=")
        if value:
            params.setdefault(unquote(name.replace("+", " ")), []).append(
                unquote(value.replace("+", " "))
            )
    return params


def _parse_target(target: str) -> tuple[str, dict[str, list[str]]]:
    """``(path, params)`` of a request target, as ``urlsplit`` and
    ``parse_qs`` read it. A target in origin form — one leading ``/``,
    no ``#``, TAB, CR or LF — is one split at its first ``?``: all that
    ``urlsplit`` would do to it. Anything else takes the stdlib path."""
    if (
        target[:1] == "/"
        and target[1:2] != "/"
        and "#" not in target
        and "\t" not in target
        and "\r" not in target
        and "\n" not in target
    ):
        path, _, query = target.partition("?")
        return path, _query_params(query)
    url = urlsplit(target)
    return url.path, parse_qs(url.query)


def _parse_head(head) -> tuple[str, str, str, dict[str, str]]:
    """``(method, target, version, headers)`` of one request head (the
    bytes before its blank line); header names lower-cased."""
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, version = lines[0].split(" ", 2)
    except ValueError:
        raise _BadRequest("malformed request") from None
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, colon, value = line.partition(":")
        if not colon:
            raise _BadRequest("malformed request")
        name = name.strip().lower()
        value = value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            # Which one frames the body is exactly what a proxy in
            # front of us and we could disagree on: refuse both.
            raise _BadRequest("conflicting content-length headers")
        headers[name] = value
    return method, target, version, headers


class _Connection(asyncio.BufferedProtocol):
    """One socket: its request buffer, parsed in place, and what holds
    parsing back (:meth:`_held`) — a pooled job in flight, a full write
    buffer, or a spent answer budget waiting for the loop."""

    def __init__(self, gateway: "Gateway") -> None:
        self.gateway = gateway
        self.transport: asyncio.Transport | None = None
        self._buffer = bytearray()
        # Buffered bytes the request at the front needs (head + body)
        # before it can be answered; 0 when nothing is known yet.
        self._need = 0
        # The front request's "100 Continue" has been sent.
        self._continued = False
        self._keep_alive = True
        # The pooled job this connection waits for, if any.
        self._job = None
        self._deadline: asyncio.TimerHandle | None = None
        self._write_paused = False
        self._yielding = False
        self._eof = False
        self._closing = False

    # ------------------------------------------------------------------
    # Transport callbacks
    # ------------------------------------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        gateway = self.gateway
        if gateway._draining or (
            len(gateway._connections) >= gateway.max_connections
        ):
            error = (
                "server is draining"
                if gateway._draining
                else "connection limit reached"
            )
            transport.write(_json(503, {"error": error}, close=True))
            self._close()
            return
        gateway._connections.add(self)

    def connection_lost(self, exc) -> None:
        self._closing = True
        self.gateway._connections.discard(self)
        if self._deadline is not None:
            self._deadline.cancel()
            self._deadline = None

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.gateway._receive

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(self.gateway._receive[:nbytes])

    def data_received(self, data: bytes | memoryview) -> None:
        if self._closing:
            return
        self._buffer += data
        if not self._held():
            self._serve()

    def eof_received(self) -> bool:
        # Answer whatever complete requests are buffered, then close.
        self._eof = True
        if not self._held():
            self._serve()
        return True

    def pause_writing(self) -> None:
        self._write_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        self._later()

    # ------------------------------------------------------------------
    # Parsing and answering
    # ------------------------------------------------------------------
    def _serve(self) -> None:
        """Answer complete requests off the front of the buffer until it
        runs dry, a request goes to the pool, the connection must close,
        or the answer budget is spent."""
        buffer = self._buffer
        if len(buffer) < self._need:
            if self._eof:
                self._close()
            return
        gateway = self.gateway
        out: list[bytes] = []
        at = 0
        budget = ANSWER_BUDGET
        close = parked = False
        while budget:
            end = buffer.find(b"\r\n\r\n", at, at + MAX_HEAD_BYTES)
            if end < 0:
                if len(buffer) - at >= MAX_HEAD_BYTES:
                    out.append(_HEAD_TOO_LARGE)
                    close = True
                break
            try:
                method, target, version, headers = _parse_head(
                    buffer[at:end]
                )
                length = self._framing(headers, out)
            except _BadRequest as err:
                out.append(_json(400, {"error": str(err)}, close=True))
                close = True
                break
            if length is None:  # answered 501 / 400 / 413 already
                close = True
                break
            start = end + 4
            if len(buffer) < start + length:
                self._need = start + length - at
                break
            body = bytes(buffer[start : start + length]) if length else b""
            at = start + length
            self._need = 0
            self._continued = False
            # HTTP/1.0 closes unless asked to keep alive; 1.1 the reverse.
            connection = headers.get("connection", "").lower()
            if version == "HTTP/1.0":
                self._keep_alive = connection == "keep-alive"
            else:
                self._keep_alive = connection != "close"
            response = gateway._answer(self, method, target, headers, body)
            if response is None:
                parked = True
                break
            out.append(response)
            if not self._keep_alive or gateway._draining:
                close = True
                break
            budget -= 1
        if out:
            self.transport.write(out[0] if len(out) == 1 else b"".join(out))
        if close:
            self._close()
            return
        del buffer[:at]
        if parked:
            return
        if not budget:
            self.transport.pause_reading()
            self._later()
        elif self._eof:
            self._close()

    def _framing(self, headers: dict[str, str], out: list) -> int | None:
        """The body length a head declares, or ``None`` after appending
        the answer that refuses it. Sends ``100 Continue`` when asked."""
        if "transfer-encoding" in headers:
            # No transfer coding is implemented, so where this body ends
            # is unknown: answer once and drop the unread bytes with the
            # socket rather than parse them as the next request.
            out.append(
                _json(
                    501,
                    {
                        "error": "transfer-encoding is not supported; "
                        "send the body with a Content-Length"
                    },
                    close=True,
                )
            )
            return None
        raw = headers.get("content-length")
        if raw is None:
            return 0
        try:
            length = int(raw)
            if length < 0:
                raise ValueError
        except ValueError:
            out.append(
                _json(
                    400,
                    {"error": f"invalid content-length: {raw!r}"},
                    close=True,
                )
            )
            return None
        if length > MAX_BODY_BYTES:
            out.append(
                _json(413, {"error": "request body too large"}, close=True)
            )
            return None
        if (
            length
            and not self._continued
            and headers.get("expect", "").lower() == "100-continue"
        ):
            # The client (curl, for a large body) holds the body back
            # until told to send it, or for a second if not.
            out.append(_CONTINUE)
            self._continued = True
        return length

    def _later(self) -> None:
        """Continue parsing on the loop's next turn (once)."""
        if not self._yielding:
            self._yielding = True
            self.gateway._loop.call_soon(self._continue)

    def _held(self) -> bool:
        return (
            self._job is not None
            or self._write_paused
            or self._yielding
            or self._closing
        )

    def _continue(self) -> None:
        self._yielding = False
        if self._held():
            return
        self.transport.resume_reading()
        self._serve()

    def _close(self) -> None:
        if not self._closing:
            self._closing = True
            self.transport.close()

    # ------------------------------------------------------------------
    # Pooled work
    # ------------------------------------------------------------------
    def park(self, work, finish, timeout: float | None) -> None:
        """Run ``work()`` on the pool while this connection waits.

        ``finish(*work())`` renders the answer when the job ends; a
        ``timeout`` answers 504 first. Reading stops until then, so the
        requests behind this one stay unparsed and are answered in order.
        """
        loop = self.gateway._loop
        self.transport.pause_reading()
        job = self._job = self.gateway._pool.submit(work)
        if timeout is not None:
            self._deadline = loop.call_later(
                timeout, self._answer_job, job, None
            )
        job.add_done_callback(
            lambda done: loop.call_soon_threadsafe(
                self._answer_job, done, finish
            )
        )

    def _answer_job(self, job, finish) -> None:
        """The parked request's answer: ``finish`` of the job's result,
        or the 504 when ``finish`` is ``None`` (the deadline's call) —
        whichever comes first; the other is ignored."""
        if job is not self._job:
            return
        self._job = None
        if self._deadline is not None:
            self._deadline.cancel()
            self._deadline = None
        if self._closing:
            return
        if finish is None:
            response = _TIMED_OUT
        else:
            try:
                response = finish(*job.result())
            except Exception as err:  # noqa: BLE001 - the request's 500
                response = _json(
                    500,
                    {"error": f"internal error: {type(err).__name__}: {err}"},
                )
        self.transport.write(response)
        if not self._keep_alive or self.gateway._draining:
            self._close()
        else:
            self._continue()


class Gateway:
    """The async serving frontend over a refcounted store manager."""

    def __init__(
        self,
        manager: StoreManager,
        host: str = "127.0.0.1",
        port: int = 8080,
        max_connections: int = 256,
        request_timeout: float = 30.0,
        workers: int = 8,
        cache_size: int = 1024,
        admin_token: str | None = None,
        ingest_board: StatusBoard | None = None,
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.request_timeout = request_timeout
        self.admin_token = admin_token
        # Shared with an in-process IngestPipeline, or fed remotely via
        # POST /ingest/status; either way GET /ingest/status reads it.
        self.ingest_board = ingest_board or StatusBoard()
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="kbt-gateway"
        )
        # Complete responses by (etag, target). Read and written by the
        # loop thread only — pooled jobs return bytes and the loop
        # caches them — so no lock.
        self._cache: OrderedDict[tuple, bytes] = OrderedDict()
        self._cache_size = cache_size
        # (etag, its ETag header line, its whole 304 response).
        self._validator_memo: tuple = (None, b"", b"")
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._connections: set[_Connection] = set()
        self._draining = False
        # What every socket is read into, in turn: the loop reads one
        # socket and hands the bytes to its connection before it reads
        # the next. A plain Protocol would get a fresh bytes object of
        # asyncio's read size (256 KiB) per read, and glibc serves an
        # allocation that size with an mmap and munmap until the process
        # has freed a larger block: ~15 us per request. An anonymous map,
        # so only the pages reads reach become resident.
        self._receive = memoryview(mmap.mmap(-1, RECEIVE_BYTES))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "Gateway":
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(
            lambda: _Connection(self), self.host, self.port
        )
        return self

    @property
    def address(self) -> tuple[str, int]:
        return self._server.sockets[0].getsockname()[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    async def stop(self) -> None:
        """Drain and shut down: finish in-flight work, drop nothing.

        Ordering matters: flip ``/readyz`` to 503 first (load balancers
        stop routing), stop accepting, close every connection that has
        no pooled request in flight (its answered responses flush
        first), then wait for the busy ones to answer and close before
        closing the pool and store.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        for connection in list(self._connections):
            if connection._job is None:
                connection._close()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.request_timeout + 5.0
        while self._connections:
            if loop.time() > deadline:
                for connection in list(self._connections):
                    connection.transport.abort()
                break
            await asyncio.sleep(0.01)
        if self._server is not None:
            await self._server.wait_closed()
        # A stray job past its 504 may still be running: wait for it
        # off the loop.
        await asyncio.to_thread(self._pool.shutdown, wait=True)
        self.manager.close()

    # ------------------------------------------------------------------
    # One framed request
    # ------------------------------------------------------------------
    def _answer(
        self,
        connection: _Connection,
        method: str,
        target: str,
        headers: dict[str, str],
        body: bytes,
    ) -> bytes | None:
        """The complete response to one request, or ``None`` when it was
        handed to the pool (``connection`` answers it when it ends)."""
        if method == "GET":
            # Only cacheable targets are cached, so a hit is the answer
            # unless the request's validator matches (a 304, below).
            etag = self.manager.etag
            validator = headers.get("if-none-match")
            if etag is not None and (
                validator is None or not _match_etag(validator, etag)
            ):
                key = (etag, target)
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
                    return cached

        path, params = _parse_target(target)
        if method == "GET" and path == "/readyz":
            return _json(*self._readyz())
        if method == "GET" and path == "/ingest/status":
            connection.park(
                lambda: _encoded(*self._ingest_status()),
                _response,
                self.request_timeout,
            )
            return None
        if method == "POST" and path in ("/admin/swap", "/ingest/status"):
            if not self._admin_allowed(
                headers, connection.transport.get_extra_info("peername")
            ):
                return _json(
                    403,
                    {
                        "error": "admin endpoint requires a matching "
                        "X-Admin-Token header (or, with no token "
                        "configured, a loopback client)"
                    },
                )
            if path == "/admin/swap":
                # No deadline: a 504 would not stop the flip.
                connection.park(
                    lambda: _encoded(*self._swap(body)), _response, None
                )
            else:
                connection.park(
                    lambda: _encoded(*self._ingest_publish(body)),
                    _response,
                    self.request_timeout,
                )
            return None
        if method == "POST" and path == "/batch":
            return self._batch_post(connection, body)
        if method != "GET":
            return _json(405, {"error": f"method not allowed: {method}"})
        return self._get(connection, headers, path, params, target)

    def _validator(self, etag: str) -> tuple:
        """``(etag, ETag header line, 304 response)``, built once per
        ETag (the last one seen)."""
        memo = self._validator_memo
        if memo[0] != etag:
            line = f'ETag: "{etag}"\r\n'.encode("latin-1")
            memo = self._validator_memo = (
                etag,
                line,
                _STATUS_HEADS[304] + line + b"\r\n",
            )
        return memo

    # ------------------------------------------------------------------
    # GET: the shared route table + ETag caching
    # ------------------------------------------------------------------
    def _get(
        self,
        connection: _Connection,
        headers: dict[str, str],
        path: str,
        params: dict[str, list[str]],
        target: str,
    ) -> bytes | None:
        lease = self.manager.acquire()
        etag = getattr(lease.store, "etag", None)
        etag_line = b""
        cacheable = path in CACHEABLE_ROUTES and etag is not None
        if cacheable:
            etag_line, not_modified = self._validator(etag)[1:]
            if _match_etag(headers.get("if-none-match"), etag):
                lease.release()
                return not_modified

        def finish(status: int, body: bytes) -> bytes:
            response = _response(status, body, etag_line)
            if cacheable and status == 200:
                self._cache_put((etag, target), response)
            return response

        cost, render = plan_route(lease.store, path, params)
        return self._run(connection, lease, cost, render, finish)

    def _run(self, connection, lease, cost: int | None, job, finish):
        """The one way a store request runs: ``job(lease.store)`` on the
        loop when ``cost`` is bounded (:func:`_inline`), returning
        ``finish(*result)``; else on the pool under ``request_timeout``
        (``connection`` parks and answers it, or 504; returns ``None``).

        Takes over ``lease``: it is released when the job ends (results
        are encoded bytes) — after a 504, when the stray job *actually*
        finishes, so a swap never closes a store under it.
        """

        def work():
            try:
                return job(lease.store)
            finally:
                lease.release()

        if _inline(cost):
            return finish(*work())
        connection.park(work, finish, self.request_timeout)
        return None

    def _cache_put(self, key: tuple, response: bytes) -> None:
        self._cache[key] = response
        self._cache.move_to_end(key)
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)

    # ------------------------------------------------------------------
    # POST /batch: one ``batch_body`` job, run the way a GET is
    # ------------------------------------------------------------------
    def _batch_post(
        self, connection: _Connection, body: bytes
    ) -> bytes | None:
        try:
            payload = json.loads(body)
            sites = payload["sites"]
            if not isinstance(sites, list) or not all(
                isinstance(site, str) for site in sites
            ):
                raise ValueError
        except (ValueError, KeyError, TypeError):
            return _json(
                400, {"error": 'batch body must be {"sites": ["a.com", ...]}'}
            )

        # No If-None-Match short-circuit here: 304 is defined only for
        # conditional GET/HEAD, and a POST is executed unconditionally.
        lease = self.manager.acquire()
        etag = getattr(lease.store, "etag", None)
        etag_line = b"" if etag is None else self._validator(etag)[1]

        def job(store):
            try:
                return 200, store.batch_body(sites)
            except Exception as err:  # noqa: BLE001 - handle_route's 500
                error = f"internal error: {type(err).__name__}: {err}"
                return _encoded(500, {"error": error})

        def finish(status: int, body: bytes) -> bytes:
            return _response(status, body, etag_line if status == 200 else b"")

        return self._run(
            connection, lease, lookup_cost(lease.store, len(sites)), job,
            finish,
        )

    # ------------------------------------------------------------------
    # Readiness + hot swap
    # ------------------------------------------------------------------
    def _readyz(self) -> tuple[int, dict]:
        if self._draining:
            return 503, {"status": "draining"}
        status = self.manager.status()
        return 200, {
            "status": "ready",
            "etag": status["etag"],
            "generation": status["generation"],
        }

    # ------------------------------------------------------------------
    # Ingest observability
    # ------------------------------------------------------------------
    def _ingest_status(self) -> tuple[int, dict]:
        snapshot = self.ingest_board.snapshot()
        if snapshot is None:
            return 404, {
                "error": "no ingest pipeline has reported status"
            }
        return 200, snapshot

    def _ingest_publish(self, body: bytes) -> tuple[int, dict]:
        """Land a remote pipeline's status snapshot on the board."""
        try:
            snapshot = json.loads(body)
            self.ingest_board.replace(snapshot)
        except (ValueError, TypeError) as err:
            return 400, {
                "error": f"bad status snapshot: {err}"
            }
        return 200, {"status": "accepted"}

    def _admin_allowed(self, headers: dict[str, str], peer) -> bool:
        """May this client hit ``/admin/swap``?

        With a configured token, only a constant-time ``X-Admin-Token``
        match passes — regardless of where the client connects from.
        Without one, only loopback peers pass, so the admin surface
        stays closed when the serving port is bound beyond localhost.
        """
        if self.admin_token is not None:
            # hmac imports hashlib, and with it OpenSSL's libcrypto: a
            # gateway without a token never loads them.
            import hmac

            supplied = headers.get("x-admin-token", "")
            return hmac.compare_digest(
                supplied.encode("utf-8"), self.admin_token.encode("utf-8")
            )
        if not isinstance(peer, tuple) or not peer:
            return False
        try:
            return ipaddress.ip_address(peer[0]).is_loopback
        except ValueError:
            return False

    def _swap(self, body: bytes) -> tuple[int, dict]:
        """``POST /admin/swap``, run on the pool: parse, build, flip."""
        try:
            payload = json.loads(body)
            artifact = payload["artifact"]
            if not isinstance(artifact, str) or not artifact:
                raise ValueError
        except (ValueError, KeyError, TypeError):
            return 400, {
                "error": 'swap body must be {"artifact": "/path/to.kbt"}'
            }
        try:
            new_store = self.manager.swap(Path(artifact))
        except (OSError, ValueError) as err:
            # ArtifactError and LayoutError are ValueErrors. The swap
            # never flipped: the old store is still serving.
            return 400, {
                "error": f"swap rejected: {type(err).__name__}: {err}"
            }
        return 200, {
            "status": "swapped",
            "etag": getattr(new_store, "etag", None),
            "generation": self.manager.generation,
            "websites": len(new_store),
        }


# ----------------------------------------------------------------------
# Running a gateway: blocking CLI entry + background thread for tests
# ----------------------------------------------------------------------
def serve_gateway(
    store,
    host: str = "127.0.0.1",
    port: int = 8080,
    max_connections: int = 256,
    request_timeout: float = 30.0,
    workers: int = 8,
    admin_token: str | None = None,
) -> None:
    """Blocking convenience wrapper used by ``kbt serve``.

    ``store`` is any ``TrustStore`` (normally an ``MmapTrustStore``) or
    a ready-made :class:`StoreManager`. Ctrl-C
    and SIGTERM (what systemd, Kubernetes, and CI send) both trigger
    the draining shutdown before the process exits. ``admin_token``
    gates ``POST /admin/swap``; without one the endpoint only accepts
    loopback clients. A host or port that cannot be bound raises
    :class:`ListenError`, with the store already closed.
    """
    manager = store if isinstance(store, StoreManager) else StoreManager(store)

    async def main() -> None:
        gateway = Gateway(
            manager,
            host=host,
            port=port,
            max_connections=max_connections,
            request_timeout=request_timeout,
            workers=workers,
            admin_token=admin_token,
        )
        try:
            await gateway.start()
        except OSError as err:
            await gateway.stop()
            raise ListenError(
                f"cannot listen on {host}:{port}: {err.strerror or err}"
            ) from err
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        # SIGINT arrives as KeyboardInterrupt via asyncio.run's
        # cancellation; SIGTERM needs an explicit handler or the
        # process dies without draining. Registration fails off the
        # main thread (tests) — there GatewayThread.stop drains.
        try:
            loop.add_signal_handler(signal.SIGTERM, stop.set)
        except (NotImplementedError, RuntimeError, ValueError):
            pass
        try:
            # Printed only now that SIGTERM drains: whoever waits for
            # this line may send the signal straight after reading it.
            bound_host, bound_port = gateway.address
            with manager.acquire() as current:
                print(
                    f"gateway serving {len(current)} website scores on "
                    f"http://{bound_host}:{bound_port} "
                    f"(etag {manager.etag or 'n/a'})"
                )
            await stop.wait()
        except asyncio.CancelledError:
            pass
        finally:
            try:
                loop.remove_signal_handler(signal.SIGTERM)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
            await gateway.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass


class GatewayThread:
    """A gateway on its own event-loop thread (tests and benchmarks).

    ``with GatewayThread(manager) as url:`` yields the bound base URL;
    exiting runs the draining stop on the loop thread and joins it.
    """

    def __init__(self, manager: StoreManager, **kwargs) -> None:
        self._manager = manager
        self._kwargs = kwargs
        self.gateway: Gateway | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> "GatewayThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            raise self._error
        return self

    async def _main(self) -> None:
        try:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self.gateway = Gateway(self._manager, port=0, **self._kwargs)
            await self.gateway.start()
        except BaseException as err:  # noqa: BLE001 - surface to caller
            self._error = err
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self.gateway.stop()

    @property
    def url(self) -> str:
        return self.gateway.url

    @property
    def address(self) -> tuple[str, int]:
        return self.gateway.address

    def stop(self) -> None:
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
            self._thread.join()
            self._thread = None

    def __enter__(self) -> str:
        self.start()
        return self.url

    def __exit__(self, *exc) -> None:
        self.stop()


__all__ = ["Gateway", "GatewayThread", "ListenError", "serve_gateway"]
