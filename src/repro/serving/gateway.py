"""The asyncio serving gateway: ``kbt serve``.

The only HTTP frontend. GET routes are answered by the route table
(:mod:`repro.serving.routes`); the gateway is the serving-tier machinery
around it:

* **asyncio transport** (stdlib ``asyncio.start_server``): one event
  loop owns every socket. Keep-alive and pipelined requests on one
  connection are answered strictly in order.
* **Bounded lookups on the loop, the rest on a pool** — what a request
  costs is known before any work starts
  (:func:`repro.serving.routes.route_cost`: the store rows it will
  touch). At most :data:`INLINE_ROWS` rows of a store that declares its
  lookups memory-resident — every point route, small ``/batch`` /
  ``/top`` / ``/breakdown`` requests, every 400 and 404 — is answered
  right on the loop thread: a dict lookup and a few mapped reads cost
  less than handing them to another thread. Such an answer is bounded
  by construction, so it needs no deadline; the connection yields to
  the loop after each one, so a client that pipelines thousands cannot
  starve the others. Everything else — ``/signals`` and ``/compare``
  (a lazy surface build, O(n) scans), larger batches, rankings and
  breakdowns, every route of a store that does not make the residency
  promise, and hot swaps — runs on a bounded thread pool (``workers``),
  which is also the backpressure valve: excess work queues instead of
  spawning threads. The one caveat: a page fault on a cold column page
  now stalls the loop instead of a worker. Acceptable, because the
  ``key -> row`` index is resident and the columns are ~9 bytes per
  record — the working set of a serving process is its whole layout.
* **Connection limit** — beyond ``max_connections`` concurrent sockets,
  new arrivals get an immediate JSON 503 and a close, instead of
  unbounded accept backlog.
* **Per-request timeout** — a pooled handler that exceeds
  ``request_timeout`` answers 504 while the stray worker finishes
  harmlessly in the pool (its store lease releases only when it
  actually ends, so a hot swap can never unmap memory under it).
* **Request framing** — bodies are framed by ``Content-Length`` only:
  a ``Transfer-Encoding`` request is refused with one 501 and a close
  (never parsed as two requests); ``Expect: 100-continue`` gets its
  interim response before the body is read; an HTTP/1.0 request closes
  after the response unless it asks for keep-alive.
* **ETag caching** — every cacheable response carries the artifact's
  sha256 as a strong ETag; ``If-None-Match`` answers 304 with no store
  work, and a bounded LRU keyed ``(etag, request target)`` serves
  repeat hits without re-rendering. A swap changes the ETag, so stale
  entries can never be served.
* **POST /batch** — ``{"sites": [...]}`` bodies of arbitrary size, run
  the way a GET is: up to :data:`INLINE_ROWS` keys answered on the
  loop, more as one pool job under ``request_timeout``; byte-compatible
  with ``GET /batch`` over the same keys.
* **Hot swap** — ``POST /admin/swap {"artifact": PATH}`` builds the new
  store first (rejecting corrupt or version-mismatched artifacts with a
  400 while the old store keeps serving) and flips atomically via the
  refcounted :class:`~repro.serving.manager.StoreManager`: in-flight
  requests finish on the store they started with, zero dropped, zero
  torn. The response's ``"layout"`` says whether the serving layout was
  found ready (``"reused"`` — an ingest pipeline exports it before it
  publishes) or built by this swap (``"exported"``). The endpoint is
  **authenticated**: with ``admin_token`` set,
  the request must carry it in ``X-Admin-Token`` (constant-time
  compare); without a token only loopback clients are accepted — so
  binding ``0.0.0.0`` never exposes an open swap endpoint that could
  repoint the gateway at arbitrary server-side paths.
* **/healthz vs /readyz** — ``/healthz`` is liveness (the store's
  stats, never cached); ``/readyz`` is readiness: 200 with the current
  ETag and swap generation, 503 once draining.
* **Draining shutdown** — :meth:`Gateway.stop` stops accepting, flips
  ``/readyz``, lets every in-flight request complete, then closes idle
  keep-alive sockets and the store.
"""

from __future__ import annotations

import asyncio
import hmac
import ipaddress
import json
import signal
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from repro.ingest.status import StatusBoard
from repro.io.artifact import ArtifactError
from repro.io.mmap_layout import LayoutError
from repro.serving.manager import StoreManager
from repro.serving.routes import (
    CACHEABLE_ROUTES,
    handle_route,
    lookup_cost,
    route_cost,
)

#: Largest accepted request body (a /batch over ~100k sites fits).
MAX_BODY_BYTES = 8 << 20
#: Largest accepted request head (request line + headers).
MAX_HEAD_BYTES = 64 << 10
#: A request whose cost (:func:`repro.serving.routes.route_cost`: store
#: rows it will touch) is at most this is answered on the event loop;
#: anything dearer, or of unknown cost, goes to the worker pool under
#: ``request_timeout``. Chosen by measurement, not tunable: the worst
#: 64-row answers (a 64-key batch, ``/top?k=64``, a 58-row breakdown)
#: hold the loop ~0.45 ms — about what one pool hop costs *every*
#: request — so no inline answer delays the loop's other connections by
#: more than the hop it saves them.
INLINE_ROWS = 64

_JSON_TYPE = "application/json; charset=utf-8"


class ListenError(OSError):
    """``serve_gateway`` could not bind its host and port."""


def _inline(cost: int | None) -> bool:
    """The one inline-or-pool decision: is ``cost`` known and small?"""
    return cost is not None and cost <= INLINE_ROWS


def _consume(future) -> None:
    """Retrieve a late worker's outcome so it never logs as unretrieved."""
    if not future.cancelled():
        future.exception()


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


class _Connection:
    """One live socket: its writer plus whether a request is in flight."""

    __slots__ = ("writer", "busy")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.busy = False


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
        # Read and written by the loop thread only — pooled handlers
        # return payloads and the coroutine caches them — so no lock.
        self._cache: OrderedDict[tuple, bytes] = OrderedDict()
        self._cache_size = cache_size
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[_Connection] = set()
        self._draining = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "Gateway":
        self._server = await asyncio.start_server(
            self._serve_connection,
            self.host,
            self.port,
            limit=MAX_HEAD_BYTES,
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
        stop routing), stop accepting, wake idle keep-alive readers by
        closing their sockets, then wait for busy connections to finish
        the request they are serving before closing the pool and store.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        for connection in list(self._connections):
            if not connection.busy:
                connection.writer.close()
        deadline = (
            asyncio.get_running_loop().time() + self.request_timeout + 5.0
        )
        while self._connections:
            if asyncio.get_running_loop().time() > deadline:
                for connection in list(self._connections):
                    connection.writer.close()
                break
            await asyncio.sleep(0.01)
        if self._server is not None:
            await self._server.wait_closed()
        self._pool.shutdown(wait=True)
        self.manager.close()

    # ------------------------------------------------------------------
    # Connection loop
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(writer)
        if self._draining or len(self._connections) >= self.max_connections:
            error = (
                {"error": "server is draining"}
                if self._draining
                else {"error": "connection limit reached"}
            )
            await self._respond(writer, 503, error, close=True)
            await self._close_writer(writer)
            return
        self._connections.add(connection)
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                    BrokenPipeError,
                ):
                    break
                except asyncio.LimitOverrunError:
                    await self._respond(
                        writer,
                        431,
                        {"error": "request header section too large"},
                        close=True,
                    )
                    break
                connection.busy = True
                try:
                    keep_alive = await self._handle_request(
                        head, reader, writer
                    )
                finally:
                    connection.busy = False
                if not keep_alive or self._draining:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.discard(connection)
            await self._close_writer(writer)

    async def _close_writer(self, writer: asyncio.StreamWriter) -> None:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    # ------------------------------------------------------------------
    # One request
    # ------------------------------------------------------------------
    async def _handle_request(
        self,
        head: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Parse, dispatch, respond. Returns whether to keep the socket."""
        try:
            request_line, headers = self._parse_head(head)
            method, target, version = request_line.split(" ", 2)
        except ValueError:
            await self._respond(
                writer, 400, {"error": "malformed request"}, close=True
            )
            return False

        # HTTP/1.0 closes unless asked to keep alive; 1.1 the reverse.
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.0":
            keep_alive = connection == "keep-alive"
        else:
            keep_alive = connection != "close"

        if "transfer-encoding" in headers:
            # No transfer coding is implemented, so where this body ends
            # is unknown: answer once and drop the unread bytes with the
            # socket rather than parse them as the next request.
            await self._respond(
                writer,
                501,
                {
                    "error": "transfer-encoding is not supported; "
                    "send the body with a Content-Length"
                },
                close=True,
            )
            return False

        body = b""
        raw_length = headers.get("content-length", "0")
        try:
            content_length = int(raw_length)
            if content_length < 0:
                raise ValueError
        except ValueError:
            await self._respond(
                writer,
                400,
                {"error": f"invalid content-length: {raw_length!r}"},
                close=True,
            )
            return False
        if content_length > MAX_BODY_BYTES:
            await self._respond(
                writer,
                413,
                {"error": "request body too large"},
                close=True,
            )
            return False
        if content_length:
            if headers.get("expect", "").lower() == "100-continue":
                # The client (curl, for a large body) holds the body
                # back until told to send it, or for a second if not.
                writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            try:
                body = await reader.readexactly(content_length)
            except (asyncio.IncompleteReadError, ConnectionResetError):
                return False

        url = urlsplit(target)
        path = url.path
        params = parse_qs(url.query)

        if method == "GET" and path == "/readyz":
            await self._respond(writer, *self._readyz())
            return keep_alive
        if method == "GET" and path == "/ingest/status":
            await self._respond(writer, *self._ingest_status())
            return keep_alive
        if method == "POST" and path in ("/admin/swap", "/ingest/status"):
            if not self._admin_allowed(
                headers, writer.get_extra_info("peername")
            ):
                await self._respond(
                    writer,
                    403,
                    {
                        "error": "admin endpoint requires a matching "
                        "X-Admin-Token header (or, with no token "
                        "configured, a loopback client)"
                    },
                )
                return keep_alive
            if path == "/admin/swap":
                status, payload = await self._swap(body)
            else:
                status, payload = self._ingest_publish(body)
            await self._respond(writer, status, payload)
            return keep_alive
        if method == "POST" and path == "/batch":
            return await self._batch_post(writer, body, keep_alive)
        if method != "GET":
            await self._respond(
                writer,
                405,
                {"error": f"method not allowed: {method}"},
            )
            return keep_alive
        return await self._get(writer, headers, path, params, target,
                               keep_alive)

    @staticmethod
    def _parse_head(head: bytes) -> tuple[str, dict[str, str]]:
        lines = head.decode("latin-1").split("\r\n")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            if not _:
                raise ValueError(f"malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        return lines[0], headers

    # ------------------------------------------------------------------
    # GET: the shared route table + ETag caching
    # ------------------------------------------------------------------
    async def _get(
        self,
        writer: asyncio.StreamWriter,
        headers: dict[str, str],
        path: str,
        params: dict,
        target: str,
        keep_alive: bool,
    ) -> bool:
        lease = self.manager.acquire()
        etag = getattr(lease.store, "etag", None)
        cacheable = path in CACHEABLE_ROUTES and etag is not None

        if cacheable and _match_etag(headers.get("if-none-match"), etag):
            lease.release()
            await self._respond(writer, 304, body=b"", etag=etag)
            return keep_alive

        if cacheable:
            cached = self._cache_get((etag, target))
            if cached is not None:
                lease.release()
                await self._respond(writer, 200, body=cached, etag=etag)
                return keep_alive

        cost = route_cost(lease.store, path, params)
        answer = await self._run(
            writer, lease, cost,
            lambda store: handle_route(store, path, params),
        )
        if answer is None:
            return keep_alive
        status, payload = answer
        body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        if cacheable and status == 200:
            self._cache_put((etag, target), body)
        await self._respond(
            writer, status, body=body, etag=etag if cacheable else None
        )
        if _inline(cost):
            await self._yield_to_loop()
        return keep_alive

    async def _run(self, writer, lease, cost: int | None, job):
        """The one way a store request runs: ``job(lease.store)`` on the
        loop when ``cost`` is bounded (:func:`_inline`), else on the pool
        under ``request_timeout``.

        Returns the job's result, or ``None`` after answering 504 for a
        pooled job that missed the deadline. Takes over ``lease``: it is
        released when the job ends (results are detached dicts) — after
        a 504, when the stray worker *actually* finishes, so a swap
        never closes a store under it.
        """

        def work():
            try:
                return job(lease.store)
            finally:
                lease.release()

        if _inline(cost):
            return work()
        future = asyncio.get_running_loop().run_in_executor(
            self._pool, work
        )
        done, _pending = await asyncio.wait(
            {future}, timeout=self.request_timeout
        )
        if not done:
            future.add_done_callback(_consume)
            await self._respond(writer, 504, {"error": "request timed out"})
            return None
        return future.result()

    @staticmethod
    async def _yield_to_loop() -> None:
        """Let every other connection run between two inline answers.

        Neither an inline answer nor a buffered read or write ever
        suspends this connection's task, so without this one client
        pipelining thousands of requests would hold the loop until its
        last response — the pool hop used to be the yield.
        """
        await asyncio.sleep(0)

    def _cache_get(self, key: tuple) -> bytes | None:
        body = self._cache.get(key)
        if body is not None:
            self._cache.move_to_end(key)
        return body

    def _cache_put(self, key: tuple, body: bytes) -> None:
        self._cache[key] = body
        self._cache.move_to_end(key)
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)

    # ------------------------------------------------------------------
    # POST /batch: one ``batch_json`` job, run the way a GET is
    # ------------------------------------------------------------------
    async def _batch_post(
        self,
        writer: asyncio.StreamWriter,
        body: bytes,
        keep_alive: bool,
    ) -> bool:
        try:
            payload = json.loads(body)
            sites = payload["sites"]
            if not isinstance(sites, list) or not all(
                isinstance(site, str) for site in sites
            ):
                raise ValueError
        except (ValueError, KeyError, TypeError):
            await self._respond(
                writer,
                400,
                {"error": 'batch body must be {"sites": ["a.com", ...]}'},
            )
            return keep_alive

        # No If-None-Match short-circuit here: 304 is defined only for
        # conditional GET/HEAD, and a POST is executed unconditionally.
        lease = self.manager.acquire()
        etag = getattr(lease.store, "etag", None)
        cost = lookup_cost(lease.store, len(sites))

        def job(store):
            try:
                return 200, store.batch_json(sites)
            except Exception as err:  # noqa: BLE001 - handle_route's 500
                error = f"internal error: {type(err).__name__}: {err}"
                return 500, {"error": error}

        answer = await self._run(writer, lease, cost, job)
        if answer is None:
            return keep_alive
        status, payload = answer
        await self._respond(
            writer, status, payload, etag=etag if status == 200 else None
        )
        if _inline(cost):
            await self._yield_to_loop()
        return keep_alive

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

    async def _swap(self, body: bytes) -> tuple[int, dict]:
        try:
            payload = json.loads(body)
            artifact = payload["artifact"]
            if not isinstance(artifact, str) or not artifact:
                raise ValueError
        except (ValueError, KeyError, TypeError):
            return 400, {
                "error": 'swap body must be {"artifact": "/path/to.kbt"}'
            }
        loop = asyncio.get_running_loop()
        try:
            new_store = await loop.run_in_executor(
                self._pool, self.manager.swap, Path(artifact)
            )
        except (ArtifactError, LayoutError, OSError, ValueError) as err:
            # The swap never flipped: the old store is still serving.
            return 400, {
                "error": f"swap rejected: {type(err).__name__}: {err}"
            }
        return 200, {
            "status": "swapped",
            "etag": getattr(new_store, "etag", None),
            "generation": self.manager.generation,
            "websites": len(new_store),
            # "reused": the publisher shipped the layout ready-made;
            # "exported": this swap had to build it from the artifact.
            "layout": getattr(new_store, "layout_state", None),
        }

    # ------------------------------------------------------------------
    # Response writing
    # ------------------------------------------------------------------
    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload=None,
        *,
        body: bytes | None = None,
        etag: str | None = None,
        close: bool = False,
    ) -> None:
        if body is None:
            body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        phrase = HTTPStatus(status).phrase
        lines = [
            f"HTTP/1.1 {status} {phrase}",
            "Server: kbt-gateway/1",
        ]
        if etag is not None:
            lines.append(f'ETag: "{etag}"')
        if status == 304:
            body = b""
        else:
            lines.append(f"Content-Type: {_JSON_TYPE}")
            lines.append(f"Content-Length: {len(body)}")
        if close:
            lines.append("Connection: close")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass


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

    ``store`` is any ``StoreViews`` (normally an ``MmapTrustStore``) or
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
