"""The one route table: ``(store, path, params) -> (status, payload)``.

:func:`handle_route` holds all parameter parsing, 400/404 semantics and
error strings in one place, and :func:`route_cost` beside it says what
a request will cost before it runs; the gateway
(:mod:`repro.serving.gateway`) owns only transport concerns (sockets,
headers, timeouts, caching, and which thread answers). ``handle_route``
is a plain function of the store, so the parity tests call it directly
over a :class:`~repro.serving.store.TrustStore` and compare against the
bytes the gateway serves from the mmap store.

Any :class:`~repro.serving.store.StoreViews` works as the ``store``.
"""

from __future__ import annotations

from repro.signals.base import SignalError

#: Routes whose payload depends only on the artifact and the query
#: string — safe to answer from an ETag-validated cache (the gateway's
#: ``If-None-Match`` -> 304 path). ``/healthz`` is deliberately absent:
#: health probes must always hit the live store.
CACHEABLE_ROUTES = frozenset(
    {
        "/score",
        "/page",
        "/batch",
        "/top",
        "/percentile",
        "/breakdown",
        "/signals",
        "/compare",
    }
)


class _BadRequest(Exception):
    """A malformed query string; rendered as HTTP 400."""


def _require(params: dict, name: str) -> str:
    values = params.get(name)
    if not values or not values[0]:
        raise _BadRequest(f"missing query parameter: {name}")
    return values[0]


def _optional(params: dict, name: str) -> str | None:
    values = params.get(name)
    if not values or not values[0]:
        return None
    return values[0]


def _parse_k(params: dict, default: str = "10") -> int:
    raw = params.get("k", [default])[0]
    try:
        k = int(raw)
        if k < 0:
            raise ValueError
    except ValueError:
        raise _BadRequest(f"k must be a non-negative integer: {raw!r}")
    return k


# ----------------------------------------------------------------------
# Route handlers: (store, params) -> (status, payload)
# ----------------------------------------------------------------------
def _healthz(store, params) -> tuple[int, object]:
    return 200, store.stats_json()


def _score(store, params) -> tuple[int, object]:
    site = _require(params, "site")
    payload = store.score_json(site)
    if payload is None:
        return 404, {"error": f"no score for website: {site}"}
    return 200, payload


def _page(store, params) -> tuple[int, object]:
    site = _require(params, "site")
    page = _require(params, "page")
    payload = store.page_json(site, page)
    if payload is None:
        return 404, {"error": f"no score for webpage: {site} {page}"}
    return 200, payload


def _batch_sites(params: dict) -> list[str]:
    return [site for site in _require(params, "sites").split(",") if site]


def _batch(store, params) -> tuple[int, object]:
    return 200, store.batch_json(_batch_sites(params))


def _top(store, params) -> tuple[int, object]:
    return 200, store.top_json(_parse_k(params))


def _percentile(store, params) -> tuple[int, object]:
    site = _require(params, "site")
    percentile = store.percentile(site)
    if percentile is None:
        return 404, {"error": f"no score for website: {site}"}
    return 200, {"key": site, "percentile": percentile}


def _breakdown(store, params) -> tuple[int, object]:
    site = _require(params, "site")
    payload = store.breakdown(site)
    if payload is None:
        return 404, {"error": f"no score for website: {site}"}
    return 200, payload


def _signals(store, params) -> tuple[int, object]:
    site = _optional(params, "site")
    if site is None:
        return 200, store.signals_json()
    payload = store.signal_breakdown(site)
    if payload is None:
        return 404, {"error": f"no signal scores for website: {site}"}
    return 200, payload


def _compare(store, params) -> tuple[int, object]:
    a = _require(params, "a")
    b = _require(params, "b")
    return 200, store.compare(a, b, k=_parse_k(params))


_ROUTES = {
    "/healthz": _healthz,
    "/score": _score,
    "/page": _page,
    "/batch": _batch,
    "/top": _top,
    "/percentile": _percentile,
    "/breakdown": _breakdown,
    "/signals": _signals,
    "/compare": _compare,
}


def lookup_cost(store, rows: int) -> int | None:
    """The cost of touching ``rows`` rows of ``store``: that count (at
    least 1) when the store declares its lookups memory-resident,
    ``None`` — unbounded — when nothing says how long they can block."""
    if not getattr(store, "resident_lookups", False):
        return None
    return max(1, rows)


def route_cost(store, path: str, params: dict) -> int | None:
    """Store rows answering this GET will touch, known *before* the work.

    With :func:`lookup_cost` (which ``POST /batch`` calls with its key
    count) the only place that says what a request costs: the gateway
    answers on its event loop exactly the requests whose cost is small
    (``repro.serving.gateway.INLINE_ROWS``) and sends the rest to its
    worker pool. ``None`` means unbounded: the signal routes (a lazy
    surface build, then O(n) scans), and every route of a store without
    ``resident_lookups``. Otherwise a point lookup, an unknown route
    and anything :func:`handle_route` will reject with a 400 cost 1;
    ``/batch`` costs its key count, ``/top`` its ``k``, ``/breakdown``
    the site's contributor rows (millions of pages at the paper's
    scale, so not a point lookup).
    """
    rows = 1
    if path in ("/signals", "/compare") or lookup_cost(store, rows) is None:
        return None
    try:
        if path == "/batch":
            rows = len(_batch_sites(params))
        elif path == "/top":
            rows = _parse_k(params)
        elif path == "/breakdown":
            rows = store.contributor_rows(_require(params, "site"))
    except _BadRequest:
        pass
    return lookup_cost(store, rows)


def handle_route(store, path: str, params: dict) -> tuple[int, object]:
    """Answer one GET request against ``store``; never raises.

    ``params`` is the ``urllib.parse.parse_qs`` form of the query
    string. Returns ``(status, payload)`` where ``payload`` is the
    JSON-serialisable body — unknown routes 404, malformed parameters
    (including unknown signal names) 400, unexpected store failures 500.
    """
    handler = _ROUTES.get(path)
    if handler is None:
        return 404, {"error": f"unknown route: {path}"}
    try:
        return handler(store, params)
    except _BadRequest as err:
        return 400, {"error": str(err)}
    except SignalError as err:
        return 400, {"error": str(err)}
    except Exception as err:  # noqa: BLE001 - last-resort JSON body
        return 500, {"error": f"internal error: {type(err).__name__}: {err}"}


__all__ = ["CACHEABLE_ROUTES", "handle_route", "lookup_cost", "route_cost"]
