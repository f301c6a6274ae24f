"""Online consumption of fitted KBT models: the *query* stage.

The paper's deployment story (Section 5) is offline estimation followed by
online lookup of KBT scores for hundreds of millions of pages. This package
is that split:

* :mod:`repro.serving.store` — the JSON views every store serves, and
  :class:`TrustStore`, the in-memory aggregation of a persisted trust
  artifact (O(1) score lookups, ranked ``top``, percentiles, per-site
  provenance breakdowns): the layout exporter's source, the ``kbt
  query`` backend, and the parity tests' reference;
* :mod:`repro.serving.mmap_store` — :class:`MmapTrustStore`, the store
  ``kbt serve`` runs: the same query surface answered from memory-mapped
  columns of a serving layout (:mod:`repro.io.mmap_layout`), with
  byte-identical JSON views;
* :mod:`repro.serving.routes` — the one route table;
* :mod:`repro.serving.gateway` — the asyncio gateway (``kbt serve``):
  connection limits, request timeouts, ETag caching, ``POST /batch``,
  draining shutdown;
* :mod:`repro.serving.manager` — the refcounted :class:`StoreManager`
  behind the gateway's zero-downtime hot artifact swap (``kbt swap``).
"""

from repro.serving.gateway import Gateway, GatewayThread, serve_gateway
from repro.serving.manager import StoreLease, StoreManager
from repro.serving.mmap_store import MmapTrustStore
from repro.serving.routes import CACHEABLE_ROUTES, handle_route
from repro.serving.store import TrustStore

__all__ = [
    "CACHEABLE_ROUTES",
    "Gateway",
    "GatewayThread",
    "MmapTrustStore",
    "StoreLease",
    "StoreManager",
    "TrustStore",
    "handle_route",
    "serve_gateway",
]
