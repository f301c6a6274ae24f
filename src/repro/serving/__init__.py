"""Online consumption of fitted KBT models: the *query* stage.

The paper's deployment story (Section 5) is offline estimation followed by
online lookup of KBT scores for hundreds of millions of pages. This package
is that split:

* :mod:`repro.serving.store` — :class:`TrustStore`, the one store: every
  lookup (O(1) scores, ranked ``top``, percentiles, per-site provenance
  breakdowns, the signal views) and every JSON view, written once over
  the serving columns of :mod:`repro.io.mmap_layout`. Built from an
  artifact it holds them in memory and writes nothing (``kbt query`` /
  ``signals`` / ``compare``);
* :mod:`repro.serving.mmap_store` — :class:`MmapTrustStore`, the store
  ``kbt serve`` runs: a ``TrustStore`` over the memory-mapped columns of
  an exported serving layout, with the ETag-keyed layout cache;
* :mod:`repro.serving.routes` — the one route table;
* :mod:`repro.serving.gateway` — the asyncio gateway (``kbt serve``):
  connection limits, request timeouts, ETag caching, ``POST /batch``,
  draining shutdown;
* :mod:`repro.serving.manager` — the refcounted :class:`StoreManager`
  behind the gateway's zero-downtime hot artifact swap (``kbt swap``).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CACHEABLE_ROUTES": "repro.serving.routes",
    "Gateway": "repro.serving.gateway",
    "GatewayThread": "repro.serving.gateway",
    "MmapTrustStore": "repro.serving.mmap_store",
    "StoreLease": "repro.serving.manager",
    "StoreManager": "repro.serving.manager",
    "TrustStore": "repro.serving.store",
    "handle_route": "repro.serving.routes",
    "serve_gateway": "repro.serving.gateway",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
