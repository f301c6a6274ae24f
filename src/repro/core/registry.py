"""Engine and execution-backend registries: one source of truth.

``MultiLayerConfig`` validation, the ``MultiLayerModel`` dispatch, the CLI
``choices=`` lists and the error messages all consult this module, so a
new inference engine or execution backend is registered exactly once and
every surface — validation, dispatch, help text — picks it up without
drifting out of sync.

Entries are registered by name with a human-readable description and a
lazy ``"module:attribute"`` loader; the heavy modules (numpy engine,
sharded execution) are only imported when an entry is actually resolved,
keeping the reference python engine usable in numpy-less environments.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Any


@dataclass(frozen=True, slots=True)
class RegistryEntry:
    """One registered engine or backend."""

    name: str
    description: str
    #: Lazy ``"module:attribute"`` path of the implementation.
    loader: str

    def load(self) -> Any:
        module_name, _, attribute = self.loader.partition(":")
        return getattr(import_module(module_name), attribute)


_ENGINES: dict[str, RegistryEntry] = {}
_BACKENDS: dict[str, RegistryEntry] = {}


def register_engine(name: str, description: str, loader: str) -> None:
    """Register an inference engine (a ``fit(cfg, observations, ...)``)."""
    _ENGINES[name] = RegistryEntry(name, description, loader)


def register_backend(name: str, description: str, loader: str) -> None:
    """Register a sharded execution backend (an ``ExecutionBackend``)."""
    _BACKENDS[name] = RegistryEntry(name, description, loader)


def engine_names() -> tuple[str, ...]:
    """Registered engine names, in registration order."""
    return tuple(_ENGINES)


def backend_names() -> tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_BACKENDS)


def validate_engine(name: str) -> str:
    """Return ``name`` if registered, else raise with the valid choices."""
    if name not in _ENGINES:
        raise ValueError(
            f"unknown engine {name!r}: valid engines are "
            f"{', '.join(engine_names())}"
        )
    return name


def validate_backend(name: str) -> str:
    """Return ``name`` if registered, else raise with the valid choices."""
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown execution backend {name!r}: valid backends are "
            f"{', '.join(backend_names())}"
        )
    return name


def resolve_engine(name: str) -> Any:
    """The engine's fit callable (may raise ImportError for numpy-less
    environments — callers translate that into a helpful RuntimeError)."""
    validate_engine(name)
    return _ENGINES[name].load()


def resolve_backend(name: str) -> Any:
    """The backend factory class registered under ``name``."""
    validate_backend(name)
    return _BACKENDS[name].load()


def engine_descriptions() -> dict[str, str]:
    return {entry.name: entry.description for entry in _ENGINES.values()}


def backend_descriptions() -> dict[str, str]:
    return {entry.name: entry.description for entry in _BACKENDS.values()}


# ----------------------------------------------------------------------
# Built-ins. Third-party code may call register_* to add more; the
# MultiLayerConfig error messages and the CLI choices update themselves.
# ----------------------------------------------------------------------
register_engine(
    "python",
    "reference dict-based implementation (mirrors the paper line by line)",
    "repro.core.multi_layer:fit_python",
)
register_engine(
    "numpy",
    "vectorized array engine over the compiled problem (segment ops)",
    "repro.core.engine_numpy:fit_numpy",
)

register_backend(
    "serial",
    "sharded execution, shards run sequentially in-process",
    "repro.exec.backends:SerialBackend",
)
register_backend(
    "threads",
    "sharded execution over a thread pool (shared address space)",
    "repro.exec.backends:ThreadBackend",
)
register_backend(
    "processes",
    "sharded execution over worker processes with shared-memory buffers",
    "repro.exec.backends:ProcessBackend",
)
register_backend(
    "remote",
    "distributed execution over TCP (coordinator + kbt worker fleet)",
    "repro.exec.remote:RemoteBackend",
)
