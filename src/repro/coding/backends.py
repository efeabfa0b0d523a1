"""Pluggable GF(2^8) codec backends behind the ``FieldType`` seam.

The paper accelerates its coding loop with SSE2 because coding
throughput bounds everything downstream; this module is the Python
analogue of that seam.  Every backend exposes the same classmethod
surface as :class:`repro.coding.gf256.GF256` (the *reference oracle*)
and must be bit-identical to it on every operation — CI runs the
equivalence suite once per registered backend to enforce exactly that.

Built-in backends:

* ``numpy`` — the reference: flat 64 KiB-table gathers
  (:class:`repro.coding.gf256.GF256`).  Always available.
* ``native`` — compiled C kernels (SSSE3/AVX2 ``pshufb`` nibble
  multiply, the direct descendant of the paper's SSE2 loop) built at
  first use with the system C compiler and loaded through ``ctypes``
  (:mod:`repro.coding.native`).  Available when a toolchain is.

(:class:`repro.coding.gf256_baseline.GF256Baseline`, the paper's
lookup-table comparator, satisfies the same surface but is passed as an
explicit ``field=``; it is not a registered backend.)

Selection:

* :func:`get_backend` — look one up by name (``"best"`` picks the
  fastest available).
* :func:`active_backend` — the process default used whenever an
  encoder/decoder is built without an explicit ``field=``; resolves
  an explicit :func:`select_backend` first, then the
  ``OMNC_GF_BACKEND`` environment variable, then ``"best"``.
* :func:`select_backend` — set the process default (the CLI's
  ``--gf-backend`` lands here); ``export=True`` also sets
  ``OMNC_GF_BACKEND`` so campaign worker processes inherit the choice.

Whenever a request cannot be honoured — the compiled backend fails to
build or to pass its self-test, ``OMNC_GF_BACKEND`` names something
unknown — the codec runs on what is left and says so once per process
(a ``logging`` warning naming the requested and the chosen backend).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple

from repro.coding.gf256 import GF256
from repro.coding.gf256_baseline import GF256Baseline

#: Any GF(2^8) arithmetic backend: the table-driven vectorized class
#: family (GF256 and its registered subclasses) or the pure-Python
#: baseline.  All expose the same classmethod surface.
FieldType = type[GF256] | type[GF256Baseline]

#: Environment variable naming the default backend for the process (and,
#: because environments are inherited, for campaign worker processes).
BACKEND_ENV = "OMNC_GF_BACKEND"

#: The always-available reference backend name.
REFERENCE_BACKEND = "numpy"

#: Preference order for ``get_backend("best")``, most preferred first.
_BEST_ORDER = ("native", REFERENCE_BACKEND)


# ---------------------------------------------------------------------------
# Registry

# The backend registry is deliberately process-local: every process
# (parent and shard workers alike) repopulates it from the same
# deterministic module-level register_backend() calls at import time,
# and the chosen backend travels to workers by *name* via
# OMNC_GF_BACKEND, never by object.  Divergence is therefore impossible
# by construction, which is what the RPR102 pragmas record.
_REGISTRY: Dict[str, FieldType] = {}  # repro: ignore[RPR102]
#: Lazy backends: name -> provider returning a FieldType or None when the
#: backend cannot run here (no toolchain, failed self-test).  Providers
#: run at most once; their verdict is cached in ``_RESOLVED``.
_PROVIDERS: Dict[str, Callable[[], Optional[FieldType]]] = {}  # repro: ignore[RPR102]
_RESOLVED: Dict[str, Optional[FieldType]] = {}  # repro: ignore[RPR102]
#: Explicit process-default selection (set via :func:`select_backend`).
_SELECTED: Optional[str] = None
#: Whether this process already reported a request it could not honour.
_DEGRADATION_LOGGED = False


def register_backend(
    name: str,
    backend: FieldType | Callable[[], Optional[FieldType]],
    *,
    lazy: bool = False,
) -> None:
    """Register a backend class (or, with ``lazy=True``, a provider).

    A provider is called on first lookup and may return ``None`` to
    signal the backend cannot run on this machine — it is then skipped
    cleanly by :func:`available_backends`.  Re-registering a name
    replaces the previous entry (tests use this to inject doubles).
    """
    if not name:
        raise ValueError("backend name must be non-empty")
    if lazy:
        _PROVIDERS[name] = backend  # type: ignore[assignment]
        _RESOLVED.pop(name, None)
        _REGISTRY.pop(name, None)
    else:
        _REGISTRY[name] = backend  # type: ignore[assignment]
        _PROVIDERS.pop(name, None)
        _RESOLVED.pop(name, None)


def _resolve(name: str) -> Optional[FieldType]:
    """The backend registered under ``name``, or None if unavailable."""
    if name in _REGISTRY:
        return _REGISTRY[name]
    if name in _PROVIDERS:
        if name not in _RESOLVED:
            try:
                _RESOLVED[name] = _PROVIDERS[name]()
            except Exception:
                # A broken provider (failed compile, bad shared object)
                # must degrade to "unavailable", never break the codec.
                _RESOLVED[name] = None
        return _RESOLVED[name]
    return None


def registered_backends() -> Tuple[str, ...]:
    """Every registered name, available on this machine or not."""
    names = list(_REGISTRY)
    names.extend(p for p in _PROVIDERS if p not in names)
    return tuple(names)


def available_backends() -> Tuple[str, ...]:
    """Names of the backends that can actually run here.

    Lazy providers are resolved (and their verdict cached), so this is
    the authoritative list CI iterates for the backend-matrix job.
    """
    return tuple(name for name in registered_backends() if _resolve(name) is not None)


def _degraded(requested: str, chosen: str) -> None:
    """Say, once per process, that ``requested`` is served by ``chosen``."""
    global _DEGRADATION_LOGGED
    if not _DEGRADATION_LOGGED:
        _DEGRADATION_LOGGED = True
        import logging  # only a degrading process pays for the import

        logging.getLogger(__name__).warning(
            "GF(2^8) backend %r is unavailable here; the codec runs on %r",
            requested,
            chosen,
        )


def best_backend_name() -> str:
    """Name of the backend ``get_backend("best")`` resolves to."""
    for candidate in _BEST_ORDER:
        if _resolve(candidate) is not None:
            if candidate != _BEST_ORDER[0]:
                _degraded(_BEST_ORDER[0], candidate)
            return candidate
    return REFERENCE_BACKEND  # unreachable while "numpy" stays registered


def get_backend(name: str) -> FieldType:
    """Look up a backend by name.

    ``"best"`` (or ``"auto"``) resolves the fastest available backend by
    the static preference order; any other unknown or unavailable name
    raises ``KeyError`` listing what this machine offers.
    """
    if name in ("best", "auto"):
        name = best_backend_name()
    backend = _resolve(name)
    if backend is None:
        raise KeyError(
            f"unknown or unavailable GF(2^8) backend {name!r}; "
            f"available here: {', '.join(available_backends())}"
        )
    return backend


def select_backend(name: str, *, export: bool = False) -> FieldType:
    """Set the process-default backend (and return it).

    ``export=True`` also writes ``OMNC_GF_BACKEND`` so worker processes
    forked or spawned later (campaign pools) inherit the selection.
    """
    backend = get_backend(name)  # validates
    global _SELECTED
    _SELECTED = name
    if export:
        os.environ[BACKEND_ENV] = name
    return backend


def clear_selection() -> None:
    """Drop an explicit :func:`select_backend` choice (tests use this)."""
    global _SELECTED
    _SELECTED = None


def active_backend_name() -> str:
    """Registry name of :func:`active_backend` (for tagging runs).

    Resolution order: explicit :func:`select_backend` choice, then the
    ``OMNC_GF_BACKEND`` environment variable, then ``"best"``.  A
    stale/unknown name is served by the reference (and reported once)
    rather than failing deep inside a decoder.
    """
    name = _SELECTED or os.environ.get(BACKEND_ENV) or "best"
    if name in ("best", "auto"):
        return best_backend_name()
    if _resolve(name) is None:
        _degraded(name, REFERENCE_BACKEND)
        return REFERENCE_BACKEND
    return name


def active_backend() -> FieldType:
    """The backend used when no explicit ``field=`` is passed (see
    :func:`active_backend_name` for the resolution order)."""
    return get_backend(active_backend_name())


def resolve_field(field: Optional[FieldType]) -> FieldType:
    """The field an encoder/decoder should use: explicit wins, else the
    process-active backend."""
    return field if field is not None else active_backend()


def _native_provider() -> Optional[FieldType]:
    from repro.coding.native import load_native_backend

    return load_native_backend()


register_backend(REFERENCE_BACKEND, GF256)
register_backend("native", _native_provider, lazy=True)


__all__ = [
    "BACKEND_ENV",
    "FieldType",
    "REFERENCE_BACKEND",
    "active_backend",
    "active_backend_name",
    "available_backends",
    "best_backend_name",
    "clear_selection",
    "get_backend",
    "register_backend",
    "registered_backends",
    "resolve_field",
    "select_backend",
]
