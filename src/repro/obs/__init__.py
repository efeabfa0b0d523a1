"""Observability: metrics, structured tracing, and the global registry.

The subsystem has two halves:

* :mod:`repro.obs.metrics` — counters / gauges / histograms behind a
  :class:`MetricsRegistry` that components attach to;
* :mod:`repro.obs.tracer` — a structured :class:`EventTracer` with
  JSON-lines export for per-event trajectories (dual prices, decode
  progress).

Collection is **off by default**.  Instrumented components resolve their
registry with :func:`resolve` — an explicit registry wins, otherwise the
process-global one — and a disabled registry hands out shared no-op
instruments, so the emulator slot loop and the GF(2^8) kernels pay one
no-op method call per event when observability is off.

Typical use::

    from repro import obs

    with obs.collecting() as registry:
        result = run_coded_session(network, plan, config=cfg, rng=rng)
    registry.value("emulator.slots")          # counters across the run
    registry.get("decoder.rank").value        # gauge: final decoder rank

or, for one component only::

    registry = obs.MetricsRegistry()
    decoder = ProgressiveDecoder(16, 256, registry=registry)

Enabling the global registry also meters the GF(2^8) codec itself
(``codec.bytes_processed``), which is wired through a module-level hook
in :mod:`repro.coding.gf256` so the disabled cost there is a single
``is None`` check.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Instrument,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    ScopedRegistry,
)
from repro.obs.tracer import EventTracer, NULL_TRACER, TraceRecord

__all__ = [
    "Counter",
    "EventTracer",
    "Gauge",
    "Histogram",
    "Instrument",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_TRACER",
    "ScopedRegistry",
    "TraceRecord",
    "collecting",
    "disable",
    "enable",
    "get_registry",
    "resolve",
    "resolve_tracer",
]

# The process-global registry.  Starts disabled: resolve(None) then hands
# out null instruments and nothing is recorded anywhere.
_global_registry = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The current process-global registry (disabled unless enabled)."""
    return _global_registry


def resolve(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """The registry a component should use: explicit wins, else global."""
    return registry if registry is not None else _global_registry


def resolve_tracer(tracer: Optional[EventTracer]) -> EventTracer:
    """The tracer a component should use: explicit wins, else the null one."""
    return tracer if tracer is not None else NULL_TRACER


def _install_codec_hook(registry: MetricsRegistry) -> None:
    """Point the GF(2^8) kernels' byte meter at ``registry`` (or unhook).

    Imported lazily: ``repro.coding`` imports the decoder, which imports
    this package, so a module-level import here would be circular.
    """
    from repro.coding import backends, gf256

    if registry.enabled:
        counter = registry.counter(
            "codec.bytes_processed",
            "bytes pushed through the GF(2^8) row kernels (encode + decode)",
        )
        gf256.set_bytes_hook(counter.inc)
        # Tag the run with the backend that serves it (a 1-valued gauge
        # per name, since metric values are floats, not strings).
        registry.gauge(
            f"codec.backend.{backends.active_backend_name()}",
            "GF(2^8) backend active when collection was enabled (1 = this one)",
        ).set(1)
    else:
        gf256.set_bytes_hook(None)


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Switch global collection on; returns the now-active registry."""
    global _global_registry
    _global_registry = registry if registry is not None else MetricsRegistry()
    _install_codec_hook(_global_registry)
    return _global_registry


def disable() -> None:
    """Switch global collection off (the default state)."""
    global _global_registry
    _global_registry = MetricsRegistry(enabled=False)
    _install_codec_hook(_global_registry)


@contextmanager
def collecting(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Enable global collection for a ``with`` block, then restore.

    The previous global registry (enabled or not) comes back on exit, so
    nested collection scopes behave.
    """
    global _global_registry
    previous = _global_registry
    active = enable(registry)
    try:
        yield active
    finally:
        _global_registry = previous
        _install_codec_hook(_global_registry)
