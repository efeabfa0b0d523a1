"""Observability: metrics, structured tracing, and the global registry.

The subsystem has two halves:

* :mod:`repro.obs.metrics` — counters / gauges / histograms behind a
  :class:`MetricsRegistry` that components attach to;
* :mod:`repro.obs.tracer` — a structured :class:`EventTracer` with
  JSON-lines export for per-event trajectories (dual prices, decode
  progress).

Collection is **off by default**, and a :func:`collecting` scope is the
one way to turn it on.  Instrumented components take their instruments
from :func:`get_registry` when they are built; outside a scope that
registry is disabled and hands out shared no-op instruments, so the
emulator slot loop and the GF(2^8) kernels pay one no-op method call per
event when observability is off.

Typical use::

    from repro import obs

    with obs.collecting() as registry:
        result = run_coded_session(network, plan, config=cfg, rng=rng)
    registry.value("emulator.slots")          # counters across the run
    registry.get("decoder.rank").value        # gauge: final decoder rank

Scopes nest: code that needs numbers of its own (a campaign job, one
decode trial) opens a scope of its own around that work, and the
enclosing registry comes back untouched on exit.

Collection also meters the GF(2^8) codec itself
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
    "get_registry",
    "resolve_tracer",
]

# The process-global registry.  Starts disabled: components built outside
# a collecting() scope get null instruments and nothing is recorded.
_global_registry = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The current process-global registry (disabled outside a scope)."""
    return _global_registry


def resolve_tracer(tracer: Optional[EventTracer]) -> EventTracer:
    """The tracer a component should use: explicit wins, else the null one."""
    return tracer if tracer is not None else NULL_TRACER


def _hook_codec(registry: MetricsRegistry) -> None:
    """Point the GF(2^8) kernels' byte meter at ``registry`` (or unhook).

    Imported lazily: ``repro.coding`` imports the decoder, which imports
    this package, so a module-level import here would be circular.
    """
    from repro.coding import gf256

    if registry.enabled:
        gf256.set_bytes_hook(
            registry.counter(
                "codec.bytes_processed",
                "bytes pushed through the GF(2^8) row kernels (encode + decode)",
            ).inc
        )
    else:
        gf256.set_bytes_hook(None)


@contextmanager
def collecting(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Collect into ``registry`` (default: a fresh one) for a ``with`` block.

    The previous global registry (enabled or not) comes back on exit with
    its instruments as they were, so nested scopes behave: what a scope
    recorded stays in its own registry.
    """
    global _global_registry
    previous = _global_registry
    active = registry if registry is not None else MetricsRegistry()
    if active.enabled:
        from repro.coding import backends  # lazily, as in _hook_codec

        # Resolved before the meter is hooked: the first resolution in a
        # process builds and self-tests the compiled field, and those
        # bytes are not the run's.  Tag the run with the field that
        # serves it (a 1-valued gauge per name, since metric values are
        # floats, not strings).
        active.gauge(
            f"codec.backend.{backends.best_backend_name()}",
            "GF(2^8) backend active when collection was enabled (1 = this one)",
        ).set(1)
    _global_registry = active
    _hook_codec(active)
    try:
        yield active
    finally:
        _global_registry = previous
        _hook_codec(previous)
