"""Counters, gauges, histograms and the registry that holds them.

The observability layer follows one rule: **when collection is off, the
instrumented code must pay (almost) nothing**.  Components therefore
resolve their instruments *once*, at construction time, and the registry
hands back shared no-op singletons when it is disabled.  The per-event
cost on a cold path is then a single bound-method call that immediately
returns — cheap enough to leave in the emulator slot loop and the
Gauss-Jordan elimination kernel permanently.

Three instrument kinds cover everything the experiments need:

* :class:`Counter` — monotone event/byte counts (packets sent, bytes
  encoded);
* :class:`Gauge` — last-value samples (decoder rank, virtual time,
  current step size);
* :class:`Histogram` — bounded-reservoir distributions with exact
  percentiles over the retained sample (queue depths, decode overhead).

Components *attach* to a :class:`MetricsRegistry` through
:meth:`MetricsRegistry.attach`, which returns a scoped view prefixing
every metric name (``attach("decoder")`` then ``counter("innovative")``
creates ``decoder.innovative``); :meth:`MetricsRegistry.detach` drops a
component's metrics wholesale.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Type, TypeVar, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Instrument",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
]


class Instrument:
    """Base class: a named instrument that can render itself to a dict."""

    kind = "instrument"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description

    @property
    def enabled(self) -> bool:
        """False only on the shared null instruments."""
        return True

    def as_dict(self) -> dict:
        raise NotImplementedError


class Counter(Instrument):
    """Monotonically increasing count (events, packets, bytes)."""

    kind = "counter"

    def __init__(self, name: str, description: str = "") -> None:
        super().__init__(name, description)
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current total."""
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self._value += amount

    def as_dict(self) -> dict:
        return {"kind": self.kind, "value": self._value}


class Gauge(Instrument):
    """Last-value instrument (queue depth, rank, step size)."""

    kind = "gauge"

    def __init__(self, name: str, description: str = "") -> None:
        super().__init__(name, description)
        self._value = 0.0
        self._updates = 0

    @property
    def value(self) -> float:
        """Most recently set value."""
        return self._value

    @property
    def updates(self) -> int:
        """How many times the gauge has been set."""
        return self._updates

    def set(self, value: float) -> None:
        """Record the current level."""
        self._value = float(value)
        self._updates += 1

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the level relatively (negative amounts allowed)."""
        self._value += amount
        self._updates += 1

    def as_dict(self) -> dict:
        return {"kind": self.kind, "value": self._value, "updates": self._updates}


class Histogram(Instrument):
    """Distribution with exact percentiles over a bounded reservoir.

    ``count``/``sum``/``min``/``max`` are exact over *all* observations;
    percentiles are computed over the most recent ``max_samples`` values
    (the reservoir is a ring buffer, so long campaigns stay bounded while
    the recent window — usually what a regression check reads — stays
    exact).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        description: str = "",
        *,
        max_samples: int = 10_000,
    ) -> None:
        if max_samples <= 0:
            raise ValueError(f"max_samples must be > 0, got {max_samples}")
        super().__init__(name, description)
        self._max_samples = max_samples
        self._samples: List[float] = []
        self._next = 0  # ring-buffer write position once full
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    @property
    def count(self) -> int:
        """Total observations (including evicted ones)."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observations."""
        return self._sum

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self._sum / self._count if self._count else 0.0

    @property
    def minimum(self) -> float:
        """Smallest observation (inf when empty)."""
        return self._min

    @property
    def maximum(self) -> float:
        """Largest observation (-inf when empty)."""
        return self._max

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._store(value)

    def _store(self, value: float) -> None:
        """Place one value in the reservoir without touching the totals."""
        if len(self._samples) < self._max_samples:
            self._samples.append(value)
        else:
            self._samples[self._next] = value
            self._next = (self._next + 1) % self._max_samples

    def absorb(self, record: dict) -> None:
        """Fold a rendered histogram dict (see :meth:`as_dict`) into this one.

        Exact for ``count`` / ``sum`` / ``min`` / ``max``; the record's
        retained ``samples`` (present when the snapshot was taken with
        ``include_samples=True``) join this reservoir, so percentiles of
        the merged histogram cover both sides' retained windows.  This
        is how per-worker registries from parallel campaign jobs fold
        back into the parent registry.
        """
        count = int(record.get("count", 0))
        if count <= 0:
            return
        self._count += count
        self._sum += float(record.get("sum", 0.0))
        if "min" in record and float(record["min"]) < self._min:
            self._min = float(record["min"])
        if "max" in record and float(record["max"]) > self._max:
            self._max = float(record["max"])
        for value in record.get("samples", ()):
            self._store(float(value))

    def samples(self) -> List[float]:
        """Copy of the retained reservoir (arbitrary order)."""
        return list(self._samples)

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile ``p`` in [0, 100] of the reservoir."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            raise ValueError(f"histogram {self.name!r} has no samples")
        ordered = sorted(self._samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100.0) * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return ordered[low]
        fraction = rank - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    def as_dict(self, *, include_samples: bool = False) -> dict:
        record = {
            "kind": self.kind,
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
        }
        if self._count:
            record["min"] = self._min
            record["max"] = self._max
            record["p50"] = self.percentile(50)
            record["p90"] = self.percentile(90)
            record["p99"] = self.percentile(99)
            if include_samples:
                record["samples"] = list(self._samples)
        return record


class _NullCounter(Counter):
    """Shared no-op counter handed out by disabled registries."""

    def __init__(self) -> None:
        super().__init__("null", "disabled")

    @property
    def enabled(self) -> bool:
        return False

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    """Shared no-op gauge handed out by disabled registries."""

    def __init__(self) -> None:
        super().__init__("null", "disabled")

    @property
    def enabled(self) -> bool:
        return False

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    """Shared no-op histogram handed out by disabled registries."""

    def __init__(self) -> None:
        super().__init__("null", "disabled")

    @property
    def enabled(self) -> bool:
        return False

    def observe(self, value: float) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()

_InstrumentT = TypeVar("_InstrumentT", bound=Instrument)


class MetricsRegistry:
    """Named instrument store components attach to.

    A disabled registry (``enabled=False``) hands out the shared null
    instruments from :meth:`counter`/:meth:`gauge`/:meth:`histogram`, so
    instrumented constructors can resolve unconditionally and the hot
    path never branches on a flag.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self._enabled = enabled
        self._instruments: Dict[str, Instrument] = {}

    @property
    def enabled(self) -> bool:
        """Whether this registry records anything at all."""
        return self._enabled

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def names(self) -> List[str]:
        """Sorted names of all registered instruments."""
        return sorted(self._instruments)

    def _get_or_create(
        self, cls: Type[_InstrumentT], name: str, description: str, **kwargs: Any
    ) -> _InstrumentT:
        if not name:
            raise ValueError("instrument name must be non-empty")
        existing = self._instruments.get(name)
        if existing is not None:
            if isinstance(existing, cls) and type(existing) is cls:
                return existing
            raise TypeError(
                f"metric {name!r} already registered as {existing.kind}"
            )
        instrument = cls(name, description, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, description: str = "") -> Counter:
        """Get or create the counter ``name``."""
        if not self._enabled:
            return NULL_COUNTER
        return self._get_or_create(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        """Get or create the gauge ``name``."""
        if not self._enabled:
            return NULL_GAUGE
        return self._get_or_create(Gauge, name, description)

    def histogram(
        self, name: str, description: str = "", *, max_samples: int = 10_000
    ) -> Histogram:
        """Get or create the histogram ``name``."""
        if not self._enabled:
            return NULL_HISTOGRAM
        return self._get_or_create(
            Histogram, name, description, max_samples=max_samples
        )

    def get(self, name: str) -> Instrument:
        """Look up a registered instrument; raises ``KeyError`` if absent."""
        return self._instruments[name]

    def value(self, name: str, default: float = 0.0) -> float:
        """Convenience: a counter/gauge value, ``default`` when absent."""
        instrument = self._instruments.get(name)
        if instrument is None:
            return default
        if isinstance(instrument, (Counter, Gauge)):
            return instrument.value
        raise TypeError(f"metric {name!r} is a {instrument.kind}, not a scalar")

    def attach(self, component: str) -> "ScopedRegistry":
        """A scoped view for ``component``: names get ``component.`` prefixed."""
        if not component:
            raise ValueError("component name must be non-empty")
        return ScopedRegistry(self, component)

    def detach(self, component: str) -> int:
        """Drop every metric under ``component.``; returns how many."""
        prefix = component + "."
        doomed = [n for n in self._instruments if n.startswith(prefix)]
        for name in doomed:
            del self._instruments[name]
        return len(doomed)

    def snapshot(
        self, prefix: Optional[str] = None, *, include_samples: bool = False
    ) -> Dict[str, dict]:
        """All (or ``prefix``-selected) instruments rendered to plain dicts.

        ``include_samples`` adds each histogram's retained reservoir to
        its dict, making the snapshot losslessly mergeable with
        :meth:`merge_snapshot` — the form campaign worker processes ship
        back to the parent.
        """
        return {
            name: (
                instrument.as_dict(include_samples=True)
                if include_samples and isinstance(instrument, Histogram)
                else instrument.as_dict()
            )
            for name, instrument in sorted(self._instruments.items())
            if prefix is None or name.startswith(prefix)
        }

    def merge_snapshot(self, snapshot: Dict[str, dict]) -> None:
        """Fold another registry's rendered snapshot into this one.

        Counters add, gauges keep the incoming value (last-merge wins),
        histograms absorb totals and retained samples (see
        :meth:`Histogram.absorb`).  Merging is deterministic: iterate
        snapshots in a fixed order (the campaign driver merges in
        session-index order) and the result is independent of how the
        work was scheduled.  No-op on a disabled registry.
        """
        if not self._enabled:
            return
        for name, record in sorted(snapshot.items()):
            kind = record.get("kind")
            if kind == "counter":
                self.counter(name).inc(float(record.get("value", 0.0)))
            elif kind == "gauge":
                self.gauge(name).set(float(record.get("value", 0.0)))
            elif kind == "histogram":
                self.histogram(name).absorb(record)

    def to_json(self, path: Union[str, Path]) -> None:
        """Write :meth:`snapshot` as pretty-printed JSON."""
        Path(path).write_text(json.dumps(self.snapshot(), indent=2) + "\n")

    def reset(self) -> None:
        """Forget every instrument (fresh run on a reused registry)."""
        self._instruments.clear()


class ScopedRegistry:
    """A component's view of a registry: every name gets a prefix.

    Obtained from :meth:`MetricsRegistry.attach`; forwards to the parent
    so scoped and unscoped lookups of the same full name share one
    instrument.
    """

    def __init__(self, parent: MetricsRegistry, prefix: str) -> None:
        self._parent = parent
        self._prefix = prefix

    @property
    def enabled(self) -> bool:
        """Mirrors the parent registry."""
        return self._parent.enabled

    @property
    def prefix(self) -> str:
        """The component prefix (without the trailing dot)."""
        return self._prefix

    def _full(self, name: str) -> str:
        return f"{self._prefix}.{name}"

    def counter(self, name: str, description: str = "") -> Counter:
        return self._parent.counter(self._full(name), description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._parent.gauge(self._full(name), description)

    def histogram(
        self, name: str, description: str = "", *, max_samples: int = 10_000
    ) -> Histogram:
        return self._parent.histogram(
            self._full(name), description, max_samples=max_samples
        )

    def get(self, name: str) -> Instrument:
        return self._parent.get(self._full(name))

    def detach(self) -> int:
        """Remove every metric this scope created."""
        return self._parent.detach(self._prefix)
