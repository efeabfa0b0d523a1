"""Event tracing for emulation runs.

A :class:`SessionTracer` records per-slot events — grants, transmissions,
deliveries, generation ACKs — into a bounded in-memory log that can be
queried, summarized, or exported as JSON lines.  Tracing is opt-in (a
session takes an optional tracer) so the hot path stays allocation-free
when it is off.

Typical use::

    tracer = SessionTracer(capacity=100_000)
    run_coded_session(..., tracer=tracer)
    tracer.summary()            # event counts by kind
    tracer.events(kind="ack")   # iterate selected events
    tracer.to_jsonl(path)       # export for offline analysis
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Tuple

EVENT_KINDS = (
    "grant", "tx", "delivery", "ack", "replan", "coding", "arrive", "depart"
)


@dataclass(frozen=True)
class TraceEvent:
    """One emulation event.

    Attributes:
        slot: slot index when the event occurred.
        time: emulated seconds.
        kind: one of :data:`EVENT_KINDS`.
        node: primary node (transmitter, or destination for acks; -1 for
            session-wide events like acks, replans and coding decisions).
        peer: secondary node (receiver for deliveries), or None.
        detail: free-form small payload (e.g. generation id for acks,
            the new generation size for coding decisions).
    """

    slot: int
    time: float
    kind: str
    node: int
    peer: int | None = None
    detail: int | None = None

    def as_dict(self) -> dict[str, int | float | str]:
        """JSON-compatible representation."""
        record = {
            "slot": self.slot,
            "time": round(self.time, 6),
            "kind": self.kind,
            "node": self.node,
        }
        if self.peer is not None:
            record["peer"] = self.peer
        if self.detail is not None:
            record["detail"] = self.detail
        return record


class SessionTracer:
    """Bounded event log for one emulation run.

    When ``capacity`` is exceeded the *oldest* events are dropped and
    :attr:`dropped` counts them — traces of long campaigns stay bounded
    while the most recent window (usually what you debug) survives.
    """

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self._capacity = capacity
        self._events: list[TraceEvent] = []
        self._start = 0  # logical index of the first retained event
        self.dropped = 0

    def record(
        self,
        slot: int,
        time: float,
        kind: str,
        node: int,
        peer: int | None = None,
        detail: int | None = None,
    ) -> None:
        """Append one event."""
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        self._events.append(TraceEvent(slot, time, kind, node, peer, detail))
        if len(self._events) > self._capacity:
            overflow = len(self._events) - self._capacity
            del self._events[:overflow]
            self.dropped += overflow

    def __len__(self) -> int:
        return len(self._events)

    def events(
        self,
        *,
        kind: str | None = None,
        node: int | None = None,
    ) -> Iterator[TraceEvent]:
        """Iterate retained events, optionally filtered."""
        for event in self._events:
            if kind is not None and event.kind != kind:
                continue
            if node is not None and event.node != node:
                continue
            yield event

    def summary(self) -> Dict[str, int]:
        """Event counts by kind (retained events only)."""
        counts = Counter(event.kind for event in self._events)
        return {kind: counts.get(kind, 0) for kind in EVENT_KINDS}

    def per_node_transmissions(self) -> Dict[int, int]:
        """Transmission counts per node from the retained window."""
        counts: Counter[int] = Counter()
        for event in self.events(kind="tx"):
            counts[event.node] += 1
        return dict(counts)

    def delivery_ratio(self) -> float:
        """Deliveries per transmission in the retained window."""
        summary = self.summary()
        if summary["tx"] == 0:
            return 0.0
        return summary["delivery"] / summary["tx"]

    def to_jsonl(self, path: str | Path) -> int:
        """Write retained events as JSON lines; returns the line count."""
        path = Path(path)
        with path.open("w") as handle:
            for event in self._events:
                handle.write(json.dumps(event.as_dict()) + "\n")
        return len(self._events)

    @staticmethod
    def read_jsonl(path: str | Path) -> Tuple[TraceEvent, ...]:
        """Load events previously written by :meth:`to_jsonl`."""
        events = []
        for line in Path(path).read_text().splitlines():
            record = json.loads(line)
            events.append(
                TraceEvent(
                    slot=record["slot"],
                    time=record["time"],
                    kind=record["kind"],
                    node=record["node"],
                    peer=record.get("peer"),
                    detail=record.get("detail"),
                )
            )
        return tuple(events)
