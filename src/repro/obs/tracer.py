"""Structured event tracing with JSON-lines export.

Where :mod:`repro.obs.metrics` aggregates, the tracer keeps *individual*
events: one :class:`TraceRecord` per occurrence, carrying a kind, a
monotonically increasing sequence number, and arbitrary scalar fields.
One log serves every layer: the optimizer's dual-price trajectories
(``rate_control.iteration`` per Table 1 iteration — the raw material of
the paper's Fig. 1) and the emulator's packet-level events (``grant``,
``tx``, ``delivery``, ``ack``, ``replan``, ``coding``, ``arrive``,
``depart``, each with ``slot``, ``time`` and ``node``; ``peer`` and
``detail`` where they say something).

The log is bounded: past ``capacity`` the oldest records are dropped and
counted, so tracing a paper-scale campaign cannot exhaust memory while
the recent window stays intact.  Tracing is off where no tracer is
given (``tracer=None``): producers test for ``None`` and emit nothing.

Typical use::

    tracer = EventTracer()
    run_coded_session(..., tracer=tracer)
    tracer.summary()                        # record counts by kind
    tracer.records(kind="tx", node=3)       # list the selected records
    tracer.to_jsonl(path)                   # export for offline analysis
    trace_digest(EventTracer.read_jsonl(path)) == trace_digest(tracer)
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter as TallyCounter
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Tuple, Union, cast

__all__ = ["EventTracer", "TraceRecord", "trace_digest"]


@dataclass(frozen=True)
class TraceRecord:
    """One traced event.

    Attributes:
        seq: 0-based global sequence number (survives eviction — the
            first retained record of a saturated tracer has seq > 0).
        kind: event type, a free-form dotted string
            (e.g. ``"rate_control.iteration"``).
        fields: scalar payload (numbers / strings / bools).
    """

    seq: int
    kind: str
    fields: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-compatible representation."""
        record = {"seq": self.seq, "kind": self.kind}
        record.update(self.fields)
        return record

    @staticmethod
    def from_dict(record: dict) -> "TraceRecord":
        """Inverse of :meth:`as_dict`."""
        payload = {
            key: value
            for key, value in record.items()
            if key not in ("seq", "kind")
        }
        return TraceRecord(seq=record["seq"], kind=record["kind"], fields=payload)


class EventTracer:
    """Bounded structured event log; iterating it yields the retained
    records, oldest first."""

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self._capacity = capacity
        self._records: Deque[TraceRecord] = deque(maxlen=capacity)
        self._seq = 0

    @property
    def capacity(self) -> int:
        """Maximum retained records."""
        return self._capacity

    @property
    def dropped(self) -> int:
        """Records evicted so far, oldest first."""
        return self._seq - len(self._records)

    def emit(self, kind: str, **fields: object) -> None:
        """Record one event with scalar ``fields``; a full log drops its
        oldest record."""
        if not kind:
            raise ValueError("event kind must be non-empty")
        self._records.append(TraceRecord(self._seq, kind, fields))
        self._seq += 1

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def records(
        self, *, kind: Optional[str] = None, **where: object
    ) -> List[TraceRecord]:
        """The retained records, optionally filtered by kind and by field
        values (``records(kind="tx", node=3)``), as a list: a result can
        be iterated as often as the caller likes."""
        return [
            record
            for record in self._records
            if (kind is None or record.kind == kind)
            and all(
                name in record.fields and record.fields[name] == value
                for name, value in where.items()
            )
        ]

    def last(self, kind: Optional[str] = None) -> Optional[TraceRecord]:
        """Most recent (matching) record, or None."""
        for record in reversed(self._records):
            if kind is None or record.kind == kind:
                return record
        return None

    def summary(self) -> Dict[str, int]:
        """Retained record counts per kind."""
        return dict(TallyCounter(record.kind for record in self._records))

    def series(self, kind: str, field_name: str) -> List[float]:
        """One field's values across all retained records of ``kind``.

        Records missing the field are skipped — this is how experiment
        code pulls a trajectory (e.g. ``lambda_max`` per iteration) out
        of the trace without touching the optimizer's internals.
        """
        values: List[float] = []
        for record in self.records(kind=kind):
            if field_name in record.fields:
                values.append(cast(float, record.fields[field_name]))
        return values

    def to_jsonl(self, path: Union[str, Path]) -> int:
        """Write retained records as JSON lines (floats in full); returns
        the line count."""
        path = Path(path)
        with path.open("w") as handle:
            for record in self._records:
                handle.write(json.dumps(record.as_dict()) + "\n")
        return len(self._records)

    @staticmethod
    def read_jsonl(path: Union[str, Path]) -> Tuple[TraceRecord, ...]:
        """Load records previously written by :meth:`to_jsonl`."""
        records = []
        for line in Path(path).read_text().splitlines():
            if line.strip():
                records.append(TraceRecord.from_dict(json.loads(line)))
        return tuple(records)


def trace_digest(records: Iterable[TraceRecord]) -> str:
    """Canonical SHA-256 digest of a record sequence — a tracer's
    retained records, or what :meth:`EventTracer.read_jsonl` read back:
    each record's kind and fields, floats by ``repr``, ``seq`` left out."""
    canonical = []
    for record in records:
        entry: Dict[str, object] = {"kind": record.kind}
        for name, value in record.fields.items():
            entry[name] = repr(value) if isinstance(value, float) else value
        canonical.append(entry)
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
