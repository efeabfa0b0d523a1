"""In-memory span recorder for the traced benchmark run.

A span is ``(name, start, end, parent, workload)``: the recorder keeps
them in a list while the workload runs and hands them out when the run
ends, so recording costs two clock reads and one list append per span
and never touches a file.  Span names start with the ``src/repro``
package they bracket (``emulator.``, ``coding.``, ...), which is what
:meth:`SpanRecorder.layer_self_times` aggregates on.

The workloads bracket their calls unconditionally; untraced repetitions
pass :data:`NULL_RECORDER`, whose ``span`` is an empty context manager.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List


class SpanRecorder:
    """Records nested spans of one workload (single-threaded)."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        # [name, start, end, parent index or None]
        self._spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Bracket a call; the enclosing open span becomes the parent."""
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self._spans))
        self._spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span timed elsewhere (same ``perf_counter`` clock)."""
        parent = self._stack[-1] if self._stack else None
        self._spans.append([name, start, end, parent])

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus the part child spans cover."""
        covered = [0.0] * len(self._spans)
        for _name, start, end, parent in self._spans:
            if parent is not None:
                covered[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (name, start, end, _parent) in enumerate(self._spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - covered[index]
        return totals

    def layer_self_times(self) -> Dict[str, float]:
        """Self time summed per layer (the span name up to the first dot)."""
        layers: Dict[str, float] = {}
        for name, seconds in self.self_times().items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + seconds
        return layers

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start for n, start, end, _p in self._spans if n == name)

    def as_dicts(self) -> List[dict]:
        """The spans in recording order, ready for ``json.dump``."""
        return [
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "workload": self.workload,
            }
            for name, start, end, parent in self._spans
        ]


class _NullRecorder(SpanRecorder):
    """Records nothing; what untraced repetitions are handed."""

    def __init__(self) -> None:
        super().__init__("")

    def span(self, name: str):  # type: ignore[override]
        return nullcontext()

    def add(self, name: str, start: float, end: float) -> None:
        return None


NULL_RECORDER: SpanRecorder = _NullRecorder()

