"""The awake set: which runtime objects a slot still has to visit.

A slot costs what is awake, not what exists.  Most runtimes of a large
session are silent most of the time — relays downstream of the wave
front, every relay right after an ACK reset its buffer, every
destination, every session that has not arrived yet — and a silent
runtime at an exact fixed point (:meth:`NodeRuntime.dormant`) does
nothing when ticked: no field moves, it does not contend, it holds no
queue.  Skipping it is therefore unobservable: no RNG stream, float
accumulator, trace event or stats field can tell the difference.

:class:`AwakeSet` keeps the positions (indices into a fixed runtime
list) that are awake, in ascending order, and is the per-object sweep
of the slot loop (:class:`~repro.emulator.engine.EngineCore`): the
tick, the contender scan and the queue sampling of every runtime a
scalar core hosts; a compiled core's runtimes are columns that keep the
same flags (:mod:`repro.emulator.columns`).  Runtimes leave the set when
:meth:`tick` finds them dormant and come back through :meth:`wake` (a
delivery) or :meth:`wake_everyone` (anything that reaches into runtimes
from outside the loop).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.emulator.node import NodeRuntime


class AwakeSet:
    """Sorted awake positions plus parked flags over ``count`` runtimes,
    of which ``members`` (default: all) are swept."""

    #: Slots between park checks.  A check costs one ``dormant`` call
    #: per idle awake runtime, so it is spread over a few slots; a
    #: runtime that became dormant stays awake (and is ticked to no
    #: effect) for at most this many extra slots.
    PARK_INTERVAL = 4

    def __init__(self, count: int, members: Sequence[int] | None = None) -> None:
        self._parked: List[bool] = [False] * count
        self._members = list(range(count)) if members is None else list(members)
        #: The positions the next sweep visits (ascending once swept).
        self.positions: List[int] = list(self._members)
        self._sorted = True
        self._ticks = 0

    def wake(self, position: int) -> None:
        """Put one runtime back in the sweep (no-op if already awake)."""
        if self._parked[position]:
            self._parked[position] = False
            self.positions.append(position)
            self._sorted = False

    def wake_everyone(self) -> None:
        """Put every member back in the sweep."""
        if len(self.positions) != len(self._members):
            self._parked = [False] * len(self._parked)
            self.positions = list(self._members)
            self._sorted = True

    def parked_positions(self) -> List[int]:
        """Positions currently skipped, ascending."""
        return [i for i, parked in enumerate(self._parked) if parked]

    def tick(
        self, runtimes: Sequence[NodeRuntime], dt: float
    ) -> Tuple[List[int], List[float]]:
        """Advance every awake runtime one slot; return the contenders.

        Returns the positions with positive backlog, ascending, and
        their scheduling weights (``demand_rate``) in the same order.
        Every ``PARK_INTERVAL``-th call additionally parks the awake
        runtimes that are idle and report ``dormant``.
        """
        if not self._sorted:
            self.positions.sort()
            self._sorted = True
        self._ticks += 1
        check = self._ticks % self.PARK_INTERVAL == 0
        parked = self._parked
        parked_any = False
        contenders: List[int] = []
        weights: List[float] = []
        for position in self.positions:
            runtime = runtimes[position]
            runtime.on_slot(dt)
            if runtime.backlog() > 0.0:
                contenders.append(position)
                weights.append(runtime.demand_rate(dt))
            elif check and runtime.dormant(dt):
                parked[position] = True
                parked_any = True
        if parked_any:
            self.positions = [p for p in self.positions if not parked[p]]
        return contenders, weights

    def sample_queues(
        self, runtimes: Sequence[NodeRuntime], queue_times: List[float]
    ) -> None:
        """Add each awake runtime's queue length to its time integral.

        Parked runtimes hold an empty queue by contract, so their
        integrals need no visit.
        """
        for position in self.positions:
            queue_times[position] += runtimes[position].queue_length()
