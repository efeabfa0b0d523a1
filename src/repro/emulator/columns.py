"""Flow runtimes as columns: an array core's flow-fidelity rows.

A core in the array form (:data:`~repro.emulator.engine.ARRAY_FORM_MIN_HOSTED`)
keeps the per-slot state of every hosted :class:`FlowSourceRuntime`,
:class:`FlowRelayRuntime` and :class:`FlowDestinationRuntime` in arrays it
owns, one row per hosted position, and runs a slot's per-runtime work over
all rows at once: the tick (credit, drain, drops, the contenders and their
lottery weights), queue sampling, the granted transmitters' pop and the
absorb at receivers.  Every other hosted runtime — ``Coded*``, the
multi-session composites — is an *object row*: its row here stays empty and
the core ticks it on its :class:`~repro.emulator.awake.AwakeSet`.

**Column ≡ object.**  Each array operation is the method it replaces, term
for term: the same float expressions in the same order (numpy's float64
arithmetic is Python's), the same integer counts, the same order of effects
within a runtime.  A row therefore holds, bit for bit, what its object would
hold had the object run the same slots, and the runtime classes stay the
one place behaviour is written.

**Row fallback.**  Whatever is not the slot's common case goes through the
object: the core stores the row into it, calls the existing method and
loads the row back (:meth:`through_objects`; ``install_plan`` and
``finalize`` only store).  That is every control call (``apply_events``,
``apply_plan``, ``install_plan``, ``finalize``), an arrival from another
core or from an object row, and the two rare branches of a reception — a
relay hearing a newer generation, a destination completing one — which
:meth:`absorb` leaves untouched and reports.  Only :meth:`store` builds
packet objects, and only :meth:`load` reads a runtime's settings.

**The queue is per-level counts.**  Everything a flow runtime queues carries
the current generation (a new one empties the queue), and within a
generation its content never decreases: a source's packets carry the
generation size, a relay's its information level, which only grows.  So
the FIFO head is the lowest non-empty level.

**Parking.**  Every row is ticked, awake or not: a parked row sits at an
exact fixed point of the tick (``NodeRuntime.dormant``), so ticking it
changes nothing.  The awake flags keep the awake set's meaning and cadence
— a row parks when a check every ``AwakeSet.PARK_INTERVAL`` ticks finds it
idle and dormant, and wakes on a delivery or a control call — because the
core reports its awake count (epochs, worker liveness) and its parked nodes
from them.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import repeat
from typing import FrozenSet, Iterator, List, Sequence, Tuple

import numpy as np

from repro.emulator.awake import AwakeSet
from repro.emulator.node import (
    FlowDestinationRuntime,
    FlowPacket,
    FlowRelayRuntime,
    FlowSourceRuntime,
    NodeRuntime,
)

#: Row roles, ``1 + `` the index of the runtime class in :data:`KINDS`; an
#: object row is role 0.
SOURCE, RELAY, DESTINATION = 1, 2, 3
KINDS = (FlowSourceRuntime, FlowRelayRuntime, FlowDestinationRuntime)

#: (column, runtime attribute) of the state a slot changes, per role: what
#: :meth:`Columns.store` writes back.  The broadcast queue comes on top.
_SENDER_STATE = (
    ("credit", "_credit"),
    ("generated", "packets_generated"),
    ("sent", "packets_sent"),
    ("dropped", "packets_dropped"),
)
_STATE = (
    (),
    _SENDER_STATE,
    _SENDER_STATE
    + (
        ("demand", "_demand_ewma"),
        ("enqueued", "_enqueued_this_slot"),
        ("information", "information"),
        ("heard", "packets_heard"),
        ("accepted", "packets_accepted"),
    ),
    (
        ("information", "information"),
        ("heard", "packets_heard"),
        ("accepted", "innovative_received"),
    ),
)
#: What only the control plane changes, per role: read by :meth:`Columns.load`.
_SETTINGS = (
    (),
    (("limit", "_queue_limit"),),
    (("limit", "_queue_limit"), ("tx_credit", "_tx_credit")),
    (),
)


class Columns:
    """The flow-fidelity rows of one core's hosted ``runtimes``.

    Rows are hosted positions; the public arrays are read by the core
    (``held``, ``queue``, ``generation``, ``session``) and by tests.
    """

    def __init__(self, runtimes: Sequence[NodeRuntime], dt: float) -> None:
        count = len(runtimes)
        self._runtimes = runtimes
        self._dt = dt
        self._ticks = 0
        self.role = np.zeros(count, dtype=np.int8)
        #: A relay's mode is "credit" (MORE/oldMORE).
        self.credit_mode = np.zeros(count, dtype=bool)
        #: ``rate * dt / packet_bytes``: a sender's rate credit per slot.
        self.increment = np.zeros(count)
        self.tx_credit = np.zeros(count)
        self.upstream: List[FrozenSet[int]] = [frozenset()] * count
        self.credit = np.zeros(count)
        #: A credit-mode relay's demand EWMA, its lottery weight.
        self.demand = np.zeros(count)
        self.enqueued = np.zeros(count)
        self.information = np.zeros(count)
        self.blocks = np.zeros(count, dtype=np.int64)
        self.generation = np.zeros(count, dtype=np.int64)
        self.session = np.zeros(count, dtype=np.int64)
        self.limit = np.zeros(count, dtype=np.int64)
        self.queue = np.zeros(count, dtype=np.int64)
        #: Queued packets per content level (see the module docstring).
        self.levels = np.zeros((count, 1), dtype=np.int64)
        self.generated = np.zeros(count, dtype=np.int64)
        self.sent = np.zeros(count, dtype=np.int64)
        self.dropped = np.zeros(count, dtype=np.int64)
        self.heard = np.zeros(count, dtype=np.int64)
        #: A relay's accepted packets, a destination's innovative ones.
        self.accepted = np.zeros(count, dtype=np.int64)
        self._layout: Tuple[np.ndarray, Sequence[int], np.ndarray] | None = None
        #: Counts the calls that may have replaced an array (``levels``,
        #: the masks ``load`` derives, the upstream mask): whoever holds
        #: pointers into them repoints when it moves.
        self.reallocations = 0
        self.load(np.flatnonzero([type(runtime) in KINDS for runtime in runtimes]))
        self.awake = self.held.copy()

    # -- rows and objects ------------------------------------------------

    def load(self, positions: np.ndarray) -> None:
        """Read the rows at ``positions`` from their runtime objects."""
        dt = self._dt
        indices = positions.tolist()
        for role, kind in enumerate(KINDS, 1):
            rows = [p for p in indices if type(self._runtimes[p]) is kind]
            if not rows:
                continue
            runtimes = [self._runtimes[p] for p in rows]
            self.role[rows] = role
            for column, attribute in (
                ("generation", "_generation_id"),
                ("blocks", "_blocks"),
                ("session", "session_id"),
                *_STATE[role],
                *_SETTINGS[role],
            ):
                getattr(self, column)[rows] = [getattr(r, attribute) for r in runtimes]
            if role == DESTINATION:
                continue
            self.increment[rows] = [r._rate * dt / r._packet_bytes for r in runtimes]
            self._widen(int(self.blocks[rows].max()) + 1)
            self.levels[rows] = 0
            width = self.levels.shape[1]
            for row, runtime in zip(rows, runtimes):
                queue = runtime._queue  # type: ignore[attr-defined]
                self.queue[row] = len(queue)
                if queue:
                    contents = [int(packet.content) for packet in queue]
                    self.levels[row] = np.bincount(contents, minlength=width)
            if role == RELAY:
                self.credit_mode[rows] = [r._mode == "credit" for r in runtimes]
                for row, runtime in zip(rows, runtimes):
                    self.upstream[row] = runtime._upstream  # type: ignore[attr-defined]
        self._classify()
        if self._layout is not None and (self.role[positions] == RELAY).any():
            self._align_upstream()  # a relay's mode or upstream set may have moved
        self.reallocations += 1

    def store(self, positions: np.ndarray) -> None:
        """Write the rows at ``positions`` into their runtime objects."""
        role_of = self.role[positions]
        for role in (SOURCE, RELAY, DESTINATION):
            rows = positions[role_of == role]
            if not rows.size:
                continue
            runtimes = [self._runtimes[p] for p in rows.tolist()]
            for column, attribute in _STATE[role]:
                for runtime, value in zip(runtimes, getattr(self, column)[rows].tolist()):
                    setattr(runtime, attribute, value)
            if role == DESTINATION:
                continue
            for runtime in runtimes:
                runtime._queue.clear()  # type: ignore[attr-defined]
            queued = rows[self.queue[rows] > 0]
            for position, session, generation, counts in zip(
                queued.tolist(),
                self.session[queued].tolist(),
                self.generation[queued].tolist(),
                self.levels[queued].tolist(),
            ):
                queue = self._runtimes[position]._queue  # type: ignore[attr-defined]
                for level, count in enumerate(counts):
                    if count:  # one packet object per level: nothing mutates a packet
                        queue.extend(repeat(FlowPacket(session, generation, float(level)), count))

    @contextmanager
    def through_objects(self, positions: np.ndarray) -> Iterator[None]:
        """The row fallback around a block that calls runtime objects.

        Inside the block the objects at ``positions`` hold what their
        rows hold; after it the rows hold what the objects do, and are
        awake.  Object rows among ``positions`` are left alone.
        """
        rows = positions[self.held[positions]]
        self.store(rows)
        try:
            yield
        finally:
            self.load(rows)
            self.wake(rows)

    def _widen(self, width: int) -> None:
        """Make room for queue levels up to ``width - 1``."""
        if width > self.levels.shape[1]:
            levels = np.zeros((len(self.levels), width), dtype=np.int64)
            levels[:, : self.levels.shape[1]] = self.levels
            self.levels = levels

    def _classify(self) -> None:
        """Derive the per-role masks the slot reads from roles and modes."""
        role = self.role
        #: Rows held here; the rest are object rows.
        self.held = role > 0
        self._source = role == SOURCE
        self._destination = role == DESTINATION
        relay = role == RELAY
        self._rate_relay = relay & ~self.credit_mode
        self._credit_rows = np.flatnonzero(relay & self.credit_mode)
        self._cap = np.where(self._rate_relay, FlowRelayRuntime._CREDIT_CAP, np.inf)
        # What the tick adds: sources and rate-mode relays earn rate credit.
        self._accrual = np.where(self._source | self._rate_relay, self.increment, 0.0)

    @property
    def rows(self) -> np.ndarray:
        """The positions held here, ascending."""
        return np.flatnonzero(self.held)

    def align_upstream(
        self, receivers: np.ndarray, nodes: Sequence[int], position_of: np.ndarray
    ) -> None:
        """Lay MORE's per-reception credit out along ``receivers``.

        ``receivers`` holds one row of receiver node ids per hosted
        transmitter position (the core's ``_rx_ids``); a cell is marked
        where that receiver is a credit-mode relay held here whose
        upstream set holds the transmitter.  ``nodes`` maps positions to
        node ids, ``position_of`` node ids to positions (-1: not hosted).
        The core calls this whenever ``receivers`` change; :meth:`load`
        lays the mask out again whenever it loads a relay.
        """
        self._layout = (receivers, nodes, position_of)
        self._align_upstream()
        self.reallocations += 1

    def _align_upstream(self) -> None:
        assert self._layout is not None
        receivers, nodes, position_of = self._layout
        self._upstream = np.zeros(receivers.shape, dtype=bool)
        for position in self._credit_rows.tolist():
            node = nodes[position]
            for sender in sorted(self.upstream[position]):
                row = int(position_of[sender])
                if row >= 0:
                    self._upstream[row] |= receivers[row] == node

    # -- the slot ---------------------------------------------------------

    def tick(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every row's ``on_slot``; the contenders and their weights.

        Returns the positions with a non-empty queue, ascending, and
        their ``demand_rate``.  Every ``PARK_INTERVAL``-th call also
        parks the awake rows that hold nothing and are dormant, as
        :meth:`AwakeSet.tick` does.
        """
        credit = self.credit
        credit += self._accrual
        np.minimum(credit, self._cap, out=credit)
        ready = np.flatnonzero((credit >= 1.0) & ((self.information >= 1.0) | self._source))
        if ready.size:
            self._drain(ready)
        credit_rows = self._credit_rows
        if credit_rows.size:
            demand = self.demand[credit_rows]
            demand += FlowRelayRuntime._DEMAND_SMOOTHING * (
                self.enqueued[credit_rows] - demand
            )
            self.demand[credit_rows] = demand
            self.enqueued[credit_rows] = 0.0
        contenders = np.flatnonzero(self.queue)
        weights = self.increment[contenders]
        if credit_rows.size:
            by_demand = self.credit_mode[contenders]
            weights[by_demand] = self.demand[contenders[by_demand]]
        self._ticks += 1
        if self._ticks % AwakeSet.PARK_INTERVAL == 0:
            self.awake &= ~((self.queue == 0) & self.dormant())
        return contenders, weights

    def dormant(self) -> np.ndarray:
        """``NodeRuntime.dormant`` of every row (False on object rows)."""
        credit = self.credit
        pinned = np.minimum(credit + self._accrual, self._cap) == credit
        spent = (credit < 1.0) | (self.information < 1.0)
        return self._destination | (self._rate_relay & (self.queue == 0) & pinned & spent)

    def _drain(self, rows: np.ndarray) -> None:
        """``_SenderRuntime._drain`` on ``rows`` (distinct): queue one
        packet per whole credit, shed what does not fit."""
        credit = self.credit
        make = np.trunc(credit[rows])
        credit[rows] -= make
        room = self.limit[rows] - self.queue[rows]
        over = make > room
        if over.any():
            self.dropped[rows[over]] += (make[over] - room[over]).astype(np.int64)
            make[over] = room[over]
        made = make.astype(np.int64)
        source = self.role[rows] == SOURCE
        level = np.where(source, self.blocks[rows], self.information[rows].astype(np.int64))
        self.levels[rows, level] += made
        self.queue[rows] += made
        self.generated[rows] += made
        self.enqueued[rows] += np.where(source, 0.0, make)

    def pop(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``pop_transmission`` on ``rows`` (distinct): which had a packet,
        and the content level of each one handed over."""
        has = self.queue[rows] > 0
        rows = rows[has]
        head = (self.levels[rows] > 0).argmax(axis=1)
        self.levels[rows, head] -= 1
        self.queue[rows] -= 1
        self.sent[rows] += 1
        return has, head

    def absorb(
        self,
        rows: np.ndarray,
        transmitters: np.ndarray,
        cells: np.ndarray,
        generation: np.ndarray,
        session: np.ndarray,
        content: np.ndarray,
    ) -> np.ndarray:
        """``on_receive`` at ``rows`` (distinct), one packet each.

        A packet is its ``generation``, ``session`` and ``content``, sent
        from the transmitter row of ``transmitters`` to the receiver in
        ``cells`` of that row (:meth:`align_upstream`).  Returns the mask
        of the rows left to the object path — a relay hearing a newer
        generation, a destination completing its own — which this call
        does not touch.
        """
        role = self.role[rows]
        relay = role == RELAY
        ours = self.generation[rows]
        current = generation == ours
        held = self.information[rows]
        blocks = self.blocks[rows]
        innovative = (content > held) & (held < blocks)
        fallback = relay & (generation > ours)
        if relay.all():
            heard = relay
        else:
            # A destination hears only its own session's current
            # generation; a source hears nothing.
            heard = relay | (
                (role == DESTINATION) & current & (session == self.session[rows])
            )
            fallback |= heard & ~relay & innovative & (held + 1.0 >= blocks)
        keep = ~fallback
        self.heard[rows[heard & keep]] += 1
        gains = heard & current & innovative & keep
        self.information[rows[gains]] = np.minimum(blocks, held + 1.0)[gains]
        self.accepted[rows[gains]] += 1
        if self._credit_rows.size:
            earned = rows[self._upstream[transmitters, cells] & keep]
            if earned.size:
                # MORE counts receptions from upstream, innovative or not.
                self.credit[earned] += self.tx_credit[earned]
                ready = (self.credit[earned] >= 1.0) & (self.information[earned] >= 1.0)
                if ready.any():
                    self._drain(earned[ready])
        return fallback

    def sample(self, queue_times: np.ndarray) -> None:
        """Add every row's queue length to its time integral (parked and
        object rows hold 0 here)."""
        queue_times += self.queue

    # -- awake flags --------------------------------------------------------

    def wake(self, positions: np.ndarray) -> None:
        """Flag the rows at ``positions`` awake (object rows' stay clear)."""
        self.awake[positions] = self.held[positions]

    def wake_everyone(self) -> None:
        np.copyto(self.awake, self.held)

    def awake_count(self) -> int:
        return int(np.count_nonzero(self.awake))

    def parked(self) -> np.ndarray:
        """Positions of the parked rows, ascending."""
        return np.flatnonzero(self.held & ~self.awake)
