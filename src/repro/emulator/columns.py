"""Flow and unicast runtimes as columns: a compiled core's rows.

A core on the compiled slot loop (:mod:`repro.emulator.native`) keeps the
per-slot state of every hosted :class:`FlowSourceRuntime`,
:class:`FlowRelayRuntime`, :class:`FlowDestinationRuntime` and
:class:`UnicastRuntime` in arrays it owns, one row per hosted position; the
kernel runs a slot's per-runtime work over them in place (``tick``,
``broadcast``, ``absorb`` in its source).  This class is only their
storage: it loads rows from the runtime objects and stores them back.

**Column ≡ object.**  The kernel's arithmetic on a row is the method it
replaces, term for term: the same float expressions in the same order, the
same integer counts, the same order of effects within a runtime.  A row
therefore holds, bit for bit, what its object would hold had the object run
the same slots, and the runtime classes stay the one place behaviour is
written.

**Row fallback.**  Whatever is not the slot's common case goes through the
object: the core stores the row into it, calls the existing method and
loads the row back (:meth:`through_objects`; ``install_plan`` and
``finalize`` only store).  That is every control call (``apply_events``,
``apply_plan``, ``install_plan``, ``finalize``), an arrival from another
core, the one rare branch of a reception — a relay hearing a newer
generation — which the kernel leaves untouched and hands back, and an
ACK while a row holds a deferred coding decision (``pending``); a
decode and its ACK otherwise stay rows.  Only :meth:`store` builds
packet objects, and only :meth:`load` reads a runtime's settings.

**The queue is per-level counts.**  Everything a flow runtime queues carries
the current generation (a new one empties the queue), and within a
generation its content never decreases: a source's packets carry the
generation size, a relay's its information level, which only grows.  So
the FIFO head is the lowest non-empty level.  A unicast row's FIFO of
sequence numbers is a ring per row.

**Parking.**  The kernel ticks every row, awake or not: a parked row sits
at an exact fixed point of the tick (``NodeRuntime.dormant``), so ticking
it changes nothing.  The awake flags keep the awake set's meaning and
cadence — a row parks when a check every ``AwakeSet.PARK_INTERVAL`` ticks
finds it idle and dormant, and wakes on a delivery or a control call —
because the core reports its awake count (epochs, worker liveness) and its
parked nodes from them.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import repeat
from typing import FrozenSet, Iterator, List, Sequence, Tuple

import numpy as np

from repro.emulator.node import (
    FlowDestinationRuntime,
    FlowPacket,
    FlowRelayRuntime,
    FlowSourceRuntime,
    NodeRuntime,
    UnicastRuntime,
)
from repro.topology.graph import WirelessNetwork

#: Row roles, ``1 + `` the index of the runtime class in :data:`KINDS`
#: (0: a runtime of no row kind, which no compiled core hosts).
SOURCE, RELAY, DESTINATION, UNICAST = 1, 2, 3, 4
KINDS = (FlowSourceRuntime, FlowRelayRuntime, FlowDestinationRuntime, UnicastRuntime)

#: (column, runtime attribute) of the state a slot changes, per role: what
#: :meth:`Columns.store` writes back.  The broadcast queue comes on top.
_SENDER_STATE = (
    ("credit", "_credit"),
    ("generated", "packets_generated"),
    ("sent", "packets_sent"),
    ("dropped", "packets_dropped"),
)
#: A coded role's generation (a unicast row has none).
_GENERATION = (("generation", "_generation_id"),)
_STATE = (
    (),
    _GENERATION + _SENDER_STATE,
    _GENERATION
    + _SENDER_STATE
    + (
        ("demand", "_demand_ewma"),
        ("enqueued", "_enqueued_this_slot"),
        ("information", "information"),
        ("heard", "packets_heard"),
        ("accepted", "packets_accepted"),
    ),
    _GENERATION
    + (
        ("information", "information"),
        ("heard", "packets_heard"),
        ("accepted", "innovative_received"),
        ("decoded", "generations_decoded"),
        ("decoded_blocks", "blocks_decoded"),
    ),
    _SENDER_STATE + (("accepted", "packets_delivered"), ("next_seq", "_next_seq")),
)
#: What only the control plane changes, per role: read by :meth:`Columns.load`.
_SETTINGS = (
    (),
    (("blocks", "_blocks"), ("limit", "_queue_limit")),
    (("blocks", "_blocks"), ("limit", "_queue_limit"), ("tx_credit", "_tx_credit")),
    (("blocks", "_blocks"),),
    (("limit", "_queue_limit"),),
)


class Columns:
    """The rows of one core's hosted ``runtimes``.

    Rows are hosted positions; the public arrays are read by the core
    (``held``, ``queue``) and by tests.
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
        #: A relay's accepted packets, a destination's innovative ones, a
        #: unicast sink's delivered ones.
        self.accepted = np.zeros(count, dtype=np.int64)
        #: A destination's decoded generations, and their blocks.
        self.decoded = np.zeros(count, dtype=np.int64)
        self.decoded_blocks = np.zeros(count, dtype=np.int64)
        #: A coded row holds a deferred coding decision (its ACK is the object's).
        self.pending = np.zeros(count, dtype=bool)
        # Unicast rows (the ETX FIFO): ``increment`` holds their lottery
        # weight, ``demand_hint * dt / packet_bytes``; ``arrival`` their
        # offered load, ``rate * dt / packet_bytes``, earned only while
        # ``offered`` (rate > 0).  The next hop is a node id (-1: the
        # sink), its delivery probability and its cell along the core's
        # receiver row (:meth:`align`; -1: not a hosted neighbour).
        self.arrival = np.zeros(count)
        self.offered = np.zeros(count, dtype=bool)
        self.next_hop = np.full(count, -1, dtype=np.int64)
        self.hop_p = np.zeros(count)
        self._hop_cell = np.full(count, -1, dtype=np.int64)
        self.next_seq = np.zeros(count, dtype=np.int64)
        #: The FIFO of sequence numbers: row ``r``'s ring is
        #: ``ring[ring_ptr[r]:ring_ptr[r + 1]]``, its head at ``head[r]``
        #: and ``queue[r]`` entries long.
        self.ring_ptr = np.zeros(count + 1, dtype=np.int64)
        self.ring = np.zeros(0, dtype=np.int64)
        self.head = np.zeros(count, dtype=np.int64)
        self._layout: Tuple[np.ndarray, Sequence[int], np.ndarray] | None = None
        self._network: WirelessNetwork | None = None
        #: Counts the calls that may have replaced an array (``levels``,
        #: the masks ``load`` derives, the upstream mask): whoever holds
        #: pointers into them repoints when it moves.
        self.reallocations = 0
        self.load(np.arange(count))
        self.awake = np.ones(count, dtype=bool)

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
            for column, attribute in (("session", "session_id"), *_STATE[role], *_SETTINGS[role]):
                getattr(self, column)[rows] = [getattr(r, attribute) for r in runtimes]
            if role == UNICAST:
                self._load_unicast(rows, runtimes)
                continue
            self.pending[rows] = [
                r._pending_coding is not None for r in runtimes  # type: ignore[attr-defined]
            ]
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
        if self._layout is not None:
            loaded = self.role[positions]
            if (loaded == RELAY).any():
                self._align_upstream()  # a relay's mode or upstream set may have moved
            if (loaded == UNICAST).any():
                self._align_hops()  # and a unicast row's next hop
        self.reallocations += 1

    def _load_unicast(self, rows: List[int], held: Sequence[NodeRuntime]) -> None:
        """The settings and the FIFO of unicast ``rows``."""
        dt = self._dt
        runtimes = [r for r in held if isinstance(r, UnicastRuntime)]  # all of them
        self.increment[rows] = [r._demand_hint * dt / r._packet_bytes for r in runtimes]
        self.arrival[rows] = [r._rate * dt / r._packet_bytes for r in runtimes]
        self.offered[rows] = [r._rate > 0 for r in runtimes]
        self.next_hop[rows] = [-1 if r.next_hop is None else r.next_hop for r in runtimes]
        queues = [list(r._queue) for r in runtimes]
        self._make_room(rows, [max(r._queue_limit, len(q), 0) for r, q in zip(runtimes, queues)])
        for row, queue in zip(rows, queues):
            start = int(self.ring_ptr[row])
            self.ring[start : start + len(queue)] = queue
            self.head[row] = 0
            self.queue[row] = len(queue)

    def _make_room(self, rows: List[int], sizes: List[int]) -> None:
        """Rings of at least ``sizes`` at ``rows``: a new layout, the other
        rows' FIFOs kept, if one is short (a fresh core lays out once)."""
        room = np.diff(self.ring_ptr)
        if (room[rows] >= sizes).all():
            return
        kept = [(row, self._fifo(row)) for row in np.flatnonzero(self.role == UNICAST).tolist()]
        room[rows] = np.maximum(room[rows], sizes)
        self.ring_ptr[1:] = np.cumsum(room)
        self.ring = np.zeros(int(self.ring_ptr[-1]), dtype=np.int64)
        for row, queue in kept:
            start = int(self.ring_ptr[row])
            self.ring[start : start + len(queue)] = queue
            self.head[row] = 0

    def _fifo(self, row: int) -> List[int]:
        """Unicast row ``row``'s queued sequence numbers, head first."""
        start, end = self.ring_ptr[row : row + 2].tolist()
        at = (int(self.head[row]) + np.arange(int(self.queue[row]))) % max(end - start, 1)
        return self.ring[start + at].tolist()

    def store(self, positions: np.ndarray) -> None:
        """Write the rows at ``positions`` into their runtime objects."""
        role_of = self.role[positions]
        for role in (SOURCE, RELAY, DESTINATION, UNICAST):
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
            if role == UNICAST:
                for runtime, row in zip(runtimes, rows.tolist()):
                    runtime._queue.extend(self._fifo(row))  # type: ignore[attr-defined]
                continue
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
        awake.
        """
        self.store(positions)
        try:
            yield
        finally:
            self.load(positions)
            self.awake[positions] = True

    def _widen(self, width: int) -> None:
        """Make room for queue levels up to ``width - 1``."""
        if width > self.levels.shape[1]:
            levels = np.zeros((len(self.levels), width), dtype=np.int64)
            levels[:, : self.levels.shape[1]] = self.levels
            self.levels = levels

    def _classify(self) -> None:
        """Derive the per-role masks the slot reads from roles and modes."""
        role = self.role
        self._source = role == SOURCE
        self._destination = role == DESTINATION
        relay = role == RELAY
        self._rate_relay = relay & ~self.credit_mode
        self._credit_rows = np.flatnonzero(relay & self.credit_mode)
        self._unicast_rows = np.flatnonzero(role == UNICAST)
        self._cap = np.where(self._rate_relay, FlowRelayRuntime._CREDIT_CAP, np.inf)
        # What the tick adds: sources and rate-mode relays earn rate credit.
        self._accrual = np.where(self._source | self._rate_relay, self.increment, 0.0)

    def align(
        self,
        receivers: np.ndarray,
        nodes: Sequence[int],
        position_of: np.ndarray,
        network: WirelessNetwork,
    ) -> None:
        """Lay MORE's per-reception credit and the unicast next hops out
        along ``receivers``, over ``network``'s links.

        ``receivers`` holds one row of receiver node ids per hosted
        transmitter position (the core's ``_rx_ids``); a cell is marked
        where that receiver is a credit-mode relay held here whose
        upstream set holds the transmitter, and a unicast row's next hop
        is found in its row.  ``nodes`` maps positions to node ids,
        ``position_of`` node ids to positions (-1: not hosted).  The core
        calls this whenever ``receivers`` or ``network`` change;
        :meth:`load` lays a relay's mask and a unicast row's hop out
        again whenever it loads one.
        """
        self._layout = (receivers, nodes, position_of)
        self._network = network
        self._align_upstream()
        self._align_hops()
        self.reallocations += 1

    def _align_hops(self) -> None:
        assert self._layout is not None and self._network is not None
        receivers, nodes, _position_of = self._layout
        network = self._network
        for row in self._unicast_rows.tolist():
            hop = int(self.next_hop[row])
            if hop >= network.node_count:
                raise ValueError(f"node {nodes[row]}: next hop {hop} is not a node")
            cells = np.flatnonzero(receivers[row] == hop)  # none for the sink's -1
            self._hop_cell[row] = cells[0] if len(cells) else -1
            self.hop_p[row] = network.probability(nodes[row], hop) if hop >= 0 else 0.0

    def _align_upstream(self) -> None:
        # A cell is marked where its receiver is a credit row whose upstream
        # set holds the cell's transmitter: sorted (transmitter, receiver
        # row) pairs, one integer each, looked up for every cell at once.
        assert self._layout is not None
        receivers, nodes, position_of = self._layout
        count = len(nodes)
        pairs = [s * count + r for r in self._credit_rows.tolist() for s in self.upstream[r]]
        self._upstream = np.zeros(receivers.shape, dtype=bool)
        if pairs:
            keys = np.sort(pairs)
            at = position_of[receivers]  # the receiver's row, -1 where none
            cells = np.asarray(nodes)[:, None] * count + at
            found = keys[np.searchsorted(keys, cells).clip(max=len(keys) - 1)]
            self._upstream = (at >= 0) & (found == cells)

    # -- awake flags --------------------------------------------------------

    def awake_count(self) -> int:
        return int(np.count_nonzero(self.awake))

    def parked(self) -> np.ndarray:
        """Positions of the parked rows, ascending."""
        return np.flatnonzero(~self.awake)
