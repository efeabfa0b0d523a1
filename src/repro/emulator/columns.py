"""Flow, exact and unicast runtimes as columns: a compiled core's rows.

A core on the compiled slot loop (:mod:`repro.emulator.native`) keeps the
per-slot state of every hosted :class:`FlowSourceRuntime`,
:class:`FlowRelayRuntime`, :class:`FlowDestinationRuntime`, their exact
twins :class:`CodedSourceRuntime`, :class:`CodedRelayRuntime` and
:class:`CodedDestinationRuntime`, and :class:`UnicastRuntime` in arrays
it owns, one row per runtime.  A hosted position is one row, or — a
:class:`MultiSessionNodeRuntime` or :class:`InterSessionXorRelay` — one
row per session it hosts, active or not, in ascending session order; the
kernel runs a slot's per-runtime work over them in place (``tick``,
``pop``, ``receive`` in its source).  This class is only their storage:
it loads rows from the runtime objects and stores them back.

**Column ≡ object.**  The kernel's arithmetic on a row is the method it
replaces, term for term: the same float expressions in the same order, the
same integer counts, the same GF(2^8) eliminations and the same
coefficient draws, the same order of effects within a runtime.  A row
therefore holds, bit for bit, what its object would hold had the object
run the same slots, and the runtime classes stay the one place behaviour
is written.

**Row fallback.**  Whatever is not the slot's common case goes through the
object: the core stores the rows of a position into its objects, calls the
existing method and loads them back (:meth:`through_objects`;
``install_plan`` and ``finalize`` only store).  That is every control call
(``apply_events`` — churn among them —, ``apply_plan``, ``install_plan``,
``finalize``), an arrival from another core, the one rare branch of a
reception — a relay hearing a newer generation — which the kernel leaves
untouched and hands back, and an ACK while a row holds a deferred coding
decision (``pending``); a decode and its ACK otherwise stay rows.  Only
:meth:`store` builds packet and coder objects, and only :meth:`load`
reads a runtime's settings.

**Queues.**  Everything a flow runtime queues carries the current
generation (a new one empties the queue), and within a generation its
content never decreases: a source's packets carry the generation size, a
relay's its information level, which only grows.  So the queue is
per-level counts and the FIFO head is the lowest non-empty level.  An
exact row's queue is a ring of coefficient vectors, a unicast row's a
ring of sequence numbers.

**Parking.**  The kernel ticks every active row, awake or not: a parked
position sits at an exact fixed point of the tick (``NodeRuntime.dormant``),
so ticking it changes nothing.  The awake flags, one a position, keep the
awake set's meaning and cadence — a position parks when a check every
``AwakeSet.PARK_INTERVAL`` ticks finds it idle and dormant, and wakes on a
delivery or a control call — because the core reports its awake count
(epochs, worker liveness) and its parked nodes from them.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import repeat
from typing import Any, Dict, FrozenSet, Iterator, List, Sequence, Tuple

import numpy as np

from repro.coding.packet import CodedPacket
from repro.emulator import native
from repro.emulator.node import (
    CodedDestinationRuntime,
    CodedRelayRuntime,
    CodedSourceRuntime,
    FlowDestinationRuntime,
    FlowPacket,
    FlowRelayRuntime,
    FlowSourceRuntime,
    InterSessionXorRelay,
    MultiSessionNodeRuntime,
    NodeRuntime,
    UnicastRuntime,
)
from repro.topology.graph import WirelessNetwork

#: Row roles (0: a runtime of no row kind, which no compiled core hosts).
SOURCE, RELAY, DESTINATION, UNICAST = 1, 2, 3, 4
#: Every runtime class a row can hold: its role, and whether it codes
#: exactly (real GF(2^8) coefficient vectors) or counts information.
KINDS: Dict[type, Tuple[int, bool]] = {
    FlowSourceRuntime: (SOURCE, False),
    FlowRelayRuntime: (RELAY, False),
    FlowDestinationRuntime: (DESTINATION, False),
    UnicastRuntime: (UNICAST, False),
    CodedSourceRuntime: (SOURCE, True),
    CodedRelayRuntime: (RELAY, True),
    CodedDestinationRuntime: (DESTINATION, True),
}
#: The runtime classes of exact rows.
EXACT_KINDS = frozenset(kind for kind, (_role, exact) in KINDS.items() if exact)
#: The runtimes whose per-session runtimes are a position's rows.
COMPOSITES = frozenset((MultiSessionNodeRuntime, InterSessionXorRelay))


def session_rows(host: NodeRuntime) -> List[NodeRuntime]:
    """The rows of a position hosting ``host``: a composite's per-session
    runtimes in ascending session order, active or not, else ``host``."""
    if isinstance(host, MultiSessionNodeRuntime):
        return [host.session_runtime(sid) for sid in host.hosted_sessions()]
    return [host]

#: (column, runtime attribute) of the state a slot changes, per role and
#: fidelity: what :meth:`Columns.store` writes back.  The broadcast queue,
#: and an exact row's coder, come on top.
_SENDER_STATE = (
    ("credit", "_credit"),
    ("generated", "packets_generated"),
    ("sent", "packets_sent"),
    ("dropped", "packets_dropped"),
)
#: A coded role's generation (a unicast row has none).
_GENERATION = (("generation", "_generation_id"),)
_RELAY_STATE = _GENERATION + _SENDER_STATE + (
    ("demand", "_demand_ewma"),
    ("enqueued", "_enqueued_this_slot"),
    ("heard", "packets_heard"),
    ("accepted", "packets_accepted"),
)
_DESTINATION_STATE = _GENERATION + (
    ("heard", "packets_heard"),
    ("accepted", "innovative_received"),
    ("decoded", "generations_decoded"),
    ("decoded_blocks", "blocks_decoded"),
)
#: A flow relay's or destination's information level; an exact row's
#: rank is in the same column, read from its coder.
_INFORMATION = (("information", "information"),)
_STATE = {
    (SOURCE, False): _GENERATION + _SENDER_STATE,
    (RELAY, False): _RELAY_STATE + _INFORMATION,
    (DESTINATION, False): _DESTINATION_STATE + _INFORMATION,
    (UNICAST, False): _SENDER_STATE + (
        ("accepted", "packets_delivered"), ("next_seq", "_next_seq")
    ),
    (SOURCE, True): _GENERATION + _SENDER_STATE,
    (RELAY, True): _RELAY_STATE,
    (DESTINATION, True): _DESTINATION_STATE,
}
#: What only the control plane changes, per role: read by :meth:`Columns.load`.
_SETTINGS = {
    SOURCE: (("blocks", "_blocks"), ("limit", "_queue_limit")),
    RELAY: (("blocks", "_blocks"), ("limit", "_queue_limit"), ("tx_credit", "_tx_credit")),
    DESTINATION: (("blocks", "_blocks"),),
    UNICAST: (("limit", "_queue_limit"),),
}


class Columns:
    """The rows of one core's hosted runtimes, ``hosts`` by position.

    A position's rows are its runtime's, or a composite's per-session
    runtimes in ascending session order, active or not
    (``group_ptr[p]`` .. ``group_ptr[p + 1] - 1``); without a composite
    rows are positions.  ``pad`` is the network's node count.  The public
    arrays are read by the core (``queue``, ``awake``) and by tests.
    """

    def __init__(self, hosts: Sequence[NodeRuntime], dt: float, pad: int) -> None:
        self._hosts = hosts
        #: Some position holds a composite (else rows are positions).
        self.grouped = not COMPOSITES.isdisjoint(map(type, hosts))
        #: A position holds a composite; its XOR pairs as pairs of rows.
        self.composite = np.zeros(len(hosts), dtype=bool)
        if self.grouped:
            self.composite[:] = [type(host) in COMPOSITES for host in hosts]
        self._runtimes: List[NodeRuntime] = list(hosts)
        self.group_ptr = np.arange(len(hosts) + 1, dtype=np.int64)
        self.pair_ptr = np.zeros(len(hosts) + 1, dtype=np.int64)
        self.row_position = np.arange(len(hosts), dtype=np.int64)
        pairs: List[List[int]] = []
        if self.grouped:
            self._runtimes = []
            for position, host in enumerate(hosts):
                first = len(self._runtimes)
                self._runtimes += session_rows(host)
                if isinstance(host, InterSessionXorRelay):
                    sessions = host.hosted_sessions()
                    pairs += [
                        [first + sessions.index(a), first + sessions.index(b)]
                        for a, b in host.pairs if a in sessions and b in sessions
                    ]
                self.group_ptr[position + 1] = len(self._runtimes)
                self.pair_ptr[position + 1] = len(pairs)
            self.row_position = np.repeat(self.row_position, np.diff(self.group_ptr))
        self.pair_rows = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        count = len(self._runtimes)
        self._dt = dt
        self._pad = pad
        self._ticks = 0
        self.role = np.zeros(count, dtype=np.int8)
        #: A row codes exactly: its queue is a ring of coefficient vectors.
        self.exact = np.zeros(count, dtype=bool)
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
        #: A flow row's information level, an exact relay's or
        #: destination's rank.
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
        # Composite rows (empty without a composite): the session is active
        # (an inactive one is not ticked, heard or popped), its
        # transmissions, the senders it heard (a node-indexed mask) and its
        # slot-end queue integral; per position the round-robin cursor and
        # the XOR transmissions.
        grouped, hosted = (count, len(hosts)) if self.grouped else (0, 0)
        self.active = np.ones(grouped, dtype=bool)
        self.session_tx = np.zeros(grouped, dtype=np.int64)
        self.heard_from = np.zeros((grouped, pad + 1), dtype=bool)
        self.row_queue_time = np.zeros(grouped)
        self.cursor = np.zeros(hosted, dtype=np.int64)
        self.xor_sent = np.zeros(hosted, dtype=np.int64)
        # Exact rows (empty without one): ``vwidth`` bounds every row's
        # generation size.  Per
        # row a ``vwidth``-squared block holds the reduced echelon basis (a
        # relay's innovation filter, a destination's decoder) with stride
        # ``blocks``, pivots beside it, and a relay's buffered vectors; the
        # ring of queued vectors is ``coded_ring[coded_ptr[r]:]``,
        # ``coded_cap[r]`` vectors of ``blocks[r]`` bytes from ``head[r]``.
        # ``coding`` is the coefficient generator's state
        # (:func:`native.coding_state`), ``emitted`` and ``systematic`` a
        # source encoder's, ``received`` a decoder's.
        exact = 0 if EXACT_KINDS.isdisjoint(map(type, self._runtimes)) else count
        self.vwidth = 1
        self.basis = np.zeros((exact, 1), dtype=np.uint8)
        self.pivots = np.zeros((exact, 1), dtype=np.int64)
        self.vectors = np.zeros((exact, 1), dtype=np.uint8)
        self.coded_ptr = np.zeros(exact + 1 if exact else 0, dtype=np.int64)
        self.coded_cap = np.ones(exact, dtype=np.int64)
        self.coded_ring = np.zeros(0, dtype=np.uint8)
        self.coding = np.zeros((exact, 6), dtype=np.uint64)
        self.emitted = np.zeros(exact, dtype=np.int64)
        self.systematic = np.zeros(exact, dtype=bool)
        self.received = np.zeros(exact, dtype=np.int64)
        self._layout: Tuple[np.ndarray, Sequence[int], np.ndarray] | None = None
        self._network: WirelessNetwork | None = None
        #: Counts the calls that may have replaced an array (``levels``,
        #: the masks ``load`` derives, the upstream mask): whoever holds
        #: pointers into them repoints when it moves.
        self.reallocations = 0
        self.load(np.arange(len(hosts)))
        self.awake = np.ones(len(hosts), dtype=bool)

    def rows_of(self, positions: np.ndarray) -> np.ndarray:
        """The rows of ``positions``, position by position."""
        if not self.grouped:
            return positions
        ptr = self.group_ptr
        return np.concatenate([np.arange(ptr[p], ptr[p + 1]) for p in positions.tolist()]
                              + [np.zeros(0, dtype=np.int64)]).astype(np.intp)

    # -- rows and objects ------------------------------------------------

    def load(self, positions: np.ndarray) -> None:
        """Read the rows at ``positions`` from their runtime objects."""
        dt = self._dt
        rows_at = self.rows_of(positions)
        by_kind: Dict[type, List[int]] = {}
        for row in rows_at.tolist():
            by_kind.setdefault(type(self._runtimes[row]), []).append(row)
        for kind, rows in by_kind.items():
            role, exact = KINDS[kind]
            runtimes = [self._runtimes[p] for p in rows]
            self.role[rows] = role
            self.exact[rows] = exact
            for column, attribute in (
                ("session", "session_id"), *_STATE[role, exact], *_SETTINGS[role]
            ):
                getattr(self, column)[rows] = [getattr(r, attribute) for r in runtimes]
            if role == UNICAST:
                self._load_unicast(rows, runtimes)
                continue
            self.pending[rows] = [
                r._pending_coding is not None for r in runtimes  # type: ignore[attr-defined]
            ]
            if role != DESTINATION:
                self.increment[rows] = [r._rate * dt / r._packet_bytes for r in runtimes]
            if role == RELAY:
                self.credit_mode[rows] = [r._mode == "credit" for r in runtimes]
                for row, runtime in zip(rows, runtimes):
                    self.upstream[row] = runtime._upstream  # type: ignore[attr-defined]
            if exact:
                self._load_exact(rows, runtimes, role)
            elif role != DESTINATION:
                self._load_levels(rows, runtimes)
        if self.grouped:
            for position in positions[self.composite[positions]].tolist():
                self._load_composite(position)
        self._classify()
        if self._layout is not None:
            loaded = self.role[rows_at]
            if (loaded == RELAY).any():
                self._align_upstream()  # a relay's mode or upstream set may have moved
            if (loaded == UNICAST).any():
                self._align_hops()  # and a unicast row's next hop
        self.reallocations += 1

    def _load_levels(self, rows: List[int], runtimes: Sequence[NodeRuntime]) -> None:
        """The per-level queue counts of flow sender ``rows``."""
        self._widen(int(self.blocks[rows].max()) + 1)
        self.levels[rows] = 0
        width = self.levels.shape[1]
        for row, runtime in zip(rows, runtimes):
            queue = runtime._queue  # type: ignore[attr-defined]
            self.queue[row] = len(queue)
            if queue:
                contents = [int(packet.content) for packet in queue]
                self.levels[row] = np.bincount(contents, minlength=width)

    def _load_exact(self, rows: List[int], runtimes: Sequence[NodeRuntime], role: int) -> None:
        """The coders of exact ``rows``: rank, basis, buffered vectors,
        generator state and the ring of queued vectors."""
        self._widen_exact(int(self.blocks[rows].max()))
        for row, runtime in zip(rows, runtimes):
            n = int(self.blocks[row])
            if role == DESTINATION:
                decoder = runtime._decoder  # type: ignore[attr-defined]
                basis = decoder._basis
                self.received[row] = decoder._received
            elif role == RELAY:
                buffer = runtime._buffer  # type: ignore[attr-defined]
                basis = buffer._filter
                self.vectors[row, : n * n] = buffer._vector_buf.reshape(-1)
            if role != SOURCE:
                self.information[row] = basis.rank
                self.basis[row, : n * n] = basis.matrix.reshape(-1)
                self.pivots[row, :n] = basis.pivot_cols
                continue
            encoder = runtime._encoder  # type: ignore[attr-defined]
            self.emitted[row] = encoder._emitted
            self.systematic[row] = encoder._systematic
        if role == DESTINATION:
            return
        senders: List[Any] = list(runtimes)
        self.coding[rows] = [native.coding_state(r._rng) for r in senders]
        queues = [[packet.coefficients for packet in r._queue] for r in senders]
        caps = [max(int(self.limit[row]), len(queue), 1) for row, queue in zip(rows, queues)]
        self._make_coded_room(rows, caps)
        for row, queue in zip(rows, queues):
            self.head[row] = 0
            self.queue[row] = len(queue)
            if queue:
                start = int(self.coded_ptr[row])
                self.coded_ring[start : start + sum(map(len, queue))] = np.concatenate(queue)

    def _make_coded_room(self, rows: List[int], caps: List[int]) -> None:
        """Rings of ``caps`` vectors at exact ``rows``: a new layout, the
        other rows' queued vectors kept, if one is short."""
        width = self.blocks[rows]
        if (np.diff(self.coded_ptr)[rows] >= width * caps).all():
            self.coded_cap[rows] = caps
            return
        senders = np.flatnonzero(self.exact & (self.role != DESTINATION)).tolist()
        kept = [(row, self._coded_fifo(row)) for row in senders if row not in rows]
        room = np.diff(self.coded_ptr)
        room[rows] = width * caps
        self.coded_cap[rows] = caps
        self.coded_ptr[1:] = np.cumsum(room)
        self.coded_ring = np.zeros(int(self.coded_ptr[-1]), dtype=np.uint8)
        for row, queue in kept:
            start = int(self.coded_ptr[row])
            self.coded_ring[start : start + queue.size] = queue.reshape(-1)
            self.head[row] = 0

    def _coded_fifo(self, row: int) -> np.ndarray:
        """Exact row ``row``'s queued vectors, head first, one a row."""
        n, cap = int(self.blocks[row]), int(self.coded_cap[row])
        at = (int(self.head[row]) + np.arange(int(self.queue[row]))) % cap
        start = int(self.coded_ptr[row])
        return self.coded_ring[start + at[:, None] * n + np.arange(n)]

    def _widen_exact(self, width: int) -> None:
        """Make room for exact generations of up to ``width`` blocks."""
        if width > self.vwidth:
            for name in ("basis", "vectors"):
                grown = np.zeros((len(self.basis), width * width), dtype=np.uint8)
                grown[:, : self.vwidth**2] = getattr(self, name)
                setattr(self, name, grown)
            pivots = np.zeros((len(self.basis), width), dtype=np.int64)
            pivots[:, : self.vwidth] = self.pivots
            self.pivots = pivots
            self.vwidth = width

    def _load_composite(self, position: int) -> None:
        """A composite's per-session state and per-position cursor."""
        host = self._hosts[position]
        assert isinstance(host, MultiSessionNodeRuntime)
        first, last = self.group_ptr[position : position + 2].tolist()
        active = set(host.active_sessions())
        for row in range(first, last):
            session = int(self.session[row])
            self.active[row] = session in active
            self.session_tx[row] = host._session_transmissions[session]
            self.heard_from[row] = False
            senders = [sender for sender, _node in host._session_delivered[session]]
            self.heard_from[row, senders] = True
        self.cursor[position] = host._cursor
        self.xor_sent[position] = host.xor_transmissions

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
        rows_at = self.rows_of(positions)
        role_of, exact_of = self.role[rows_at], self.exact[rows_at]
        for (role, exact), state in _STATE.items():
            rows = rows_at[(role_of == role) & (exact_of == exact)]
            if not rows.size:
                continue
            runtimes = [self._runtimes[p] for p in rows.tolist()]
            for column, attribute in state:
                for runtime, value in zip(runtimes, getattr(self, column)[rows].tolist()):
                    setattr(runtime, attribute, value)
            if exact:
                self._store_exact(rows.tolist(), runtimes, role)
            if role == DESTINATION:
                continue
            for runtime in runtimes:
                runtime._queue.clear()  # type: ignore[attr-defined]
            if role == UNICAST:
                for runtime, row in zip(runtimes, rows.tolist()):
                    runtime._queue.extend(self._fifo(row))  # type: ignore[attr-defined]
                continue
            queued = rows[self.queue[rows] > 0]
            for position, session, generation in zip(
                queued.tolist(), self.session[queued].tolist(), self.generation[queued].tolist()
            ):
                queue = self._runtimes[position]._queue  # type: ignore[attr-defined]
                if exact:
                    vectors = self._coded_fifo(position)
                    queue.extend(CodedPacket.batch_from_rows(session, generation, vectors))
                    continue
                for level, count in enumerate(self.levels[position].tolist()):
                    if count:  # one packet object per level: nothing mutates a packet
                        queue.extend(repeat(FlowPacket(session, generation, float(level)), count))
        if self.grouped:
            for position in positions[self.composite[positions]].tolist():
                self._store_composite(position)

    def _store_exact(self, rows: List[int], runtimes: Sequence[NodeRuntime], role: int) -> None:
        """Write exact ``rows``' coders back (their state columns first)."""
        for row, runtime in zip(rows, runtimes):
            n, rank = int(self.blocks[row]), int(self.information[row])
            if role == SOURCE:
                encoder = runtime._encoder  # type: ignore[attr-defined]
                if encoder.generation.generation_id != self.generation[row]:
                    runtime._reset()  # type: ignore[attr-defined]  # the ACK's fresh encoder
                    encoder = runtime._encoder  # type: ignore[attr-defined]
                encoder._emitted = int(self.emitted[row])
            elif role == RELAY:
                buffer = runtime._buffer  # type: ignore[attr-defined]
                buffer._generation_id = int(self.generation[row])
                buffer._count = rank
                buffer._vector_buf.reshape(-1)[:] = self.vectors[row, : n * n]
                basis = buffer._filter
            else:
                decoder = runtime._decoder  # type: ignore[attr-defined]
                decoder._received = int(self.received[row])
                basis = decoder._basis
            if role != SOURCE:
                basis.rank = rank
                basis.matrix.reshape(-1)[:] = self.basis[row, : n * n]
                basis.pivot_cols[:] = self.pivots[row, :n]
            if role != DESTINATION:
                native.set_coding_state(
                    runtime._rng, self.coding[row].tolist()  # type: ignore[attr-defined]
                )

    def _store_composite(self, position: int) -> None:
        """A composite's per-session counters and cursor."""
        host = self._hosts[position]
        assert isinstance(host, MultiSessionNodeRuntime)
        node = host.node_id
        for row in range(*self.group_ptr[position : position + 2].tolist()):
            session = int(self.session[row])
            host._session_transmissions[session] = int(self.session_tx[row])
            host._session_delivered[session] = {
                (sender, node) for sender in np.flatnonzero(self.heard_from[row]).tolist()
            }
        host._cursor = int(self.cursor[position])
        host.xor_transmissions = int(self.xor_sent[position])

    def position_queue(self) -> np.ndarray:
        """Every position's queue length: its active rows' sum."""
        if not self.grouped:
            return self.queue
        return np.add.reduceat(np.where(self.active, self.queue, 0), self.group_ptr[:-1])

    def sample_sessions(self, slots: int) -> None:
        """Every composite row's queue sample, ``slots`` times (an active
        session's; the others hold theirs)."""
        if self.grouped:
            sampled = self.active & self.composite[self.row_position]
            self.row_queue_time[sampled] += self.queue[sampled] * slots

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
        upstream set holds the transmitter (with composites, a credit
        row's ``row_upstream`` marks its upstream node ids instead), and a
        unicast row's next hop is found in its row.  ``nodes`` maps
        positions to node ids, ``position_of`` node ids to positions (-1:
        not hosted).  The core calls this whenever ``receivers`` or
        ``network`` change; :meth:`load` lays a relay's mask and a unicast
        row's hop out again whenever it loads one.
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
        self._upstream = np.zeros(receivers.shape, dtype=bool)
        self.row_upstream = np.zeros((len(self.heard_from), self._pad + 1), dtype=bool)
        if self.grouped:
            for row in self._credit_rows.tolist():
                self.row_upstream[row, sorted(self.upstream[row])] = True
            return
        pairs = [s * count + r for r in self._credit_rows.tolist() for s in self.upstream[r]]
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
