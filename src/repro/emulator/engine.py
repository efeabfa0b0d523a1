"""The per-process half of the slotted emulation: one core, any transport.

Time advances in packet slots (one slot = the airtime of one packet at
the MAC channel capacity).  Each slot:

1. every *awake* runtime accrues credits / generates packets
   (``on_slot``) and contenders draw a MAC lottery key; runtimes parked
   at an exact fixed point are skipped (:mod:`repro.emulator.awake`)
   until a delivery or the control plane wakes them;
2. the ideal MAC grants a conflict-free transmitter set — a greedy
   pass over every contender at once, run by whoever holds them all:
   the core itself while it is the only one with anything awake
   (:meth:`EngineCore.run_slots`), else the cores' parent
   (:class:`~repro.emulator.shard.ShardedCores`);
3. granted coded transmitters broadcast — every in-range participant
   draws an independent reception; granted unicast transmitters attempt
   their head-of-line packet toward the next hop (failure = MAC
   retransmission later);
4. each receiver keeps at most one of the packets it heard;
5. queue lengths are sampled for the Fig. 3 statistics.

:class:`EngineCore` is all five for the nodes one process hosts, and
:meth:`EngineCore.run_slots` is the one loop that strings them together.
A single-process run drives one core that hosts every node by direct
method calls; a sharded run hosts one core per worker process and
drives the same methods through pipes — whole epochs of slots while one
core holds everything awake, a phase at a time while several do.  It is
protocol-agnostic: behaviour differences live entirely in the runtimes
(:mod:`repro.emulator.node`) and the plans that configured them.
"""

from __future__ import annotations

import ctypes
import functools
import logging
from contextlib import nullcontext
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (
    Any, ContextManager, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Set,
    Tuple,
)

import numpy as np

from repro import obs
from repro.emulator import native
from repro.emulator.awake import AwakeSet
from repro.emulator.columns import KINDS as FLOW_KINDS
from repro.emulator.columns import Columns
from repro.emulator.node import (
    FlowDestinationRuntime,
    FlowPacket,
    FlowRelayRuntime,
    FlowSourceRuntime,
    MultiSessionNodeRuntime,
    NodeRuntime,
    RuntimeTerms,
    UnicastRuntime,
    install_runtimes,
)
from repro.emulator.plan import NodeSettings
from repro.emulator.scheduler import ConflictGraph, IdealMacScheduler
from repro.topology.graph import Link, WirelessNetwork
from repro.util.rng import DrawBuffers, NodeStreams, RngFactory, StreamBank

#: Hosted runtimes from which a core runs the slot array-at-a-time
#: (DESIGN.md §13.1, "array form").  Below it the awake set is a few tens
#: of nodes and the per-node loops win: numpy's call overhead has nothing
#: to amortise over.
ARRAY_FORM_MIN_HOSTED = 192

#: One packet heard by a receiver: (grant_rank, delivery_pos, sender,
#: kind, payload).  ``grant_rank`` is the sender's index in the granted
#: tuple and ``delivery_pos`` the receiver's index in the sender's
#: delivered tuple.  A receiver's *place* in the slot is its first
#: arrival's pair; processing receivers in place order, and each
#: receiver's arrivals in pair order, is the order of a single process
#: walking the granted tuple — whichever processes fired the packets.
Arrival = Tuple[int, int, int, str, Any]
#: A receiver and its arrivals, in place order.
Entry = Tuple[int, List[Arrival]]
#: Something the session has to replay, led by where in the slot it
#: happened: ``(-1, grant_rank, "tx", node)``, or at a receiver's place
#: ``(rank, pos, "delivery", sender, receiver)`` for the packet it kept
#: and ``(rank, pos, "decoded" | "delivered", value)`` for what that
#: packet completed.
Event = Tuple[Any, ...]
#: One executed slot, for the session to replay: the granted tuple (its
#: length when nobody asked for names), the contender count, the events.
Record = Tuple[Any, int, List[Event]]
#: An epoch's terms: (slot budget, queued control signals, name the granted?).
Epoch = Tuple[int, Optional[Sequence[Sequence[Any]]], bool]
#: A core's entry in a slot's lottery: (awake count, keys, participant positions).
Contention = Tuple[int, List[float], List[int]]
#: A re-plan, for one core: the settings of the nodes it hosts, every
#: participant, and the terms that build a runtime it lacks.
Install = Tuple[NodeSettings, Tuple[int, ...], RuntimeTerms]


def _padded(rows: Sequence[Sequence[int]], pad: int) -> Tuple[np.ndarray, np.ndarray]:
    """``rows`` as one array, short rows filled up with ``pad``, and the
    mask of the cells that hold a row's own entries."""
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    own = np.arange(lengths.max(initial=0)) < lengths[:, None]
    array = np.full(own.shape, pad, dtype=np.intp)
    array[own] = [entry for row in rows for entry in row]
    return array, own


class _Broadcast(NamedTuple):
    """One slot's hosted transmissions and their receptions, array form.

    Per transmitter that fired, in grant-rank order: its rank, node and
    hosted position, whether it is a column row, and its packet — an
    object row's as popped (``packets``, by index), a column row's as
    (session, generation, content level), made into a
    :class:`FlowPacket` only on demand.  ``receivers`` / ``heard`` /
    ``delivery_pos``: one row per transmitter over its padded receiver row.
    """

    ranks: np.ndarray
    nodes: np.ndarray
    rows: np.ndarray
    from_columns: np.ndarray
    packets: Dict[int, Any]
    sessions: np.ndarray
    generations: np.ndarray
    levels: np.ndarray
    receivers: np.ndarray
    heard: np.ndarray
    delivery_pos: np.ndarray

    def packet(self, index: int) -> Any:
        """The packet transmitter ``index`` put on the air."""
        packet = self.packets.get(index)
        if packet is None:
            packet = self.packets[index] = FlowPacket(
                int(self.sessions[index]), int(self.generations[index]), float(self.levels[index])
            )
        return packet


class SessionCounters(NamedTuple):
    """One session's share of one node's counters: the slot-end queue
    integral over its runtime alone, so a node's shares sum to its
    ``queue_time_sum``, and the links into the node that carried one of
    its packets."""

    queue_time: float
    transmissions: int
    delivered_links: List[Link]
    blocks_decoded: int


@dataclass
class EngineStats:
    """Aggregate counters of a run (merged over its cores).

    ``sessions``: ``(session, node) -> SessionCounters`` for every node
    that ever hosted a runtime of the session.  ``xor_transmissions``:
    per composite-hosting node, the slots that carried an inter-session
    XOR (each also counted once per component session).
    """

    slots: int = 0
    elapsed: float = 0.0
    grants: int = 0
    queue_time_sum: Dict[int, float] = field(default_factory=dict)
    transmissions: Dict[int, int] = field(default_factory=dict)
    delivered_links: Set[Link] = field(default_factory=set)
    sessions: Dict[Tuple[int, int], SessionCounters] = field(default_factory=dict)
    xor_transmissions: Dict[int, int] = field(default_factory=dict)


class _DecodeLog:
    """The one recorder of a run's end-to-end events.

    Destination side: a destination calls the log — itself as an
    ``on_decoded`` (a multi-session one binds its ``session_id``),
    :meth:`deliver` as a unicast sink's ``on_delivered`` — and the log
    is picklable, so it rides in the payload shipped to the
    destination's core, which drains :attr:`events` after every
    receiver: that is how an event keeps its place in the slot.
    Session side: the session replays all cores' drained events in slot
    order into :attr:`acks` and :attr:`delivered` of *its* copy (at
    ``shards=1`` the same object), which a driver reads.
    """

    def __init__(self) -> None:
        self.events: List[Tuple[str, Any]] = []
        #: ``(event, time)`` per decoded generation, in slot order; the
        #: event is a generation id, or ``(session_id, generation_id)``
        #: from a callback bound to a session.
        self.acks: List[Tuple[Any, float]] = []
        #: unicast packets that reached their sink
        self.delivered = 0
        self._seen = 0

    def __call__(self, generation_id: int, session_id: int | None = None) -> None:
        decoded = generation_id if session_id is None else (session_id, generation_id)
        self.events.append(("decoded", decoded))

    def deliver(self, sequence: int) -> None:
        """A unicast sink's ``on_delivered``."""
        self.events.append(("delivered", sequence))

    def unseen(self) -> List[Any]:
        """The decode events acknowledged since the last call — a
        driver's cue to signal the next generation."""
        if self._seen == len(self.acks):  # the every-slot answer
            return []
        fresh = [event for event, _time in self.acks[self._seen :]]
        self._seen = len(self.acks)
        return fresh

    def drain(self) -> List[Tuple[str, Any]]:
        """The destination-side events since the last drain."""
        drained = self.events
        self.events = []
        return drained


@dataclass
class CoreInit:
    """Everything one core needs, in a single picklable payload.

    ``runtimes`` holds only the nodes this core hosts; the network and
    participant list are complete, because blanking coverage and
    receiver filtering are global computations every core performs
    locally (they are deterministic, so replication costs no
    coordination).  ``seed`` rebuilds the per-node RNG streams in the
    core, lazily, so only for nodes it hosts.  ``traced`` asks for the
    ``tx`` and ``delivery`` events a session tracer records.
    """

    network: WirelessNetwork
    runtimes: Dict[int, NodeRuntime]
    participants: Tuple[int, ...]
    slot_duration: float
    interference: str
    seed: int
    has_unicast: bool
    traced: bool = False
    decode_log: _DecodeLog = field(default_factory=_DecodeLog)


class EngineCore:
    """One process's share of every slot: tick, fire, resolve, settle,
    sample — and the grant too, while every contender is its own.

    Every public method takes one argument and returns plain data, so it
    can be a pipe message to a worker process
    (:class:`~repro.exec.pool.PersistentWorkerGroup`) or a direct call.
    State (runtimes, RNG streams, stats accumulators) persists across
    calls, and every slot-phase reply leads with the size of the awake
    set: a core that reports 0 has nothing a slot could change and is
    left alone until something is addressed to it.

    Every MAC lottery key, channel loss vector and capture tie-break
    comes from a stream owned by the node it concerns
    (:class:`~repro.util.rng.NodeStreams`) — one random universe,
    whichever core hosts the node and whoever else is active.

    A slot exists in two forms that produce the same draws, grants,
    arrivals and runtime state bit for bit, both drawing keys and loss
    vectors from pre-drawn blocks of those streams.  The scalar form
    loops: per awake runtime (:class:`~repro.emulator.awake.AwakeSet`),
    per contender, per neighbour, a key one ``list.pop()`` and a loss
    vector one slice (:class:`~repro.util.rng.DrawBuffers`).  The array
    form — on a core that hosts ``ARRAY_FORM_MIN_HOSTED`` runtimes or
    more, none of them unicast — works on arrays: keys and loss vectors
    are gathers from a :class:`~repro.util.rng.StreamBank`, and the
    flow-fidelity runtimes' tick, pop, absorb and queue sampling run
    over their rows (:class:`~repro.emulator.columns.Columns`); any other
    runtime stays an object on the awake set.  A core that
    :func:`compilable` admits takes the array form whatever its size
    while :func:`compiled_kernel` loads, and while all its rows are
    columns :meth:`run_slots` is one call into that compiled loop
    (:mod:`repro.emulator.native`): the numpy phases' arithmetic in their
    order.  The form is picked once, at construction.
    """

    def __init__(self, init: CoreInit) -> None:
        self._network = init.network
        self._dt = init.slot_duration
        self._blanking = init.interference == "blanking"
        self._two_hop = init.interference == "conflict_free"
        self._has_unicast = init.has_unicast
        self._traced = init.traced
        self._factory = factory = RngFactory(init.seed)
        mac = NodeStreams(factory, "mac")
        loss = NodeStreams(factory, "channel")
        self._capture = NodeStreams(factory, "capture")
        self._arrays, self._kernel = self._form(init)
        if self._arrays:
            self._mac_bank = StreamBank(mac)
            self._loss_bank = StreamBank(loss)
        else:
            self._mac_draws = DrawBuffers(mac)
            self._loss_draws = DrawBuffers(loss)
        self._log = init.decode_log
        self._pending_unicast: Dict[int, bool] = {}
        self._delivered_links: Set[Link] = set()
        # Over every node ever hosted: a re-plan may drop a forwarder,
        # its airtime and queue integral stay in the session's stats.
        self._transmissions: Dict[int, int] = {}
        self._queue_time: Dict[int, float] = {}
        # The session of every node a plain runtime ever held, and per
        # composite-hosting node its queue integral split by session.
        self._session_of: Dict[int, int] = {}
        self._session_queue_time: Dict[int, Dict[int, float]] = {}
        self._epoch: List[Record] = []  # the one in progress, or the last
        scope = obs.get_registry().attach("emulator")
        self._obs_enabled = scope.enabled
        self._m_tx = scope.counter("transmissions", "packets put on the air")
        self._m_deliveries = scope.counter(
            "deliveries", "packets delivered to a receiver"
        )
        self._m_blanked = scope.counter(
            "blanked", "receptions lost to hidden-terminal interference"
        )
        self._m_queue = scope.histogram(
            "queue_depth", "per-node queue length sampled every slot"
        )
        self._host(init.runtimes, init.participants)

    def _form(self, init: CoreInit) -> Tuple[bool, Optional[native.Kernel]]:
        """The form, chosen once from what the core is given to host:
        whether it runs array-at-a-time, and the compiled slot loop it
        runs epochs on (``None``: the numpy or scalar phases).

        Buffers and banks hold values their generators have already
        produced, so a node cannot move from one to the other.  The array
        phases carry broadcasts only: a unicast attempt — one target, an
        arrival of its own kind, a verdict settled after the receiver
        resolves — has no place in them, so a core that hosts a unicast
        runtime stays scalar.
        """
        if init.has_unicast:
            return False, None
        kernel = compiled_kernel() if compilable(init) else None
        return kernel is not None or len(init.runtimes) >= ARRAY_FORM_MIN_HOSTED, kernel

    def _host(
        self, runtimes: Dict[int, NodeRuntime], participants: Tuple[int, ...]
    ) -> None:
        """Take ``runtimes`` as the hosted set (position-indexed views)."""
        self._runtimes = dict(runtimes)
        self._participants = participants
        self._owned = tuple(sorted(runtimes))
        global_position = {node: i for i, node in enumerate(participants)}
        # Hosted position -> position among all participants, the
        # session scheduler's index space.
        self._global_positions = [global_position[node] for node in self._owned]
        self._hosts_everyone = len(self._owned) == len(participants)
        self._positions = {node: i for i, node in enumerate(self._owned)}
        self._runtime_list = [self._runtimes[node] for node in self._owned]
        for node in self._owned:
            self._transmissions.setdefault(node, 0)
        self._composites: List[Tuple[MultiSessionNodeRuntime, Dict[int, float]]] = []
        for node, runtime in zip(self._owned, self._runtime_list):
            if isinstance(runtime, MultiSessionNodeRuntime):
                times = dict.fromkeys(runtime.hosted_sessions(), 0.0)
                times = self._session_queue_time.setdefault(node, times)
                self._composites.append((runtime, times))
            else:
                self._session_of[node] = runtime.session_id
        # Queue-time accumulators carry over: a node hosted before keeps
        # its integral, new nodes start at zero.  A list, or on an array
        # core an array.
        self._queue_time_buf: Any = [self._queue_time.get(node, 0.0) for node in self._owned]
        self._columns: Optional[Columns] = None
        if not self._arrays:
            self._awake = AwakeSet(len(self._owned))
        else:
            self._queue_time_buf = np.array(self._queue_time_buf)
            # Transmissions since the last flush, per hosted position.
            self._fired = np.zeros(len(self._owned), dtype=np.int64)
            self._columns = columns = Columns(self._runtime_list, self._dt)
            self._objects = np.flatnonzero(~columns.held).tolist()
            self._awake = AwakeSet(len(self._owned), self._objects)
            self._node_of = np.array(self._owned, dtype=np.intp)
            # Node id -> hosted position, -1 where another core hosts it
            # (the pad id included).
            self._position_of = np.full(self._network.node_count + 1, -1, dtype=np.intp)
            self._position_of[self._node_of] = np.arange(len(self._owned))
            # Hosted position -> bank row.  A node keeps its row, cursor
            # and pre-drawn values when the hosted set is replaced.
            self._mac_rows = self._mac_bank.rows_for(self._owned)
            self._loss_rows = self._loss_bank.rows_for(self._owned)
        self._build_structures()

    def _build_structures(self) -> None:
        """(Re)compute the precomputed slot-loop structures (the hot path).

        Coverage lists exist for *every* participant — any of them can
        be granted, and blanking coverage counts all granted coverage
        disks — while receiver pairs are needed only for hosted nodes
        (the only transmitters this core fires).  Candidate order is
        ascending node id, so the transmitter's loss-draw-to-receiver
        mapping is identical in every process.  Derived entirely from
        the network and the participant set: a refresh touches no RNG
        stream, so one that changes nothing is invisible.
        """
        network = self._network
        participant_set = frozenset(self._participants)
        #  - cov_list: every geometric neighbor (coverage targets);
        #  - rx_pairs: (receiver, p) over neighbors that are session
        #    runtimes; p = 0 where no usable link exists (such receivers
        #    still count toward blanking — coverage is geometric).
        cov_list: Dict[int, List[int]] = {}
        rx_pairs: Dict[int, List[Tuple[int, float]]] = {}
        for node in self._participants:
            neighbors = sorted(network.neighbors(node))
            cov_list[node] = neighbors
            if node in self._positions:
                rx_pairs[node] = [
                    (j, network.probability(node, j))
                    for j in neighbors
                    if j in participant_set
                ]
        # Hosted positions with a participant neighbour hosted by another
        # core: what they fire can be heard where this core cannot resolve
        # it, so a slot in which one contends is not this core's alone.
        hosted = self._positions
        self._cut = frozenset(
            position
            for position, node in enumerate(() if self._hosts_everyone else self._owned)
            if any(j in participant_set and j not in hosted for j in cov_list[node])
        )
        # The MAC over the hosted nodes, in hosted-position space.  It
        # never consumes RNG — every key arrives pre-drawn from a node's
        # own stream — so only the conflict structure matters.
        self._scheduler = IdealMacScheduler(
            ConflictGraph(network, self._owned, two_hop=self._two_hop)
        )
        node_count = network.node_count
        if self._arrays:
            # The same structures as padded arrays: ``_rx_ids`` / ``_rx_p``
            # one row per hosted position, ``_cov`` one row per participant
            # (``_cov_row``: node id -> row).  Short rows are filled up
            # with the id ``node_count`` — one past the last node, never
            # granted, never a candidate (``p = 0``).
            self._rx_ids, own = _padded(
                [[j for j, _p in pairs] for pairs in rx_pairs.values()], node_count
            )
            self._rx_p = np.zeros(self._rx_ids.shape)
            self._rx_p[own] = [p for pairs in rx_pairs.values() for _j, p in pairs]
            if self._blanking:
                self._cov, _own = _padded(list(cov_list.values()), node_count)
                self._cov_row = np.zeros(node_count, dtype=np.intp)
                self._cov_row[list(cov_list)] = np.arange(len(cov_list))
            self._granted_mask = np.zeros(node_count + 1, dtype=bool)
            self._cut_mask = np.zeros(len(self._owned), dtype=bool)
            self._cut_mask[sorted(self._cut)] = True
            # Links delivered over since the last flush, cell by cell of
            # ``_rx_ids``; and MORE's per-reception credit, the same way.
            self._delivered = np.zeros(self._rx_ids.shape, dtype=bool)
            assert self._columns is not None
            self._columns.align_upstream(self._rx_ids, self._owned, self._position_of)
        else:
            self._cov_list, self._rx_pairs = cov_list, rx_pairs
            # Node-indexed per-slot scratch: which nodes transmit this
            # slot, and how many granted transmitters cover each node
            # (blanking model).  Reset per slot by touched entry, not by
            # rebuild.
            self._granted_flags: List[bool] = [False] * node_count
            self._covered_counts: List[int] = [0] * node_count
        # Whoever asked for the refresh may have swapped plans or
        # runtime objects: nothing stays parked.
        self._wake_everyone()
        # The compiled loop runs on these arrays, unless the scheduler
        # just built observes its grants.
        self._packed: Optional[native.Core] = None
        if self._kernel is not None and not obs.get_registry().enabled:
            self._pack()

    def _pack(self) -> None:
        """Point the compiled loop at every array it works on in place, the
        scheduler's conflict sets as CSR, and at buffers for what it hands
        back."""
        core = self._packed = native.Core()
        count, pad = len(self._owned), self._network.node_count
        width = self._rx_ids.shape[1]
        conflicts = [sorted(blocked) for blocked in self._scheduler._conflict_pos]
        self._conflict_ptr = np.zeros(count + 1, dtype=np.int64)
        self._conflict_ptr[1:] = np.cumsum([len(blocked) for blocked in conflicts])
        self._conflict = np.array([p for blocked in conflicts for p in blocked], dtype=np.int64)
        # ``[granted, contenders]`` per slot, grown to the largest budget.
        self._slot_out = np.zeros((2, 0), dtype=np.int64)
        self._granted_ids = np.zeros(4 * max(count, 1), dtype=np.int64)
        self._contender_out = np.zeros(count + 1, dtype=np.int64)
        self._key_out = np.zeros(count + 1)
        self._fallback_out = np.zeros((count + 1, 7), dtype=np.int64)
        self._kernel_error: Optional[BaseException] = None
        core.rows, core.rx_width, core.pad = count, width, pad
        core.mac_block = self._mac_bank._block
        core.loss_block = self._loss_bank._block
        core.blanking, core.cut = self._blanking, bool(self._cut)
        core.park_interval = AwakeSet.PARK_INTERVAL
        core.id_capacity = len(self._granted_ids)
        core.floor = IdealMacScheduler.WEIGHT_FLOOR
        core.smoothing = FlowRelayRuntime._DEMAND_SMOOTHING
        arrays = [
            ("rx_ids", self._rx_ids, np.int64, (count, width)),
            ("rx_p", self._rx_p, np.float64, (count, width)),
            ("position_of", self._position_of, np.int64, (pad + 1,)),
            ("node_of", self._node_of, np.int64, (count,)),
            ("conflict_ptr", self._conflict_ptr, np.int64, (count + 1,)),
            ("conflict", self._conflict, np.int64, self._conflict.shape),
            ("cut_mask", self._cut_mask, np.bool_, (count,)),
            ("queue_time", self._queue_time_buf, np.float64, (count,)),
            ("fired", self._fired, np.int64, (count,)),
            ("delivered", self._delivered, np.bool_, (count, width)),
            ("mac_rows", self._mac_rows, np.int64, (count,)),
            ("loss_rows", self._loss_rows, np.int64, (count,)),
            ("granted_ids", self._granted_ids, np.int64, self._granted_ids.shape),
            ("contender_out", self._contender_out, np.int64, (count + 1,)),
            ("key_out", self._key_out, np.float64, (count + 1,)),
            ("fallback_out", self._fallback_out, np.int64, (count + 1, 7)),
        ]
        if self._blanking:
            core.cov_width = self._cov.shape[1]
            arrays += [
                ("cov", self._cov, np.int64, self._cov.shape),
                ("cov_row", self._cov_row, np.int64, (pad,)),
            ]
        for kind, bank in (("mac", self._mac_bank), ("loss", self._loss_bank)):
            values = bank._values
            arrays += [
                (f"{kind}_values", values, np.float64, (len(values), bank._block)),
                (f"{kind}_cursor", bank._cursor, np.int64, (len(values),)),
            ]
        for name, array, dtype, shape in arrays:
            setattr(core, name, native.address(array, dtype, shape))
        self._point_columns()

    def _point_columns(self) -> None:
        """Repoint the compiled loop at the columns' arrays, which a load
        (any row fallback) may have replaced."""
        columns = self._columns
        core = self._packed
        assert columns is not None and core is not None
        count = len(self._owned)
        shapes = {
            "levels": (count, columns.levels.shape[1]),
            "upstream": self._rx_ids.shape,
            "credit_rows": columns._credit_rows.shape,
        }
        for name, attribute, dtype in native.COLUMNS:
            array = getattr(columns, attribute)
            setattr(core, name, native.address(array, dtype, shapes.get(name, (count,))))
        core.width = columns.levels.shape[1]
        core.credit_count = len(columns._credit_rows)
        self._pointed = columns.reallocations

    def _refill(self, bank: int, row: int) -> int:
        """The compiled loop's refill callback: ``StreamBank._refill``."""
        try:
            (self._loss_bank if bank else self._mac_bank)._refill(row)
        except BaseException as error:  # re-raised once the kernel returns
            self._kernel_error = error
            return 1
        return 0

    def _unbanked(self, count: int, rows: int, counts: int, out: int) -> int:
        """The compiled loop's callback for a loss take wider than a
        block: ``StreamBank._take_unbanked`` into ``out``."""
        try:
            int64 = ctypes.POINTER(ctypes.c_int64)
            wanted = [
                np.ctypeslib.as_array(ctypes.cast(pointer, int64), (count,))
                for pointer in (rows, counts)
            ]
            values = self._loss_bank._take_unbanked(*(array.copy() for array in wanted))
            if len(values):
                target = ctypes.cast(out, ctypes.POINTER(ctypes.c_double))
                np.ctypeslib.as_array(target, (len(values),))[:] = values
        except BaseException as error:  # re-raised once the kernel returns
            self._kernel_error = error
            return 1
        return 0

    def _wake_everyone(self) -> None:
        self._awake.wake_everyone()
        if self._columns is not None:
            self._columns.wake_everyone()

    def _through_objects(self, positions: Iterable[int]) -> ContextManager[None]:
        """The row fallback (:meth:`Columns.through_objects`) around a
        block that calls the runtime objects at ``positions``; nothing to
        do on a scalar core."""
        if self._columns is None:
            return nullcontext()
        return self._columns.through_objects(np.fromiter(positions, dtype=np.intp))

    def _awake_count(self) -> int:
        """The size of the awake set, column rows included."""
        if self._columns is None:
            return len(self._awake.positions)
        return len(self._awake.positions) + self._columns.awake_count()

    # -- slot phases ---------------------------------------------------

    def apply_events(self, events: Iterable[Sequence[Any]]) -> None:
        """Apply queued control signals to every hosted runtime, in order.

        Each is ``(runtime method, *arguments)`` — a generation advance,
        a per-session advance, a session arrival or departure — queued
        by the session since the last call reached this core.  Column
        rows take them through their objects.
        """
        self._wake_everyone()
        with self._through_objects(range(len(self._owned))):
            for method, *arguments in events:
                for runtime in self._runtime_list:
                    getattr(runtime, method)(*arguments)

    def _contend(self) -> Tuple[Any, Any]:
        """Tick clocks, draw lottery keys.

        One pass per awake runtime object, and on an array core one
        :meth:`Columns.tick` over the column rows: clock advance, then
        scheduler inputs.  Safe to fuse — runtimes only interact through
        deliveries, and each holds its own RNG, so per-node slot work is
        independent.  Every contender draws one ``Exp(1)`` from its own
        "mac" stream, so a node's key sequence depends only on how often
        *it* contended.  Returns the hosted contenders' keys and their
        hosted positions, ascending — lists, or in the array form arrays.
        """
        floor = IdealMacScheduler.WEIGHT_FLOOR
        contenders, weights = self._awake.tick(self._runtime_list, self._dt)
        if self._columns is not None:
            positions, rates = self._columns.tick()
            if contenders:  # object rows contend too: merge by position
                positions = np.concatenate((positions, contenders))
                rates = np.concatenate((rates, weights))
                order = np.argsort(positions)
                positions, rates = positions[order], rates[order]
            draws = self._mac_bank.take(self._mac_rows[positions])
            return draws / np.maximum(rates, floor), positions
        owned = self._owned
        mac = self._mac_draws
        keys: List[float] = []
        for position, weight in zip(contenders, weights):
            node = owned[position]
            draw = (mac[node] or mac.refill(node)).pop()
            keys.append(draw / max(weight, floor))
        return keys, contenders

    def begin_slot(self, events: Optional[Iterable[Sequence[Any]]]) -> Contention:
        """Apply deferred control events, then contend: the hosted
        contenders' keys for a greedy pass over several cores' at once."""
        if events:
            self.apply_events(events)
        return self._contention(*self._contend())

    def _contention(self, keys: Any, contenders: Any) -> Contention:
        to_global = self._global_positions
        if self._arrays:  # Python numbers: the reply is pickled
            keys, contenders = keys.tolist(), contenders.tolist()
        return self._awake_count(), keys, [to_global[p] for p in contenders]

    def run_slots(self, epoch: Epoch) -> Tuple[int, List[Record], Optional[Contention]]:
        """An epoch: whole slots, while they are this core's alone.

        The caller vouches that no other core has anything awake, so
        every contender is hosted here and the local greedy pass is the
        global one.  Runs up to ``budget`` slots and stops *before*
        granting one in which a hosted node on the cut contends — what
        it fires may be heard on another core — handing back that slot's
        :meth:`begin_slot` reply for the caller to finish; *after* one
        that decoded a generation, whose ACK the driver has to signal
        before the next tick; and when nothing is left awake.  Returns
        the awake count, a record per slot run and the unfinished slot.
        """
        budget, events, named = epoch
        if events:
            self.apply_events(events)
        grant = self._scheduler.grant_from_keyed
        cut = self._cut
        arrays = self._arrays
        records: List[Record] = []
        self._epoch = records
        if self._packed is not None and not self._objects:
            unfinished = self._run_compiled(budget, named, records)
            return self._awake_count(), records, unfinished
        while budget > 0:
            keys, contenders = self._contend()
            if cut and (
                self._cut_mask[contenders].any() if arrays else not cut.isdisjoint(contenders)
            ):
                return self._awake_count(), records, self._contention(keys, contenders)
            # The contenders by ascending key, ties by ascending position:
            # what sorting (key, position) pairs gives, and a stable sort
            # of the keys alone (the contenders come in position order).
            if arrays:
                ordered = contenders[np.argsort(keys, kind="stable")].tolist()
            else:
                ordered = [position for _key, position in sorted(zip(keys, contenders))]
            granted = grant(ordered)
            awake, happened = self.fire_resolve(granted)
            records.append((granted if named else len(granted), len(keys), happened))
            budget -= 1
            if not awake or (happened and any(event[2] == "decoded" for event in happened)):
                break
        return self._awake_count(), records, None

    def _run_compiled(
        self, budget: int, named: bool, records: List[Record]
    ) -> Optional[Contention]:
        """:meth:`run_slots` on the compiled loop, one call per stretch of
        slots between its exits: a slot left to the object path is
        resolved, settled and recorded here, as :meth:`fire_resolve` and
        the loop would; a cut slot's contention is returned unfinished."""
        core = self._packed
        columns = self._columns
        assert core is not None and columns is not None and self._kernel is not None
        if budget > self._slot_out.shape[1]:
            self._slot_out = np.zeros((2, budget), dtype=np.int64)
            core.slot_granted = native.address(self._slot_out[0], np.int64, (budget,))
            core.slot_contenders = native.address(self._slot_out[1], np.int64, (budget,))
        core.named = named
        # The bank callbacks live for this call only: held by the core,
        # they would tie it into a cycle that outlives its session (and
        # so would ``ctypes.cast``).
        callbacks = (native.Refill(self._refill), native.Unbanked(self._unbanked))
        core.refill, core.unbanked = (
            ctypes.c_void_p.from_buffer(callback).value for callback in callbacks
        )
        while budget > 0:
            if columns.reallocations != self._pointed:
                self._point_columns()
            core.ticks = columns._ticks
            status = self._kernel(ctypes.byref(core), budget)
            columns._ticks = core.ticks
            if status == native.FAILED:
                error, self._kernel_error = self._kernel_error, None
                raise error or RuntimeError("compiled slot loop: a queue level out of range")
            slots = core.slots
            pending = status == native.FALLBACK
            granted: List[Any] = self._slot_out[0, : slots + pending].tolist()
            contenders = self._slot_out[1, : slots + pending].tolist()
            if named:
                ids = self._granted_ids[: core.ids].tolist()
                ends = np.cumsum(granted).tolist()
                granted = [tuple(ids[end - size : end]) for size, end in zip(granted, ends)]
            records.extend([(g, k, []) for g, k in zip(granted[:slots], contenders[:slots])])
            budget -= slots
            if status == native.CUT:
                count = core.contenders
                return self._contention(self._key_out[:count], self._contender_out[:count])
            if status == native.ASLEEP:
                break
            if pending:
                happened: List[Event] = []
                entries: List[Entry] = []
                fallbacks = self._fallback_out[: core.fallbacks].tolist()
                for receiver, rank, place, sender, session, gen, level in fallbacks:
                    packet = FlowPacket(session, gen, float(level))
                    entries.append((receiver, [(rank, place, sender, "coded", packet)]))
                self._resolve_objects(entries, happened)
                self._settle(())
                records.append((granted[slots], contenders[slots], happened))
                budget -= 1
                if not self._awake_count() or any(event[2] == "decoded" for event in happened):
                    break
        return None

    def epoch_slots(self, _argument: None = None) -> int:
        """Slots the last epoch completed: where it failed, if it raised."""
        return len(self._epoch)

    def fire(
        self, granted: Tuple[int, ...]
    ) -> Tuple[int, List[Event], List[Entry]]:
        """Fire this core's granted transmitters against the full grant.

        The complete granted tuple (all cores) arrives so blanking
        coverage and half-duplex checks see every transmitter.  Returns
        a ``tx`` event per transmission that actually fired (only when a
        tracer wants them) and what each receiver heard, receivers and
        arrivals both in place order.
        """
        events: List[Event] = []
        if self._arrays:
            offers = self._offers(self._fire_arrays(granted, events))
        else:
            offers = self._fire(granted, events)
        return self._awake_count(), events, list(offers.items())

    def _fire(
        self, granted: Tuple[int, ...], events: List[Event]
    ) -> Dict[int, List[Arrival]]:
        """Transmissions and per-link loss draws of one slot.

        The granted set is conflict-free under the scheduler's relation;
        what happens when two granted transmitters still cover a common
        receiver depends on the interference model:

        * ``"blanking"`` (default; Drift's model, Sec. 5: "a node cannot
          receive packets if it falls in the range of an interfering
          node") — the receiver hears nothing that slot.  Uncontrolled
          saturation therefore costs throughput quadratically, which is
          exactly the congestion penalty OMNC's rate control is designed
          to avoid.
        * ``"capture"`` — the receiver keeps exactly one of the arrivals
          (uniform choice, in :meth:`resolve`): an idealized receiver
          that time-shares its airtime, the fluid reading of broadcast
          constraint (4).
        * ``"conflict_free"`` — cannot happen: the scheduler already
          serializes shared-receiver transmitters (two-hop conflicts),
          the Sec. 3.2 idealized broadcast MAC.
        """
        granted_flags = self._granted_flags
        covered = self._covered_counts
        blanking = self._blanking
        runtimes = self._runtimes
        loss = self._loss_draws
        transmissions = self._transmissions
        observed = self._obs_enabled
        traced = self._traced
        for node in granted:
            granted_flags[node] = True
        if blanking:
            # Only this model counts coverage: under the others the
            # counts stay 0 and nobody below is ever blanked.
            for node in granted:
                for j in self._cov_list[node]:
                    covered[j] += 1
        offers: Dict[int, List[Arrival]] = {}
        try:
            for rank, node in enumerate(granted):
                runtime = runtimes.get(node)
                if runtime is None:
                    continue  # hosted by another core
                if isinstance(runtime, UnicastRuntime):
                    packet: Any = runtime.peek_sequence()
                    target = runtime.next_hop
                    if packet is None or target is None:
                        continue
                    self._pending_unicast[node] = False
                else:
                    packet = runtime.pop_transmission()
                    if packet is None:
                        continue
                    target = None
                transmissions[node] += 1
                if observed:
                    self._m_tx.inc()
                if traced:
                    events.append((-1, rank, "tx", node))
                if target is not None:
                    if granted_flags[target]:
                        continue  # half-duplex: a transmitter cannot receive
                    if covered[target] > 1:
                        if observed:
                            self._m_blanked.inc()
                        continue  # hidden-terminal collision at the receiver
                    # One uniform of the transmitter's stream, only over
                    # a usable link.
                    p = self._network.probability(node, target)
                    if p > 0.0 and (loss[node] or loss.refill(node)).pop() < p:
                        offers.setdefault(target, []).append(
                            (rank, 0, node, "unicast", packet)
                        )
                    continue
                candidate_ids: List[int] = []
                candidate_probs: List[float] = []
                blanked = 0
                for j, p in self._rx_pairs[node]:
                    if granted_flags[j]:
                        continue
                    if covered[j] > 1:
                        # Coverage is geometric: a receiver with no
                        # usable link from this transmitter is still
                        # blanked, matching the paper's model.
                        blanked += 1
                        continue
                    if p > 0.0:
                        candidate_ids.append(j)
                        candidate_probs.append(p)
                if blanked and observed:
                    self._m_blanked.inc(blanked)
                if not candidate_ids:
                    continue
                # One uniform per candidate, in ascending receiver order,
                # the next of the transmitter's own stream.
                uniforms = loss.take(node, len(candidate_ids))
                pos = 0
                for j, p, u in zip(candidate_ids, candidate_probs, uniforms):
                    if u < p:
                        offers.setdefault(j, []).append((rank, pos, node, "coded", packet))
                        pos += 1
        finally:
            for node in granted:
                granted_flags[node] = False
            if blanking:
                for node in granted:
                    for j in self._cov_list[node]:
                        covered[j] = 0
        return offers

    def _fire_arrays(
        self, granted: Tuple[int, ...], events: List[Event]
    ) -> Optional[_Broadcast]:
        """:meth:`_fire` with every hosted transmitter and receiver at once.

        The granted column rows pop their queue heads in one call
        (:meth:`Columns.pop`); object rows pop theirs one by one.  What
        is per neighbour becomes one row of the padded arrays per
        transmitter: a candidate is what the scalar form makes one,
        tested in its order (not transmitting, not blanked, a usable
        link), and each transmitter's uniforms are the next of its own
        "channel" stream, one per candidate in ascending receiver order —
        the scalar form's draws and arrivals, bit for bit.  Returns
        nothing when nothing hosted fired.
        """
        if not granted:
            return None
        granted_nodes = np.array(granted, dtype=np.intp)
        hosted = self._position_of[granted_nodes]
        ranks = np.flatnonzero(hosted >= 0)  # the rest are another core's
        rows = hosted[ranks]
        columns = self._columns
        assert columns is not None
        packets: Dict[int, Any] = {}
        if not self._objects:
            fired, levels = columns.pop(rows)
            from_columns = np.ones(len(levels), dtype=bool)
        else:
            from_columns = columns.held[rows]
            fired = np.ones(len(rows), dtype=bool)
            held = np.flatnonzero(from_columns)
            popped, heads = columns.pop(rows[held])
            fired[held] = popped
            levels = np.zeros(len(rows), dtype=np.int64)
            levels[held[popped]] = heads
            objects = {}
            for index in np.flatnonzero(~from_columns).tolist():
                packet = self._runtime_list[rows[index]].pop_transmission()
                if packet is None:
                    fired[index] = False
                else:
                    objects[index] = packet
            index_after = np.cumsum(fired) - 1  # an index among those that fired
            packets = {int(index_after[index]): packet for index, packet in objects.items()}
            levels, from_columns = levels[fired], from_columns[fired]
        if not fired.all():
            ranks, rows = ranks[fired], rows[fired]
        if not rows.size:
            return None
        nodes = self._node_of[rows]
        self._fired[rows] += 1
        if self._obs_enabled:
            self._m_tx.inc(len(rows))
        if self._traced:
            events.extend(
                (-1, rank, "tx", node) for rank, node in zip(ranks.tolist(), nodes.tolist())
            )
        ids = self._rx_ids[rows]
        probabilities = self._rx_p[rows]
        transmitting = self._granted_mask
        transmitting[granted_nodes] = True
        candidate = ~transmitting[ids]
        transmitting[granted_nodes] = False
        if self._blanking:
            # How many granted coverage disks each node falls in (the
            # pad cell collects the short rows' filler).
            covered = np.bincount(
                self._cov[self._cov_row[granted_nodes]].reshape(-1),
                minlength=len(transmitting),
            )
            covered[-1] = 0
            clear = covered[ids] <= 1
            if self._obs_enabled:
                blanked = np.count_nonzero(candidate & ~clear)
                if blanked:
                    self._m_blanked.inc(blanked)
            candidate &= clear
        candidate &= probabilities > 0.0
        uniforms = self._loss_bank.take(
            self._loss_rows[rows], np.count_nonzero(candidate, axis=1)
        )
        heard = np.zeros(candidate.shape, dtype=bool)
        heard[candidate] = uniforms < probabilities[candidate]
        return _Broadcast(
            ranks=ranks,
            nodes=nodes,
            rows=rows,
            from_columns=from_columns,
            packets=packets,
            sessions=columns.session[rows],
            generations=columns.generation[rows],
            levels=levels,
            receivers=ids,
            heard=heard,
            # A receiver's index among those its transmitter delivered to.
            delivery_pos=np.cumsum(heard, axis=1) - 1,
        )

    def _offers(self, broadcast: Optional[_Broadcast]) -> Dict[int, List[Arrival]]:
        """What each receiver heard, receivers and arrivals in place order:
        by grant rank, then ascending receiver (row-major)."""
        offers: Dict[int, List[Arrival]] = {}
        if broadcast is None:
            return offers
        senders, cells = np.nonzero(broadcast.heard)
        ranks, nodes = broadcast.ranks.tolist(), broadcast.nodes.tolist()
        for sender, receiver, pos in zip(
            senders.tolist(),
            broadcast.receivers[senders, cells].tolist(),
            broadcast.delivery_pos[senders, cells].tolist(),
        ):
            offers.setdefault(receiver, []).append(
                (ranks[sender], pos, nodes[sender], "coded", broadcast.packet(sender))
            )
        return offers

    def _captured(self, receivers: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per receiver of one slot's arrivals (row-major order), in place
        order: the index of its first arrival and of the one it keeps.

        A receiver that heard several keeps one drawn from its own
        capture stream, as in :meth:`_resolve`.
        """
        count = len(receivers)
        order = np.argsort(receivers, kind="stable")
        ranked = receivers[order]
        starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
        if len(starts) == count:
            everyone = np.arange(count)
            return everyone, everyone
        first = order[starts]
        kept = first.copy()
        sizes = np.diff(np.append(starts, count))
        for group in np.flatnonzero(sizes > 1).tolist():
            start, size = int(starts[group]), int(sizes[group])
            index = int(self._capture[int(ranked[start])].integers(0, size))
            kept[group] = order[start + index]
        place = np.argsort(first)
        return first[place], kept[place]

    def _absorb(self, broadcast: Optional[_Broadcast], events: List[Event]) -> None:
        """:meth:`_resolve` for what :meth:`_fire_arrays` delivered here.

        A column row hearing a column row's packet takes it in
        :meth:`Columns.absorb`, its link recorded in ``_delivered``;
        every other arrival — to an object row, from one, or one that
        :meth:`Columns.absorb` hands back — is an entry for
        :meth:`_resolve_objects`.  Events come out in place order.
        """
        if broadcast is None:
            return
        senders, cells = np.nonzero(broadcast.heard)
        if not senders.size:
            return
        receivers = broadcast.receivers[senders, cells]
        places = broadcast.delivery_pos[senders, cells]
        if self._blanking or self._two_hop:
            # Nobody hears two transmitters (blanked, or never granted
            # together): every arrival is kept, already in place order.
            ranks = broadcast.ranks[senders]
        else:
            first, kept = self._captured(receivers)
            ranks, places = broadcast.ranks[senders[first]], places[first]
            senders, cells, receivers = senders[kept], cells[kept], receivers[kept]
        positions = self._position_of[receivers]
        columns = self._columns
        assert columns is not None
        fast = columns.held[positions] & broadcast.from_columns[senders]
        quick = np.flatnonzero(fast)
        if quick.size:
            rows, by = positions[quick], senders[quick]
            transmitters, cells_quick = broadcast.rows[by], cells[quick]
            columns.wake(rows)
            back = columns.absorb(
                rows,
                transmitters,
                cells_quick,
                broadcast.generations[by],
                broadcast.sessions[by],
                broadcast.levels[by],
            )
            if back.any():
                fast[quick[back]] = False
                quick, transmitters, cells_quick = (
                    quick[~back], transmitters[~back], cells_quick[~back]
                )
            self._delivered[transmitters, cells_quick] = True
            if self._obs_enabled:
                self._m_deliveries.inc(len(quick))
        slow = np.flatnonzero(~fast)
        resolved: List[Event] = []
        if slow.size:
            nodes = broadcast.nodes
            entries: List[Entry] = [
                (receiver, [(rank, place, int(nodes[sender]), "coded", broadcast.packet(sender))])
                for receiver, rank, place, sender in zip(
                    receivers[slow].tolist(),
                    ranks[slow].tolist(),
                    places[slow].tolist(),
                    senders[slow].tolist(),
                )
            ]
            self._resolve_objects(entries, resolved)
        if self._traced and quick.size:
            resolved.extend(
                (rank, place, "delivery", sender, receiver)
                for rank, place, sender, receiver in zip(
                    ranks[quick].tolist(),
                    places[quick].tolist(),
                    broadcast.nodes[senders[quick]].tolist(),
                    receivers[quick].tolist(),
                )
            )
            resolved.sort(key=itemgetter(0, 1))
        events.extend(resolved)

    def resolve(
        self, entries: Iterable[Entry]
    ) -> Tuple[int, List[Event], List[int]]:
        """Per-receiver resolution for this core's hosted receivers.

        A receiver keeps at most one delivery per slot; one that heard
        several draws the tie-break from its own capture stream, so
        cross-receiver processing order cannot perturb any draw.
        Returns what happened, each event led by its receiver's place —
        decode / delivery log entries always, the delivery a receiver
        kept only when a tracer wants it — and the senders whose unicast
        attempt got through.  Closes the slot unless :meth:`finish_slot`
        still has unicast attempts to settle.
        """
        events: List[Event] = []
        successes = self._resolve_objects(list(entries), events)
        if not self._has_unicast:
            self._settle(())
        return self._awake_count(), events, successes

    def _resolve(self, entries: Iterable[Entry], events: List[Event]) -> List[int]:
        successes: List[int] = []
        log = self._log
        traced = self._traced
        observed = self._obs_enabled
        runtimes = self._runtimes
        wake = self._awake.wake
        positions = self._positions
        delivered_links = self._delivered_links
        for receiver, arrivals in entries:
            index = 0
            if len(arrivals) > 1:
                index = int(self._capture[receiver].integers(0, len(arrivals)))
            _rank, _pos, sender, kind, payload = arrivals[index]
            delivered_links.add((sender, receiver))
            if observed:
                self._m_deliveries.inc()
            wake(positions[receiver])
            if kind == "unicast":
                runtimes[receiver].receive_sequence(payload)  # type: ignore[attr-defined]
                successes.append(sender)
            else:
                runtimes[receiver].on_receive(payload, sender)
            if traced or log.events:
                place = arrivals[0][:2]
                if traced:
                    events.append((*place, "delivery", sender, receiver))
                events.extend((*place, tag, value) for tag, value in log.drain())
        return successes

    def _resolve_objects(self, entries: List[Entry], events: List[Event]) -> List[int]:
        """:meth:`_resolve`, the column rows among the receivers taken
        through their objects."""
        with self._through_objects(self._positions[receiver] for receiver, _ in entries):
            return self._resolve(entries, events)

    def fire_resolve(self, granted: Tuple[int, ...]) -> Tuple[int, List[Event]]:
        """An interior slot: resolve what was fired where it was fired.

        The session asks for this when no granted transmitter has a
        neighbour hosted by another core, so every arrival :meth:`fire`
        builds belongs to a receiver hosted here and nobody else's can —
        no packet leaves the process, and unicast attempts settle on the
        spot.
        """
        events: List[Event] = []
        if self._arrays:
            self._absorb(self._fire_arrays(granted, events), events)
            self._settle(())
        else:
            offers = self._fire(granted, events)
            self._settle(self._resolve(offers.items(), events) if offers else ())
        return self._awake_count(), events

    def finish_slot(self, successes: Sequence[int]) -> Tuple[int]:
        """Settle hosted unicast attempts, then sample queues.

        On a cross-cut slot this is its own barrier, and only for a
        session with unicast runtimes: the head-of-line pop in
        ``complete_transmission`` changes queue lengths, so sampling
        must wait for the success verdicts that the receivers' cores
        produced in :meth:`resolve`.
        """
        self._settle(successes)
        return (self._awake_count(),)

    def _settle(self, successes: Sequence[int]) -> None:
        """Close the slot: unicast verdicts (success = resolved
        delivery) to those who attempted, then the queue samples."""
        if self._pending_unicast:
            for node in self._pending_unicast:
                self._runtimes[node].complete_transmission(  # type: ignore[attr-defined]
                    node in successes
                )
            self._pending_unicast.clear()
        queue_times = self._queue_time_buf
        if self._obs_enabled:
            # The histogram takes one sample per runtime per slot, in
            # participant order, parked or not (parked ones read 0).
            for position, queue_length in enumerate(self._queue_lengths()):
                queue_times[position] += queue_length
                self._m_queue.observe(queue_length)
        else:
            self._awake.sample_queues(self._runtime_list, queue_times)
            if self._columns is not None:
                self._columns.sample(queue_times)
        if self._composites:
            self._sample_sessions(1)

    def _sample_sessions(self, slots: int) -> None:
        """Every composite's queue sample, ``slots`` times, split by active
        session (a parked composite's sessions all hold empty queues)."""
        for composite, times in self._composites:
            for session_id, runtime in composite.active_runtimes:
                times[session_id] += runtime.queue_length() * slots

    def _queue_lengths(self) -> List[int]:
        """Every hosted runtime's queue length, in position order."""
        if self._columns is None:
            return [runtime.queue_length() for runtime in self._runtime_list]
        lengths: List[int] = self._columns.queue.tolist()
        for position in self._objects:
            lengths[position] = self._runtime_list[position].queue_length()
        return lengths

    # -- control plane -------------------------------------------------

    def advance_idle(self, slots: int) -> None:
        """Stall the data plane for ``slots`` slots: queues hold their
        occupancy (their time-integral keeps accruing), credits do not
        accrue, and **no RNG stream is consumed**."""
        queue_times = self._queue_time_buf
        for position, queue_length in enumerate(self._queue_lengths()):
            queue_times[position] += queue_length * slots
            if self._obs_enabled:
                self._m_queue.observe(queue_length)
        self._sample_sessions(slots)

    def set_network(self, network: WirelessNetwork) -> None:
        """Swap the topology: the loss model and every precomputed
        neighbor/receiver structure; RNG streams, and the values pre-drawn
        from them, are untouched."""
        self._flush()
        self._network = network
        self._build_structures()

    def install_plan(self, plan: Install) -> None:
        """A re-plan where the nodes live: retune, build and drop hosted
        runtimes (:func:`~repro.emulator.node.install_runtimes`) and host
        the result among the new participants.  A built runtime draws
        from this core's seed and reports to this core's recorder, as
        one built with the session would; a dropped node's counters stay.
        """
        settings, participants, terms = plan
        self._flush()
        if self._columns is not None:  # retuned objects keep what their rows hold
            self._columns.store(self._columns.rows)
        log = self._log
        runtimes = install_runtimes(
            settings, self._runtimes, terms,
            coding=self._factory, on_decoded=log, on_delivered=log.deliver,
        )
        self._host(runtimes, participants)

    def apply_plan(self, updates: Mapping[int, Mapping[str, Any]]) -> None:
        """Hot-swap plan parameters on the hosted ones of ``updates``' nodes."""
        hosted = [
            (self._positions[node], params) for node, params in updates.items()
            if node in self._positions
        ]
        with self._through_objects(position for position, _params in hosted):
            for position, params in hosted:
                self._runtime_list[position].apply_plan(**params)
                self._awake.wake(position)

    def close(self) -> None:
        """Nothing to release: the core lives and dies with its process."""

    # -- results -------------------------------------------------------

    def parked_nodes(self, _argument: None = None) -> List[int]:
        """Hosted nodes the slot loop currently skips (introspection)."""
        parked = self._awake.parked_positions()
        if self._columns is not None:
            parked = sorted(parked + self._columns.parked().tolist())
        return [self._owned[i] for i in parked]

    def _flush(self) -> None:
        """Publish the flat per-position accumulators into the per-node
        records: queue-time integrals and, on an array core, the
        transmissions and delivered links counted since the last flush."""
        if self._columns is None:
            self._queue_time.update(zip(self._owned, self._queue_time_buf))
            return
        self._queue_time.update(zip(self._owned, self._queue_time_buf.tolist()))
        for position in np.flatnonzero(self._fired).tolist():
            self._transmissions[self._owned[position]] += int(self._fired[position])
        self._fired[:] = 0
        rows, cells = np.nonzero(self._delivered)
        self._delivered_links.update(
            zip(self._node_of[rows].tolist(), self._rx_ids[rows, cells].tolist())
        )
        self._delivered[:] = False

    def finalize(self, _argument: None = None) -> Dict[str, Any]:
        """This core's stats for the session's merge (non-destructive)."""
        self._flush()
        if self._columns is not None:  # objects hold what their rows do
            self._columns.store(self._columns.rows)
        delivered = sorted(self._delivered_links)
        # A delivery is recorded where its receiver is hosted.
        into: Dict[int, List[Link]] = {}
        for link in delivered:
            into.setdefault(link[1], []).append(link)
        sessions: Dict[Tuple[int, int], SessionCounters] = {}
        for node, session_id in self._session_of.items():
            runtime = self._runtimes.get(node)
            sessions[session_id, node] = SessionCounters(
                self._queue_time[node],
                self._transmissions[node],
                into.get(node, []),
                0 if runtime is None else runtime.blocks_decoded,
            )
        for composite, times in self._composites:
            for session_id, entry in composite.session_stats().items():
                sessions[session_id, composite.node_id] = SessionCounters(
                    times[session_id],
                    entry["transmissions"],
                    entry["delivered_links"],
                    entry["blocks_decoded"],
                )
        return {
            "queue_time_sum": dict(self._queue_time),
            "transmissions": dict(self._transmissions),
            "delivered_links": delivered,
            "sessions": sessions,
            "xor_transmissions": {
                composite.node_id: composite.xor_transmissions
                for composite, _times in self._composites
            },
        }


def compilable(init: CoreInit) -> bool:
    """Whether a core built from ``init`` now may run its epochs on the
    compiled slot loop: flow rows only, no unicast, untraced, unobserved,
    and no capture draws (the loop keeps none)."""
    return (
        not init.has_unicast
        and not init.traced
        and not obs.get_registry().enabled
        and init.interference != "capture"
        and all(type(runtime) in FLOW_KINDS for runtime in init.runtimes.values())
    )


@functools.cache
def compiled_kernel() -> Optional[native.Kernel]:
    """The compiled slot loop, or ``None`` where it cannot build, load or
    pass :func:`_self_test` (one logged warning; the verdict holds for
    the process)."""
    run = native.load()
    if run is None or not _self_test(run):
        logging.getLogger(__name__).warning(
            "the compiled slot loop is unavailable here; flow cores run their Python phases"
        )
        return None
    return run


def _self_test(run: native.Kernel) -> bool:
    """Epochs on a five-node line on the numpy phases and on ``run``,
    equal by ``repr`` slot by slot and in every array at the end: rate
    and credit relays under blanking, a source that drops, refills,
    decodes taken through the object path, generation advances and a
    generation-size switch."""
    from repro.emulator.plan import CodingParams  # only a self-test needs it

    class Reference(EngineCore):
        def _form(self, init: CoreInit) -> Tuple[bool, Optional[native.Kernel]]:
            return True, None

    class Candidate(EngineCore):
        def _form(self, init: CoreInit) -> Tuple[bool, Optional[native.Kernel]]:
            return True, run

    line = range(5)
    network = WirelessNetwork(
        np.array([[0.6 * node, 0.0] for node in line]),
        {(i, j): 0.9 for i in line for j in line if abs(i - j) == 1},
        1.0,
        capacity=1e5,
    )
    size, rate = 1000, 8e4  # bytes a packet, bytes a second
    outcomes = []
    for make in (Reference, Candidate):
        log = _DecodeLog()
        runtimes: Dict[int, NodeRuntime] = {
            0: FlowSourceRuntime(0, 1, 2, rate, size, queue_limit=3),
            1: FlowRelayRuntime(1, 1, 2, size, mode="rate", rate_bps=0.75 * rate),
            2: FlowRelayRuntime(2, 1, 2, size, mode="credit", tx_credit=0.7, upstream=(1,)),
            3: FlowRelayRuntime(3, 1, 2, size, mode="credit", tx_credit=1.3, upstream=(2,)),
            4: FlowDestinationRuntime(4, 1, 2, on_decoded=log),
        }
        init = CoreInit(
            network, runtimes, tuple(line), size / network.capacity, "blanking", 7,
            has_unicast=False, decode_log=log,
        )
        trail = []
        with obs.collecting(obs.MetricsRegistry(enabled=False)):
            core = make(init)
            generation = 0
            for epoch, budget in enumerate((1, 3, 20, 40)):
                if epoch == 2:
                    core.apply_plan({node: {"coding": CodingParams(blocks=5)} for node in line})
                events = [("advance_generation", generation)] if generation else None
                reply = core.run_slots((budget, events, epoch % 2 == 0))
                trail.append(reply)
                generation += any(e[2] == "decoded" for *_r, happened in reply[1] for e in happened)
            columns = core._columns
            assert columns is not None
            state = [getattr(columns, attribute) for _name, attribute, _dtype in native.COLUMNS]
            state += [core._queue_time_buf, core._fired, core._delivered]
            for bank in (core._mac_bank, core._loss_bank):
                rows = [bank._row_of[node] for node in sorted(bank._streams)]
                state += [bank._cursor, *(bank._values[row, bank._cursor[row] :] for row in rows)]
            outcomes.append(repr((trail, core.finalize(), [a.tolist() for a in state], generation)))
    return outcomes[0] == outcomes[1]
