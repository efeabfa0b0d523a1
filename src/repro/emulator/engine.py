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
A session drives one core that hosts every node by direct method
calls; a sharded one (the benchmark's relay line) hosts one core per
worker process and drives the same methods through pipes — whole
epochs of slots while one core holds everything awake, a phase at a
time while several do.  A core runs in one of two forms, the same bit
for bit: the scalar form loops over runtime objects, the compiled form
(:mod:`repro.emulator.native`) makes each epoch and each phase one call
into C over the runtimes' rows.
It is protocol-agnostic: behaviour differences live entirely in the
runtimes (:mod:`repro.emulator.node`) and the plans that configured them.
"""

from __future__ import annotations

import ctypes
import functools
import logging
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import (
    Any, ContextManager, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Set,
    Tuple,
)

import numpy as np

from repro import obs
from repro.emulator import native
from repro.emulator.awake import AwakeSet
from repro.emulator.columns import COMPOSITES, EXACT_KINDS, KINDS as ROW_KINDS
from repro.emulator.columns import Columns, session_rows
from repro.coding.packet import CodedPacket
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
    RuntimeTerms,
    UnicastRuntime,
    XorPacket,
    check_slot_credit,
    install_runtimes,
)
from repro.emulator.plan import NodeSettings
from repro.emulator.scheduler import ConflictGraph, IdealMacScheduler
from repro.topology.graph import Link, WirelessNetwork
from repro.util.rng import DrawBuffers, NodeStreams, RngFactory

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
#: The events of every compiled slot in which nothing happened (never changed).
_QUIET: List[Event] = []
#: An epoch's terms: (slot budget, queued control signals, name the granted?,
#: decodes after which to return — None: no limit).
Epoch = Tuple[int, Optional[Sequence[Sequence[Any]]], bool, Optional[int]]
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
    order into :attr:`acks` and :attr:`delivered` of *its* copy (in one
    process the same object), which a driver reads.
    """

    def __init__(self) -> None:
        self.events: List[Tuple[str, Any]] = []
        #: ``(event, time)`` per decoded generation, in slot order; the
        #: event is a generation id, or ``(session_id, generation_id)``
        #: from a callback bound to a session.
        self.acks: List[Tuple[Any, float]] = []
        #: unicast packets that reached their sink
        self.delivered = 0

    def __call__(self, generation_id: int, session_id: int | None = None) -> None:
        decoded = generation_id if session_id is None else (session_id, generation_id)
        self.events.append(("decoded", decoded))

    def deliver(self, sequence: int) -> None:
        """A unicast sink's ``on_delivered``."""
        self.events.append(("delivered", sequence))

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
    ``tx`` and ``delivery`` events the session's event tracer records.
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


def acknowledgements(events: Iterable[Event]) -> List[Tuple[Any, ...]]:
    """The ACKs of the decodes among one slot's ``events`` (those the
    recorder heard), in order, as control events: generation ``g``
    decoded moves every runtime on to ``g + 1`` (the paper's uncoded ACK,
    modelled as fast and reliable) — a decode bound to a session, that
    session's sub-runtimes only."""
    return [
        ("advance_session_generation", event[3][0], event[3][1] + 1)
        if isinstance(event[3], tuple) else ("advance_generation", event[3] + 1)
        for event in events if event[2] == "decoded"
    ]


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
    vector one slice (:class:`~repro.util.rng.DrawBuffers`).  A core that
    :func:`compilable` admits runs compiled while :func:`compiled_kernel`
    loads (:mod:`repro.emulator.native`): its runtimes are rows of
    :class:`~repro.emulator.columns.Columns`, its draws come from a
    :class:`~repro.emulator.native.StreamBank` drawn in C, :meth:`run_slots` is one call per
    stretch of slots, and :meth:`begin_slot`, :meth:`fire` and
    :meth:`fire_resolve` are one call each — the scalar form's arithmetic
    in its order.  What the kernel hands back (a relay hearing a newer
    generation, an arrival from another core, an ACK while a row holds a
    deferred coding decision) goes through the runtime objects.  The form
    is picked once, at construction.  In either form a slot that decoded
    ends with its ACKs applied (:func:`acknowledgements`), in the kernel
    where it can, and the epoch goes on.
    """

    def __init__(self, init: CoreInit) -> None:
        self._network = init.network
        self._dt = init.slot_duration
        self._blanking = init.interference == "blanking"
        self._two_hop = init.interference == "conflict_free"
        self._traced = init.traced
        self._factory = factory = RngFactory(init.seed)
        self._capture = NodeStreams(factory, "capture")
        self._kernel = self._form(init)
        if self._kernel is not None:
            self._mac = native.StreamBank(self._kernel.take, factory, "mac")
            self._loss = native.StreamBank(self._kernel.take, factory, "channel")
        else:
            self._mac_draws = DrawBuffers(NodeStreams(factory, "mac"))
            self._loss_draws = DrawBuffers(NodeStreams(factory, "channel"))
        self._log = init.decode_log
        self._pending_unicast: Dict[int, bool] = {}
        self._delivered_links: Set[Link] = set()
        # Over every node ever hosted: a re-plan may drop a forwarder,
        # its airtime and queue integral stay in the session's stats.
        self._transmissions: Dict[int, int] = {}
        self._queue_time_sum: Dict[int, float] = {}
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

    def _form(self, init: CoreInit) -> Optional[native.Kernel]:
        """The compiled slot loop the core runs on, chosen once from what
        it is given to host (``None``: the scalar form).  Buffers and
        banks hold values their generators have already produced, so a
        node cannot move from one form to the other."""
        return compiled_kernel() if compilable(init) else None

    def _host(
        self, runtimes: Dict[int, NodeRuntime], participants: Tuple[int, ...]
    ) -> None:
        """Take ``runtimes`` as the hosted set (position-indexed views)."""
        for runtime in runtimes.values():
            check_slot_credit(runtime, self._dt)
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
        # its integral, new nodes start at zero.  A list, or on a compiled
        # core an array.
        self._queue_time: Any = [self._queue_time_sum.get(node, 0.0) for node in self._owned]
        self._columns: Optional[Columns] = None
        if self._kernel is None:
            self._awake = AwakeSet(len(self._owned))
        else:
            self._queue_time = np.array(self._queue_time)
            # Transmissions since the last flush, per hosted position.
            self._fired = np.zeros(len(self._owned), dtype=np.int64)
            self._columns = columns = Columns(
                self._runtime_list, self._dt, self._network.node_count
            )
            assert columns.role.all(), "a compiled core hosts row kinds only"
            # A composite row's slot-end queue integral carries over as the
            # position's does: (the session's integrals, session, row).
            self._session_rows = [
                (self._session_queue_time[self._owned[position]], int(columns.session[row]), row)
                for position in np.flatnonzero(columns.composite).tolist()
                for row in range(*columns.group_ptr[position : position + 2].tolist())
            ]
            for times, session, row in self._session_rows:
                columns.row_queue_time[row] = times[session]
            # Nobody to sweep: the rows keep their own awake flags.
            self._awake = AwakeSet(len(self._owned), ())
            self._node_of = np.array(self._owned, dtype=np.intp)
            # Node id -> hosted position, -1 where another core hosts it
            # (the pad id included).
            self._position_of = np.full(self._network.node_count + 1, -1, dtype=np.intp)
            self._position_of[self._node_of] = np.arange(len(self._owned))
            # Hosted position -> bank row.  A node keeps its row, cursor
            # and pre-drawn values when the hosted set is replaced.
            self._mac_rows = self._mac.rows_for(self._owned)
            self._loss_rows = self._loss.rows_for(self._owned)
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
        if self._kernel is not None:
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
            # Without blanking both stay empty: the kernel reads neither.
            covered = cov_list if self._blanking else {}
            self._cov, _own = _padded(list(covered.values()), node_count)
            self._cov_row = np.zeros(node_count if self._blanking else 0, dtype=np.intp)
            self._cov_row[list(covered)] = np.arange(len(covered))
            self._cut_mask = np.zeros(len(self._owned), dtype=bool)
            self._cut_mask[sorted(self._cut)] = True
            # Links delivered over since the last flush, cell by cell of
            # ``_rx_ids``; and MORE's per-reception credit, the same way.
            self._delivered = np.zeros(self._rx_ids.shape, dtype=bool)
            assert self._columns is not None
            self._columns.align(self._rx_ids, self._owned, self._position_of, network)
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
        if self._kernel is not None:
            self._pack()

    def _pack(self) -> None:
        """A fresh compiled loop for the structures as they stand: the
        scheduler's conflict sets as CSR, buffers for what it hands back,
        and every array it works on in place pointed at (:meth:`_point`)."""
        core = self._packed = native.Core()
        columns = self._columns
        assert columns is not None
        core.rows, core.positions = len(columns.role), len(self._owned)
        core.pad, core.rx_width, core.cov_width = (
            self._network.node_count, self._rx_ids.shape[1], self._cov.shape[1]
        )
        core.blanking, core.cut = self._blanking, bool(self._cut)
        core.park_interval = AwakeSet.PARK_INTERVAL
        core.floor = IdealMacScheduler.WEIGHT_FLOOR
        core.smoothing = FlowRelayRuntime._DEMAND_SMOOTHING
        count, pad = core.positions, core.pad
        conflicts = [sorted(blocked) for blocked in self._scheduler._conflict_pos]
        self._conflict_ptr = np.zeros(count + 1, dtype=np.int64)
        self._conflict_ptr[1:] = np.cumsum([len(blocked) for blocked in conflicts])
        self._conflict = np.array([p for blocked in conflicts for p in blocked], dtype=np.int64)
        # Granted and contenders per slot, grown to the largest budget
        # (:meth:`_run_compiled`), and ``(slot, rank, place, position,
        # value)`` per delivery to a sink or decode: at most one a slot
        # per row, as a rule far fewer.
        self._slot_granted = self._slot_contenders = np.zeros(0, dtype=np.int64)
        core.sink_capacity = core.rows
        self._sink_out = np.zeros((core.sink_capacity, 5), dtype=np.int64)
        core.id_capacity = 4 * max(count, 1)
        self._granted_ids = np.zeros(core.id_capacity, dtype=np.int64)
        self._contender_out = np.zeros(count + 1, dtype=np.int64)
        self._key_out = np.zeros(count + 1)
        # An arrival a row: every receiver hears at most one transmitter
        # (blanked otherwise, or never granted together), and a FIRE
        # hands back those of any node (an exact packet's vectors beside,
        # sized by :meth:`_point`).
        self._fallback_out = np.zeros((pad + 1, native.HANDED), dtype=np.int64)
        self._grant_in = np.zeros(pad + 1, dtype=np.int64)
        self._fallback_vectors = np.zeros((pad + 1, 0), dtype=np.uint8)
        self._pointed_arrays: Dict[str, Any] = {}  # what the fresh core points at
        self._point()

    @functools.cached_property
    def _sources(self) -> List[Tuple[str, bool, str, Optional[type], native.Shape]]:
        """Every :data:`native.POINTERS` entry with where its array lives:
        the columns' ``_pointer`` or ``pointer`` (``True``), else this
        core's ``_pointer``."""
        held = vars(self._columns)
        sources = []
        for pointer, dtype, shape in native.POINTERS:
            columns = pointer in held or "_" + pointer in held
            name = "_" + pointer if not columns or "_" + pointer in held else pointer
            sources.append((pointer, columns, name, dtype, shape))
        return sources

    def _point(self) -> None:
        """Point the compiled loop at every array whose object changed
        since it last looked — a column a load replaced, a grown output
        buffer; all of them on a fresh core — each checked against the
        bounds the kernel indexes it by."""
        core, columns = self._packed, self._columns
        assert columns is not None
        core.width = columns.levels.shape[1]
        core.vwidth = vwidth = columns.vwidth
        core.grouped = columns.grouped
        core.credit_count = len(columns._credit_rows)
        core.unicasts = len(columns._unicast_rows)
        if self._fallback_vectors.shape[1] != 2 * vwidth:
            self._fallback_vectors = np.zeros((core.pad + 1, 2 * vwidth), dtype=np.uint8)
        pointed = self._pointed_arrays
        for pointer, on_columns, name, dtype, shape in self._sources:
            held = getattr(columns if on_columns else self, name)
            if pointed.get(pointer) is not held:
                setattr(core, pointer, held.address if dtype is None else native.address(
                    held, dtype, shape(core), pointer
                ))
                pointed[pointer] = held
        self._pointed = columns.reallocations

    def _wake_everyone(self) -> None:
        self._awake.wake_everyone()
        if self._columns is not None:
            self._columns.awake[:] = True

    def _through_objects(self, positions: Iterable[int]) -> ContextManager[None]:
        """The row fallback (:meth:`Columns.through_objects`) around a
        block that calls the runtime objects at ``positions``; in either
        form those positions are awake after it."""
        if self._columns is None:
            for position in positions:
                self._awake.wake(position)
            return nullcontext()
        return self._columns.through_objects(np.fromiter(positions, dtype=np.intp))

    def _awake_count(self) -> int:
        """The size of the awake set."""
        if self._columns is None:
            return len(self._awake.positions)
        return self._columns.awake_count()

    # -- slot phases ---------------------------------------------------

    def apply_events(self, events: Iterable[Sequence[Any]]) -> None:
        """Apply queued control signals to every hosted runtime, in order.

        Each is ``(runtime method, *arguments)`` — a generation advance,
        a per-session advance, a session arrival or departure — queued
        by the session since the last call reached this core, or an ACK
        (:func:`acknowledgements`).  Column rows take them through their
        objects.
        """
        self._wake_everyone()
        with self._through_objects(range(len(self._owned))):
            for method, *arguments in events:
                for runtime in self._runtime_list:
                    getattr(runtime, method)(*arguments)

    def _contend(self) -> Tuple[List[float], List[int]]:
        """Tick clocks, draw lottery keys (the scalar form).

        One pass per awake runtime: clock advance, then scheduler inputs.
        Safe to fuse — runtimes only interact through deliveries, and
        each holds its own RNG, so per-node slot work is independent.
        Every contender draws one ``Exp(1)`` from its own "mac" stream,
        so a node's key sequence depends only on how often *it*
        contended.  Returns the hosted contenders' keys and their hosted
        positions, ascending.
        """
        floor = IdealMacScheduler.WEIGHT_FLOOR
        contenders, weights = self._awake.tick(self._runtime_list, self._dt)
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
        if self._kernel is not None:
            self._call(native.CONTEND)
            return self._handed_back()
        return self._contention(*self._contend())

    def _contention(self, keys: List[float], contenders: List[int]) -> Contention:
        to_global = self._global_positions
        return self._awake_count(), keys, [to_global[p] for p in contenders]

    def _handed_back(self) -> Contention:
        """The contention the kernel handed back (a :data:`native.CUT`)."""
        count = self._packed.contenders
        return self._contention(
            self._key_out[:count].tolist(), self._contender_out[:count].tolist()
        )

    def run_slots(self, epoch: Epoch) -> Tuple[int, List[Record], Optional[Contention]]:
        """An epoch: whole slots, while they are this core's alone.

        The caller vouches that no other core has anything awake, so
        every contender is hosted here and the local greedy pass is the
        global one.  Runs up to ``budget`` slots and stops *before*
        granting one in which a hosted node on the cut contends — what
        it fires may be heard on another core — handing back that slot's
        :meth:`begin_slot` reply for the caller to finish; *after* the
        one that brings its decodes to ``decodes``, where the caller's
        stop test can come true; and when nothing is left awake.  Returns
        the awake count, a record per slot run and the unfinished slot.
        """
        budget, events, named, decodes = epoch
        if events:
            self.apply_events(events)
        records: List[Record] = []
        self._epoch = records
        if self._kernel is not None:
            unfinished = self._run_compiled(budget, named, decodes, records)
            return self._awake_count(), records, unfinished
        grant = self._scheduler.grant_from_keyed
        cut = self._cut
        while budget > 0 and (decodes is None or decodes > 0):
            keys, contenders = self._contend()
            if cut and not cut.isdisjoint(contenders):
                return self._awake_count(), records, self._contention(keys, contenders)
            # The contenders by ascending key, ties by ascending position.
            ordered = [position for _key, position in sorted(zip(keys, contenders))]
            granted = grant(ordered)
            awake, happened = self.fire_resolve(granted)
            records.append((granted if named else len(granted), len(keys), happened))
            budget -= 1
            if decodes is not None and happened:
                decodes -= sum(event[2] == "decoded" for event in happened)
            if not awake:
                break
        return self._awake_count(), records, None

    def _call(self, phase: int, budget: int = 1) -> int:
        """One call into the compiled loop (``phase``: :data:`native.EPOCH`
        and the rest) on the columns as they stand; its status."""
        core = self._packed
        columns = self._columns
        assert columns is not None and self._kernel is not None
        if columns.reallocations != self._pointed:
            self._point()
        core.phase = phase
        core.ticks = columns._ticks
        status = self._kernel.run(ctypes.byref(core), budget)
        columns._ticks = core.ticks
        if status == native.FAILED:
            raise RuntimeError(
                "compiled slot loop: no memory for its scratch, a queue level out of range,"
                " a unicast next hop that is not a hosted unicast neighbour, or an arrival"
                " it cannot take"
            )
        return status

    def _run_compiled(
        self, budget: int, named: bool, decodes: Optional[int], records: List[Record]
    ) -> Optional[Contention]:
        """:meth:`run_slots` on the compiled loop, one call per stretch of
        slots between its exits: a slot left to the object path is
        resolved, settled and recorded here (:meth:`_fall_back`), an ACK
        left to it applied (:meth:`_acknowledge`); a cut slot's contention
        is returned unfinished."""
        core = self._packed
        if budget > len(self._slot_granted):
            self._slot_granted = np.zeros(budget, dtype=np.int64)
            self._slot_contenders = np.zeros(budget, dtype=np.int64)
            core.sink_capacity = budget + core.rows
            self._sink_out = np.zeros((core.sink_capacity, 5), dtype=np.int64)
            self._point()
        core.named = named
        while budget > 0 and (decodes is None or decodes > 0):
            core.decode_limit = -1 if decodes is None else decodes
            status = self._call(native.EPOCH, budget)
            slots = core.slots
            pending = status == native.FALLBACK
            granted: List[Any] = self._slot_granted[: slots + pending].tolist()
            contenders = self._slot_contenders[: slots + pending].tolist()
            if named:
                ids = self._granted_ids[: core.ids].tolist()
                ends = np.cumsum(granted).tolist()
                granted = [tuple(ids[end - size : end]) for size, end in zip(granted, ends)]
            first = len(records)
            records.extend(zip(granted[:slots], contenders[:slots], repeat(_QUIET)))
            unrecorded = self._sunk(core.sunk, records, first)
            budget -= slots
            if decodes is not None:
                decodes -= core.decodes
            if status == native.CUT:
                return self._handed_back()
            if status == native.ASLEEP:
                break
            if pending:
                happened = self._fall_back(unrecorded)
                records.append((granted[slots], contenders[slots], happened))
                budget -= 1
                if not self._awake_count():
                    break
            elif status == native.ACK:
                self._acknowledge(records[-1][2])
        return None

    def _fall_back(self, happened: List[Event]) -> List[Event]:
        """Finish a slot the kernel left at :data:`native.FALLBACK`: its
        handed-back arrivals through the runtime objects, then the queue
        samples and the ACKs.  Returns ``happened`` (the slot's sink and
        decode events) with what the objects logged, in place order."""
        self._resolve_objects(list(self._offers().items()), happened)
        happened.sort(key=itemgetter(0, 1))
        self._settle((), happened)
        return happened

    def _offers(self) -> Dict[int, List[Arrival]]:
        """The arrivals the last call handed back (row-major: in place
        order), by receiver, as :meth:`_fire` builds them."""
        offers: Dict[int, List[Arrival]] = {}
        count = self._packed.fallbacks
        handed = self._fallback_out[:count].tolist()
        width = self._columns.vwidth  # type: ignore[union-attr]
        vectors = self._fallback_vectors[:count].reshape(count, 2, width)
        for at, (receiver, rank, place, sender, exact, *parts) in enumerate(handed):
            components: List[Any] = [
                CodedPacket(session, generation, vectors[at, i, :level])
                if exact else FlowPacket(session, generation, float(level))
                for i, (session, generation, level) in enumerate((parts[:3], parts[3:]))
                if session >= 0
            ]
            packet = components[0] if len(components) == 1 else XorPacket(components)
            offers.setdefault(receiver, []).append((rank, place, sender, "coded", packet))
        return offers

    def _sunk(self, count: int, records: List[Record], first: int) -> List[Event]:
        """The kernel's ``count`` hand-backs: each unicast sink's
        ``on_delivered`` and each destination's ``on_decoded`` called in
        slot and place order, and what it logged put in the events of its
        slot's record, as :meth:`_resolve` puts it — slot ``i`` of the
        call is ``records[first + i]``.  Returns the events of the slot
        not recorded yet (one left to the object path)."""
        unrecorded: List[Event] = []
        log = self._log
        rows = self._columns._runtimes  # type: ignore[union-attr]
        for slot, rank, place, row, value in self._sink_out[:count].tolist():
            runtime: Any = rows[row]
            callback = getattr(runtime, "_on_decoded", None) or runtime._on_delivered
            if callback is not None:
                callback(value)
            if log.events:
                at = first + slot
                if at < len(records) and records[at][2] is _QUIET:
                    records[at] = (*records[at][:2], [])
                events = records[at][2] if at < len(records) else unrecorded
                events.extend((rank, place, tag, value) for tag, value in log.drain())
        return unrecorded

    def epoch_slots(self, _argument: None = None) -> int:
        """Slots the last epoch completed: where it failed, if it raised."""
        return len(self._epoch)

    def _grant(self, granted: Tuple[int, ...]) -> None:
        """Hand the kernel a slot's whole granted tuple."""
        self._grant_in[: len(granted)] = granted
        self._packed.grants = len(granted)

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
        if self._kernel is None:
            offers = self._fire(granted, events)
        else:
            self._grant(granted)
            self._call(native.FIRE)
            offers = self._offers()
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

    def resolve(self, entries: Iterable[Entry]) -> Tuple[int, List[Event]]:
        """Per-receiver resolution for this core's hosted receivers, then
        the queue samples that close the slot.

        A receiver keeps at most one delivery per slot; one that heard
        several draws the tie-break from its own capture stream, so
        cross-receiver processing order cannot perturb any draw.
        Returns what happened, each event led by its receiver's place —
        decode / delivery log entries always, the delivery a receiver
        kept only when a tracer wants it.  Only a flow or coded session
        is cut across cores, so no unicast attempt is left to settle.
        """
        events: List[Event] = []
        self._resolve_objects(list(entries), events)
        self._settle((), events)
        return self._awake_count(), events

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
        if self._kernel is None:
            offers = self._fire(granted, events)
            self._settle(self._resolve(offers.items(), events) if offers else (), events)
        else:
            self._grant(granted)
            status = self._call(native.RESOLVE)
            events = self._sunk(self._packed.sunk, [], 0)
            if status == native.FALLBACK:
                self._fall_back(events)
            elif status == native.ACK:
                self._acknowledge(events)
        return self._awake_count(), events

    def _settle(self, successes: Sequence[int], events: List[Event]) -> None:
        """Close the slot: unicast verdicts (success = resolved
        delivery) to those who attempted, the queue samples, then the
        ACKs of what ``events`` (the slot's) decoded."""
        if self._pending_unicast:
            for node in self._pending_unicast:
                self._runtimes[node].complete_transmission(  # type: ignore[attr-defined]
                    node in successes
                )
            self._pending_unicast.clear()
        queue_times = self._queue_time
        if self._columns is not None:
            queue_times += self._columns.position_queue()
        elif self._obs_enabled:
            # The histogram takes one sample per runtime per slot, in
            # participant order, parked or not (parked ones read 0).
            for position, queue_length in enumerate(self._queue_lengths()):
                queue_times[position] += queue_length
                self._m_queue.observe(queue_length)
        else:
            self._awake.sample_queues(self._runtime_list, queue_times)
        if self._composites:
            self._sample_sessions(1)
        self._acknowledge(events)

    def _acknowledge(self, events: List[Event]) -> None:
        """A slot's ACKs through the runtime objects."""
        if events and (acks := acknowledgements(events)):
            self.apply_events(acks)

    def _sample_sessions(self, slots: int) -> None:
        """Every composite's queue sample, ``slots`` times, split by active
        session (a parked composite's sessions all hold empty queues)."""
        if self._columns is not None:
            self._columns.sample_sessions(slots)
            return
        for composite, times in self._composites:
            for session_id, runtime in composite.active_runtimes:
                times[session_id] += runtime.queue_length() * slots

    def _queue_lengths(self) -> List[int]:
        """Every hosted runtime's queue length, in position order."""
        if self._columns is None:
            return [runtime.queue_length() for runtime in self._runtime_list]
        return self._columns.position_queue().tolist()

    # -- control plane -------------------------------------------------

    def advance_idle(self, slots: int) -> None:
        """Stall the data plane for ``slots`` slots: queues hold their
        occupancy (their time-integral keeps accruing), credits do not
        accrue, and **no RNG stream is consumed**."""
        queue_times = self._queue_time
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
            self._columns.store(np.arange(len(self._owned)))
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
        for position, params in hosted:  # refused before anything changes
            if params.get("rate_bps") is not None:
                check_slot_credit(self._runtime_list[position], self._dt, params["rate_bps"])
        with self._through_objects(position for position, _params in hosted):
            for position, params in hosted:
                self._runtime_list[position].apply_plan(**params)

    def close(self) -> None:
        """Nothing to release: the core lives and dies with its process."""

    # -- results -------------------------------------------------------

    def parked_nodes(self, _argument: None = None) -> List[int]:
        """Hosted nodes the slot loop currently skips (introspection)."""
        if self._columns is None:
            parked = self._awake.parked_positions()
        else:
            parked = self._columns.parked().tolist()
        return [self._owned[i] for i in parked]

    def _flush(self) -> None:
        """Publish the flat per-position accumulators into the per-node
        records: queue-time integrals and, on a compiled core, the
        transmissions and delivered links counted since the last flush."""
        if self._columns is None:
            self._queue_time_sum.update(zip(self._owned, self._queue_time))
            return
        self._queue_time_sum.update(zip(self._owned, self._queue_time.tolist()))
        for times, session, row in self._session_rows:
            times[session] = float(self._columns.row_queue_time[row])
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
            self._columns.store(np.arange(len(self._owned)))
        delivered = sorted(self._delivered_links)
        # A delivery is recorded where its receiver is hosted.
        into: Dict[int, List[Link]] = {}
        for link in delivered:
            into.setdefault(link[1], []).append(link)
        sessions: Dict[Tuple[int, int], SessionCounters] = {}
        for node, session_id in self._session_of.items():
            runtime = self._runtimes.get(node)
            sessions[session_id, node] = SessionCounters(
                self._queue_time_sum[node],
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
            "queue_time_sum": dict(self._queue_time_sum),
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
    compiled slot loop: flow, exact and unicast rows only (a composite's
    per-session runtimes are rows), untraced, unobserved, every
    destination reporting to the core's recorder — bound to its session in
    a composite — (the kernel ACKs each decode it absorbs), and no capture
    draws (the loop keeps none) — and, in a session with unicast, exact or
    composite runtimes, every participant hosted: a unicast attempt
    settles where it was fired and only :meth:`EngineCore.run_slots`
    drives it, and an exact packet or a composite's sessions never cross
    cores."""
    log = init.decode_log
    hosts = list(init.runtimes.values())
    types = set(map(type, hosts))
    composites = [host for host in hosts if type(host) in COMPOSITES] if types & COMPOSITES else []
    plain = [host for host in hosts if type(host) not in COMPOSITES] if composites else hosts
    shared = [row for host in composites for row in session_rows(host)]
    kinds = (types - COMPOSITES) | set(map(type, shared))
    if not kinds <= ROW_KINDS.keys():
        return False
    local = bool(composites) or not kinds.isdisjoint(EXACT_KINDS)
    return (
        not init.traced
        and not obs.get_registry().enabled
        and init.interference != "capture"
        and all(getattr(row, "_on_decoded", log) is log for row in plain)
        and all(_bound_to_session(row, log) for row in shared)
        and not any(isinstance(row, UnicastRuntime) for row in shared)
        and (not (init.has_unicast or local) or len(init.runtimes) == len(init.participants))
    )


def _bound_to_session(runtime: NodeRuntime, log: _DecodeLog) -> bool:
    """Whether a composite's ``runtime`` (a destination, else trivially)
    reports its decodes to ``log`` bound to its own session, as the
    kernel ACKs them."""
    callback = getattr(runtime, "_on_decoded", None)
    return callback is None or (
        isinstance(callback, functools.partial) and callback.func is log and not callback.args
        and callback.keywords == {"session_id": runtime.session_id}
    )


@functools.cache
def compiled_kernel() -> Optional[native.Kernel]:
    """The compiled slot loop, or ``None`` where it cannot build, load or
    pass :func:`_self_test` (one logged warning; the verdict holds for
    the process)."""
    kernel = native.load()
    if kernel is None or not _self_test(kernel):
        logging.getLogger(__name__).warning(
            "the compiled slot loop is unavailable here; every core runs the scalar slot loop"
        )
        return None
    return kernel


def _forced(kernel: Optional[native.Kernel]) -> type[EngineCore]:
    """A core class of one form, whatever it hosts: the self-test's two
    sides (``kernel`` None: the scalar form)."""

    class Forced(EngineCore):
        def _form(self, init: CoreInit) -> Optional[native.Kernel]:
            return kernel

    return Forced


#: ``(seed, kind, node)`` whose stream :func:`_self_test` draws in C and
#: with numpy: seeds of one to three entropy words; the last one's 2000
#: values take the exponential's tail path.
_STREAMS = ((0, "mac", 3), (2**32, "channel", 0), (2**70, "mac", 2047))


def _self_test(kernel: native.Kernel) -> bool:
    """The next 2000 values of each of :data:`_STREAMS` through a
    ``kernel`` bank and from the scalar form's buffers, equal.  Then epochs
    along a five-node line on a scalar core and on ``kernel``, equal
    by ``repr`` slot by slot, in ``finalize``, in every runtime's fields
    after it (:func:`_fields`) and in the next values of every draw
    stream — three times.  Flow: rate and credit relays under blanking, a
    source that drops, refills, decodes and their ACKs taken in C, one
    that uses up its epoch's allowance, and a generation-size switch
    deferred to an ACK the objects take.  ETX: sources at 0 and 2 (hidden
    terminals: node 1 is blanked when both send), short queues that drop
    (deliveries into a full one included), a re-route over a link that is
    not there and back, and the sink's ``delivered`` events.  Exact:
    opposing sessions 0 -> 4 (systematic, rate relays) and 4 -> 0 (credit
    relays) in composites, XORed at node 2, the second arriving after the
    first epoch, each decode ACKed in C for its session alone."""
    from repro.emulator.plan import CodingParams  # only a self-test needs it

    count = 2000
    for seed, kind, node in _STREAMS:
        bank = native.StreamBank(kernel.take, RngFactory(seed), kind)
        drawn = bank.take(bank.rows_for([node]), np.array([count])).tolist()
        if drawn != DrawBuffers(NodeStreams(RngFactory(seed), kind)).take(node, count):
            return False
    line = range(5)
    network = WirelessNetwork(
        np.array([[0.6 * node, 0.0] for node in line]),
        {(i, j): 0.9 for i in line for j in line if abs(i - j) == 1},
        1.0,
        capacity=1e5,
    )
    size, rate = 1000, 8e4  # bytes a packet, bytes a second

    def flow(log: _DecodeLog) -> Dict[int, NodeRuntime]:
        return {
            0: FlowSourceRuntime(0, 1, 2, rate, size, queue_limit=3),
            1: FlowRelayRuntime(1, 1, 2, size, mode="rate", rate_bps=0.75 * rate),
            2: FlowRelayRuntime(2, 1, 2, size, mode="credit", tx_credit=0.7, upstream=(1,)),
            3: FlowRelayRuntime(3, 1, 2, size, mode="credit", tx_credit=1.3, upstream=(2,)),
            4: FlowDestinationRuntime(4, 1, 2, on_decoded=log),
        }

    def flow_epochs(core: EngineCore) -> List[Any]:
        trail: List[Any] = []
        for epoch, (budget, decodes) in enumerate(((1, None), (40, 1), (60, None), (40, None))):
            if epoch == 2:
                core.apply_plan({node: {"coding": CodingParams(blocks=5)} for node in line})
            trail.append(core.run_slots((budget, None, epoch % 2 == 0, decodes)))
        return trail

    rates, limits = (9e4, 0.0, 3e4, 0.0, 0.0), (3, 1, 2, 2, 2)

    def unicast(log: _DecodeLog) -> Dict[int, NodeRuntime]:
        return {
            node: UnicastRuntime(
                node, node + 1 if node < 4 else None, rate_bps=rates[node], packet_bytes=size,
                queue_limit=limits[node], on_delivered=log.deliver,
                demand_hint_bps=3e4 + 1e4 * node,
            )
            for node in line
        }

    def unicast_epochs(core: EngineCore) -> List[Any]:
        trail: List[Any] = []
        for epoch, budget in enumerate((1, 3, 20, 40, 60)):
            if epoch in (2, 3):  # 0 -> 2 is out of range: attempts that never draw
                core.apply_plan({0: {"next_hop": 2 if epoch == 2 else 1}})
            trail.append(core.run_slots((budget, None, epoch % 2 == 0, None)))
        return trail

    def exact(log: _DecodeLog) -> Dict[int, NodeRuntime]:
        coding = RngFactory(3)
        runtimes: Dict[int, NodeRuntime] = {}
        for node in line:
            runtimes[node] = (
                InterSessionXorRelay(node, ((1, 2),)) if node == 2
                else MultiSessionNodeRuntime(node)
            )
            if node == 0:
                one: NodeRuntime = CodedSourceRuntime(
                    0, 1, 3, 0.4 * rate, size, coding.derive("one", 0), queue_limit=3,
                    systematic=True,
                )
                two: NodeRuntime = CodedDestinationRuntime(
                    0, 2, 3, functools.partial(log, session_id=2)
                )
            elif node == 4:
                one = CodedDestinationRuntime(4, 1, 3, functools.partial(log, session_id=1))
                two = CodedSourceRuntime(4, 2, 3, 0.3 * rate, size, coding.derive("two", 4))
            else:
                one = CodedRelayRuntime(
                    node, 1, 3, size, coding.derive("one", node), mode="rate", rate_bps=0.5 * rate
                )
                two = CodedRelayRuntime(
                    node, 2, 3, size, coding.derive("two", node), mode="credit", tx_credit=1.2,
                    upstream=(node + 1,),
                )
            runtimes[node].add_session(1, one)  # type: ignore[attr-defined]
            runtimes[node].add_session(2, two, active=False)  # type: ignore[attr-defined]
        return runtimes

    def exact_epochs(core: EngineCore) -> List[Any]:
        arrive = [("activate_session", 2)]
        return [
            core.run_slots((budget, events, epoch % 2 == 0, None))
            for epoch, (budget, events) in enumerate(((30, None), (60, arrive), (60, None)))
        ]

    for build, drive, has_unicast in (
        (flow, flow_epochs, False), (unicast, unicast_epochs, True), (exact, exact_epochs, False)
    ):
        outcomes: List[str] = []
        for form in (None, kernel):
            log = _DecodeLog()
            runtimes = build(log)
            init = CoreInit(
                network, runtimes, tuple(line), size / network.capacity, "blanking", 7,
                has_unicast=has_unicast, decode_log=log,
            )
            with obs.collecting(obs.MetricsRegistry(enabled=False)):
                core = _forced(form)(init)
                trail = drive(core)
                finalized = core.finalize()
            fields = [_fields(r) for r in runtimes.values()]
            outcomes.append(repr((trail, finalized, fields, _next_draws(core, list(line)))))
        if outcomes[0] != outcomes[1]:
            return False
    return True


def _fields(value: Any) -> Any:
    """What ``value`` holds, as plain data: a runtime's fields, its
    coders', generators' and queued packets' within (a composite's
    sessions too); bound callbacks, metric handles, the runtime's field
    engine and a basis's native binding left out.  A class (a coder's
    field) is its name: its ``__dict__`` may hold a loaded library."""
    if isinstance(value, type):
        return value.__qualname__
    if isinstance(value, np.random.Generator):
        return value.bit_generator.state
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple, deque)):
        return [_fields(item) for item in value]
    if isinstance(value, dict):
        return sorted((repr(key), _fields(item)) for key, item in value.items())
    if isinstance(value, (set, frozenset)):
        return sorted(map(repr, value))
    held = getattr(value, "__dict__", None)
    if held is None:
        slots = getattr(type(value), "__slots__", ())
        held = {name: getattr(value, name) for name in slots} if slots else None
    if held is None:
        return value
    return sorted(
        (key, _fields(item)) for key, item in held.items()
        if not key.startswith(("_on", "_m_")) and key not in ("_field", "handle")
    )


def _next_draws(core: EngineCore, nodes: List[int], count: int = 3) -> List[List[float]]:
    """The next ``count`` lottery and loss draws of each of ``nodes``,
    taken from a core's buffers or banks, whichever it holds."""
    if core._kernel is None:
        return [
            [value for node in nodes for value in draws.take(node, count)]
            for draws in (core._mac_draws, core._loss_draws)
        ]
    counts = np.full(len(nodes), count)
    return [
        bank.take(bank.rows_for(nodes), counts).tolist()
        for bank in (core._mac, core._loss)
    ]
