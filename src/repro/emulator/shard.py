"""Sharded slot-loop emulation: one session, many processes, one trace.

The serial :class:`~repro.emulator.engine.EmulationEngine` walks every
awake runtime every slot in one process.  This module spreads the
per-slot work over long-lived worker processes (each sweeping its own
:class:`~repro.emulator.awake.AwakeSet`) while
keeping the run *bit-identical* to the serial engine in per-node RNG
mode — ``shards=1`` and ``shards=N`` produce the same trace, the same
stats, the same :class:`~repro.emulator.session.SessionResult`.

How determinism survives the cut:

* **Per-node RNG streams.**  Every MAC lottery key, channel loss vector
  and capture tie-break comes from a stream owned by the node it
  concerns (:class:`~repro.util.rng.NodeStreams`), derived from the
  session seed.  A node draws the same values no matter which process
  hosts it, so RNG consumption is partition-independent by
  construction.
* **Parent-side global MIS.**  Greedy maximal-independent-set decisions
  chain across shard cuts without bound, so grants cannot be computed
  shard-locally.  Shards return ``(key, node)`` lottery entries for
  their owned contenders; the parent merges them and runs the
  scheduler's RNG-free :meth:`grant_from_keyed` pass — the same greedy
  code the serial engine uses.
* **BSP barriers per slot, over the shards that are awake.**
  ``begin_slot`` (credits + lottery keys), then either ``fire``
  (transmissions + loss draws; every shard sees the full granted set,
  so blanking coverage is computed locally from the full topology) and
  ``resolve`` (per-receiver capture, routed to the receiver's owner,
  plus ``finish_slot`` when unicast feedback is in play) — or, on an
  *interior* slot, where no granted transmitter has a neighbour owned
  by another shard, one ``fire_resolve`` in which every arrival is
  resolved by the shard that fired it and no packet crosses the pipe.
  Arrivals carry their transmitter's grant rank and per-broadcast
  delivery position, which reconstructs the serial engine's
  per-receiver arrival order, its receiver processing order and the
  order of everything that happens at a receiver exactly.  A shard
  whose awake set is empty is not called at all until a resolve entry
  or the control plane reaches it (DESIGN.md §13).
* **Deferred generation advance.**  The serial driver applies the
  decoded-generation ACK between slots; the sharded driver applies it
  at the next ``begin_slot`` barrier — the same point in runtime-state
  time, since nothing touches the data plane in between.

The oracle: ``ShardedSession(shards=1)`` runs the serial engine in
per-node mode in-process.  Note that per-node mode draws *different*
(equally valid) randomness than the engine's historical global streams,
so a sharded run is its own deterministic universe — compare sharded
runs against ``shards=1``, not against :func:`run_coded_session`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.emulator.awake import AwakeSet
from repro.emulator.channel import LossyBroadcastChannel
from repro.emulator.engine import EmulationEngine, EngineStats
from repro.emulator.node import (
    MultiSessionNodeRuntime,
    NodeRuntime,
    UnicastRuntime,
)
from repro.emulator.scheduler import ConflictGraph, IdealMacScheduler
from repro.emulator.session import (
    SessionConfig,
    SessionResult,
    build_plan_runtimes,
    plan_coding_config,
    plan_packet_bytes,
    session_result,
)
from repro.emulator.trace import SessionTracer
from repro.emulator.plan import SessionPlan
from repro.exec.pool import PersistentWorkerGroup, WorkerCallError, WorkerPool
from repro.topology.graph import Link, WirelessNetwork
from repro.topology.partition import NetworkPartition, partition_network
from repro.util.rng import NodeStreams, RngFactory

__all__ = [
    "ShardInit",
    "ShardWorker",
    "ShardedSession",
    "run_sharded_session",
    "session_digest",
    "trace_digest",
]

#: One packet heard by a receiver: (grant_rank, delivery_pos, sender,
#: kind, payload).  ``grant_rank`` is the sender's index in the granted
#: tuple and ``delivery_pos`` the receiver's index in the sender's
#: delivered tuple — together the serial engine's offers-dict insertion
#: order.  A receiver's *place* in the slot is its first arrival's pair.
Arrival = Tuple[int, int, int, str, Any]
#: A receiver and its arrivals, in place order.
Entry = Tuple[int, List[Arrival]]
#: Something the parent has to replay, led by where in the slot it
#: happened: ``(-1, grant_rank, "tx", node)``, or at a receiver's place
#: ``(rank, pos, kind, sender, receiver)`` for the delivery it kept,
#: ``(rank, pos, "decoded" | "delivered", value)`` for a log entry.
Event = Tuple[Any, ...]
_PLACE = itemgetter(0, 1)


class _DecodeLog:
    """Picklable decoded-generation recorder.

    ``build_plan_runtimes`` wires the destination's ``on_decoded``
    callback straight into session-driver closures, which cannot cross a
    process boundary.  This recorder can: it rides inside the runtime
    pickle shipped to the owning shard (pickling one ``ShardInit``
    preserves the shared reference), accumulates decode events, and is
    drained at each resolve barrier.  Single-session destinations append
    bare generation ids; multi-session destinations append
    ``(session_id, generation_id)`` tuples via
    :class:`_SessionDecodeAdapter`.
    """

    def __init__(self) -> None:
        self.events: List[Any] = []

    def __call__(self, generation_id: int) -> None:
        self.events.append(generation_id)

    def drain(self) -> List[Any]:
        drained = self.events
        self.events = []
        return drained


class _SessionDecodeAdapter:
    """Session-tagging shim between a destination and the shared log.

    One adapter per session wraps the session's ``on_decoded`` seam so
    concurrent destinations funnel into a single :class:`_DecodeLog`
    without losing who decoded.  Pickling a ``ShardInit`` keeps the
    shared-log reference intact (pickle memoises object identity within
    one payload).
    """

    def __init__(self, log: _DecodeLog, session_id: int) -> None:
        self._log = log
        self._session_id = session_id

    def __call__(self, generation_id: int) -> None:
        self._log.events.append((self._session_id, generation_id))


class _DeliveryLog:
    """Picklable end-to-end delivery recorder (unicast sessions)."""

    def __init__(self) -> None:
        self.events: List[int] = []

    def __call__(self, sequence: int) -> None:
        self.events.append(sequence)

    def drain(self) -> List[int]:
        drained = self.events
        self.events = []
        return drained


@dataclass
class ShardInit:
    """Everything one shard worker needs, in a single picklable payload.

    The runtimes dict holds only this shard's owned nodes; the network
    and participant list are complete, because blanking coverage and
    receiver filtering are global computations every shard performs
    locally (they are deterministic, so replication costs no
    coordination).  ``seed`` rebuilds the per-node RNG streams in the
    worker — streams derive lazily by (kind, node), so a worker only
    ever materializes streams for nodes it owns.
    """

    network: WirelessNetwork
    owned: Tuple[int, ...]
    runtimes: Dict[int, NodeRuntime]
    participants: Tuple[int, ...]
    slot_duration: float
    interference: str
    seed: int
    has_unicast: bool
    decode_log: _DecodeLog = field(default_factory=_DecodeLog)
    delivery_log: _DeliveryLog = field(default_factory=_DeliveryLog)


class ShardWorker:
    """The shard-resident half of the slot loop.

    Lives inside a :class:`~repro.exec.pool.PersistentWorkerGroup`
    worker; every public method is a barrier-phase handler dispatched by
    the parent.  State (runtimes, RNG streams, stats accumulators)
    persists across barriers — only per-slot messages cross the pipe,
    and every slot-phase reply leads with ``len`` of the awake set: a
    shard that reports 0 has nothing a slot could change and is left
    alone until something is addressed to it.
    """

    def __init__(self, init: ShardInit) -> None:
        self._network = init.network
        self._dt = init.slot_duration
        self._interference = init.interference
        self._has_unicast = init.has_unicast
        self._streams = NodeStreams(RngFactory(init.seed))
        # The channel's own stream is never consumed: every draw goes
        # through the per-node override, exactly like the serial engine
        # in per-node mode.
        self._channel = LossyBroadcastChannel(init.network, rng=0)
        self._decode_log = init.decode_log
        self._delivery_log = init.delivery_log
        self._pending_unicast: Dict[int, bool] = {}
        self._delivered_links: Set[Link] = set()
        self._runtimes = dict(init.runtimes)
        self._owned = tuple(sorted(self._runtimes))
        self._owned_set = frozenset(self._owned)
        self._participants = tuple(init.participants)
        self._participant_set = frozenset(self._participants)
        self._transmissions: Dict[int, int] = {node: 0 for node in self._owned}
        # Position-indexed over ``_owned``: the awake set's view.
        self._positions = {node: i for i, node in enumerate(self._owned)}
        self._runtime_list = [self._runtimes[node] for node in self._owned]
        self._queue_time_buf: List[float] = [0.0] * len(self._owned)
        self._awake = AwakeSet(len(self._owned))
        self._build_structures()

    def _build_structures(self) -> None:
        """Mirror of the engine's per-node-mode precomputation.

        Coverage lists exist for *every* participant — any of them can
        be granted, and blanking coverage counts all granted coverage
        disks — while receiver pairs are needed only for owned nodes
        (the only transmitters this shard fires).  Candidate order is
        sorted, matching the engine's per-node mode, so the
        transmitter's loss-draw-to-receiver mapping is identical in
        every process.
        """
        network = self._network
        self._cov_list: Dict[int, List[int]] = {}
        self._rx_pairs: Dict[int, List[Tuple[int, float]]] = {}
        for node in self._participants:
            neighbors = sorted(network.neighbors(node))
            self._cov_list[node] = neighbors
            if node in self._owned_set:
                self._rx_pairs[node] = [
                    (j, network.probability(node, j))
                    for j in neighbors
                    if j in self._participant_set
                ]
        node_count = network.node_count
        self._granted_flags: List[bool] = [False] * node_count
        self._covered_counts: List[int] = [0] * node_count
        # Same rule as the engine's rebuild: a control-plane refresh
        # leaves nothing parked.
        self._awake.wake_all()

    # -- barrier phases ------------------------------------------------

    def begin_slot(
        self, events: Optional[List[Any]]
    ) -> Tuple[int, List[float], List[int]]:
        """Apply deferred control events, tick clocks, draw lottery keys.

        ``events`` holds the control signals the parent queued since the
        previous slot, in arrival order: a bare ``int`` is the legacy
        single-session generation advance; ``("advance", sid, gen)``,
        ``("arrive", sid)`` and ``("depart", sid)`` are the per-session
        forms.  The serial oracle applies the same signals immediately
        after the previous ``step`` — the identical point in
        runtime-state time, since nothing touches the data plane between
        slots.  Returns the owned contenders' lottery keys and node ids
        as two flat lists; the parent merges all shards' entries into
        the global greedy MIS pass.
        """
        if events:
            self._awake.wake_all()
            for event in events:
                if isinstance(event, int):
                    for runtime in self._runtime_list:
                        runtime.advance_generation(event)
                elif event[0] == "advance":
                    for runtime in self._runtime_list:
                        runtime.advance_session_generation(event[1], event[2])
                elif event[0] == "arrive":
                    for runtime in self._runtime_list:
                        runtime.activate_session(event[1])
                elif event[0] == "depart":
                    for runtime in self._runtime_list:
                        runtime.deactivate_session(event[1])
                else:
                    raise ValueError(f"unknown control event {event!r}")
        dt = self._dt
        floor = IdealMacScheduler.WEIGHT_FLOOR
        owned = self._owned
        contenders, weights = self._awake.tick(self._runtime_list, dt)
        keys: List[float] = []
        nodes: List[int] = []
        for position, weight in zip(contenders, weights):
            node = owned[position]
            draw = self._streams.get("mac", node).standard_exponential()
            keys.append(draw / max(weight, floor))
            nodes.append(node)
        return len(self._awake), keys, nodes

    def fire(
        self, request: Tuple[Tuple[int, ...], bool]
    ) -> Tuple[int, List[Event], List[Entry]]:
        """Fire this shard's granted transmitters against the full grant.

        ``request`` is ``(granted, traced)``.  The complete granted
        tuple (all shards) arrives so blanking coverage and half-duplex
        checks are computed exactly as the serial engine computes them.
        Returns a ``tx`` event per transmission that actually fired
        (only when a tracer wants them) and what each receiver heard,
        receivers and arrivals both in place order.
        """
        granted, traced = request
        granted_flags = self._granted_flags
        covered = self._covered_counts
        blanking = self._interference == "blanking"
        for node in granted:
            granted_flags[node] = True
        if blanking:
            for node in granted:
                for j in self._cov_list[node]:
                    covered[j] += 1
        events: List[Event] = []
        offers: Dict[int, List[Arrival]] = {}
        try:
            for rank, node in enumerate(granted):
                if node not in self._owned_set:
                    continue
                runtime = self._runtimes[node]
                if isinstance(runtime, UnicastRuntime):
                    sequence = runtime.peek_sequence()
                    if sequence is None:
                        continue
                    target = runtime.next_hop
                    assert target is not None
                    self._transmissions[node] += 1
                    if traced:
                        events.append((-1, rank, "tx", node))
                    self._pending_unicast[node] = False
                    if granted_flags[target]:
                        continue  # half-duplex: a transmitter cannot receive
                    if blanking and covered[target] > 1:
                        continue  # hidden-terminal collision at the receiver
                    tx_rng = self._streams.get("channel", node)
                    if self._channel.unicast(node, target, rng=tx_rng):
                        offers.setdefault(target, []).append(
                            (rank, 0, node, "unicast", sequence)
                        )
                else:
                    packet = runtime.pop_transmission()
                    if packet is None:
                        continue
                    self._transmissions[node] += 1
                    if traced:
                        events.append((-1, rank, "tx", node))
                    candidate_ids: List[int] = []
                    candidate_probs: List[float] = []
                    if blanking:
                        for j, p in self._rx_pairs[node]:
                            if granted_flags[j] or covered[j] > 1:
                                continue
                            if p > 0.0:
                                candidate_ids.append(j)
                                candidate_probs.append(p)
                    else:
                        for j, p in self._rx_pairs[node]:
                            if p > 0.0 and not granted_flags[j]:
                                candidate_ids.append(j)
                                candidate_probs.append(p)
                    tx_rng = self._streams.get("channel", node)
                    delivered = self._channel.broadcast_prefiltered(
                        candidate_ids, candidate_probs, rng=tx_rng
                    )
                    for pos, j in enumerate(delivered):
                        offers.setdefault(j, []).append(
                            (rank, pos, node, "coded", packet)
                        )
        finally:
            for node in granted:
                granted_flags[node] = False
            if blanking:
                for node in granted:
                    for j in self._cov_list[node]:
                        covered[j] = 0
        return len(self._awake), events, list(offers.items())

    def resolve(self, request: Tuple[Iterable[Entry], bool]) -> Tuple[int, List[Event]]:
        """Per-receiver capture resolution for this shard's owned receivers.

        ``request`` is ``(entries, traced)``; a multi-arrival receiver
        draws its tie-break from its own capture stream, so
        cross-receiver processing order cannot perturb any draw.
        Returns what happened, each event led by its receiver's place:
        decode / delivery log entries always, the delivery a receiver
        kept only when a tracer or a unicast sender waits for it.
        """
        entries, traced = request
        events: List[Event] = []
        logs = (("decoded", self._decode_log), ("delivered", self._delivery_log))
        for receiver, arrivals in entries:
            index = 0
            if len(arrivals) > 1:
                capture_rng = self._streams.get("capture", receiver)
                index = int(capture_rng.integers(0, len(arrivals)))
            _rank, _pos, sender, kind, payload = arrivals[index]
            self._delivered_links.add((sender, receiver))
            runtime = self._runtimes[receiver]
            self._awake.wake(self._positions[receiver])
            if kind == "unicast":
                assert isinstance(runtime, UnicastRuntime)
                runtime.receive_sequence(payload)
            else:
                runtime.on_receive(payload, sender)
            place = arrivals[0][:2]
            if traced or kind == "unicast":
                events.append((*place, kind, sender, receiver))
            for tag, log in logs:
                if log.events:
                    events.extend((*place, tag, value) for value in log.drain())
        if not self._has_unicast:
            self._sample_queues()
        return len(self._awake), events

    def fire_resolve(
        self, request: Tuple[Tuple[int, ...], bool]
    ) -> Tuple[int, List[Event]]:
        """An interior slot: resolve what was fired where it was fired.

        The parent asks for this when no granted transmitter has a
        neighbour on another shard, so every arrival :meth:`fire` builds
        belongs to a receiver owned here and nobody else's can.
        """
        _awake, events, entries = self.fire(request)
        awake, resolved = self.resolve((entries, request[1]))
        return awake, events + resolved

    def finish_slot(self, successes: Sequence[int]) -> Tuple[int]:
        """Settle owned unicast attempts, then sample queues.

        Only invoked for sessions containing unicast runtimes: the
        head-of-line pop in ``complete_transmission`` changes queue
        lengths, so sampling must wait for the success verdicts that the
        receivers' shards produced at the resolve barrier.
        """
        success_set = set(successes)
        for node in sorted(self._pending_unicast):
            runtime = self._runtimes[node]
            assert isinstance(runtime, UnicastRuntime)
            runtime.complete_transmission(node in success_set)
        self._pending_unicast.clear()
        self._sample_queues()
        return (len(self._awake),)

    def _sample_queues(self) -> None:
        self._awake.sample_queues(self._runtime_list, self._queue_time_buf)

    # -- control plane -------------------------------------------------

    def advance_idle(self, slots: int) -> None:
        """Stall the data plane for ``slots`` slots (replan cost model)."""
        if slots <= 0:
            return
        queue_times = self._queue_time_buf
        for position, runtime in enumerate(self._runtime_list):
            queue_times[position] += runtime.queue_length() * slots

    def set_network(self, network: WirelessNetwork) -> None:
        """Swap the topology mid-run; RNG streams are untouched."""
        if network.node_count != self._network.node_count:
            raise ValueError(
                "replacement network must keep the node count "
                f"({self._network.node_count} != {network.node_count})"
            )
        self._network = network
        self._channel.set_network(network)
        self._build_structures()

    def rebuild(self, _argument: Optional[int] = None) -> None:
        """Refresh precomputed structures (after plan updates)."""
        self._build_structures()

    def apply_plan(self, updates: Dict[int, Dict[str, Any]]) -> None:
        """Hot-swap plan parameters on owned runtimes."""
        for node, params in updates.items():
            self._runtimes[node].apply_plan(**params)
            self._awake.wake(self._positions[node])

    def finalize(self, _argument: Optional[int] = None) -> Dict[str, Any]:
        """Shard-local stats for the parent's merge (non-destructive)."""
        return {
            "queue_time_sum": dict(zip(self._owned, self._queue_time_buf)),
            "transmissions": dict(self._transmissions),
            "delivered_links": sorted(self._delivered_links),
        }

    def session_stats(
        self, _argument: Optional[int] = None
    ) -> Dict[int, Dict[str, Any]]:
        """Per-session composite stats for owned multi-session nodes."""
        stats: Dict[int, Dict[str, Any]] = {}
        for node in self._owned:
            runtime = self._runtimes[node]
            if isinstance(runtime, MultiSessionNodeRuntime):
                stats[node] = {
                    "sessions": runtime.session_stats(),
                    "xor_transmissions": runtime.xor_transmissions,
                }
        return stats


class ShardedSession:
    """Parent-side driver of one sharded (or serial-oracle) session.

    ``shards=1`` runs the serial engine in per-node RNG mode in-process
    — the digest oracle.  ``shards>1`` partitions the mesh spatially
    (:func:`~repro.topology.partition.partition_network`), ships each
    shard its owned runtimes, and drives the slot loop through
    per-slot barriers on a :class:`PersistentWorkerGroup` — over the
    *live* shards only, those whose last reply reported a non-empty
    awake set.  Both modes expose the same API and produce bit-identical
    traces and stats.
    """

    def __init__(
        self,
        network: WirelessNetwork,
        runtimes: Dict[int, NodeRuntime],
        slot_duration: float,
        *,
        rng_factory: RngFactory,
        shards: int = 1,
        interference: str = "blanking",
        tracer: SessionTracer | None = None,
        decode_log: _DecodeLog | None = None,
        delivery_log: _DeliveryLog | None = None,
        on_decoded: Callable[[Any, float], None] | None = None,
        on_delivered: Callable[[int], None] | None = None,
        start_method: str | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if shards > network.node_count:
            raise ValueError(
                f"cannot run {shards} shards on {network.node_count} node(s)"
            )
        self._network = network
        self._runtimes = runtimes
        self._dt = slot_duration
        self._interference = interference
        self._tracer = tracer
        self._decode_log = decode_log if decode_log is not None else _DecodeLog()
        self._delivery_log = (
            delivery_log if delivery_log is not None else _DeliveryLog()
        )
        self._on_decoded = on_decoded
        self._on_delivered = on_delivered
        self._has_unicast = any(
            isinstance(r, UnicastRuntime) for r in runtimes.values()
        )
        self._pending_events: List[Any] = []
        self._slots = 0
        self._elapsed = 0.0
        self._grants = 0
        self._closed = False
        self._shards = shards
        self._live = list(range(shards))
        self._partition: NetworkPartition | None = None
        self._group: PersistentWorkerGroup | None = None
        self._engine: EmulationEngine | None = None
        if shards == 1:
            self._engine = EmulationEngine(
                network,
                runtimes,
                LossyBroadcastChannel(network, rng=0),
                slot_duration,
                interference=interference,
                tracer=tracer,
                streams=NodeStreams(rng_factory),
            )
        else:
            self._partition = partition_network(network, shards)
            self._build_parent_scheduler()
            participants = tuple(sorted(runtimes))
            owner = self._partition.owner
            payloads = []
            for shard in range(shards):
                owned_runtimes = {
                    node: runtime
                    for node, runtime in runtimes.items()
                    if owner[node] == shard
                }
                payloads.append(
                    ShardInit(
                        network=network,
                        owned=tuple(sorted(owned_runtimes)),
                        runtimes=owned_runtimes,
                        participants=participants,
                        slot_duration=slot_duration,
                        interference=interference,
                        seed=rng_factory.seed,
                        has_unicast=self._has_unicast,
                        decode_log=self._decode_log,
                        delivery_log=self._delivery_log,
                    )
                )
            pool = WorkerPool(shards, start_method=start_method)
            self._group = pool.persistent(ShardWorker, payloads)

    def _build_parent_scheduler(self) -> None:
        """(Re)build the global greedy-MIS pass over current participants.

        The parent's scheduler never consumes RNG — every key arrives
        pre-drawn from a node's own stream — so its generator argument
        is irrelevant; only the conflict structure matters.  Also the
        *boundary*: participants with a neighbour on another shard, the
        only transmitters whose slot needs the cross-shard phases.
        """
        conflicts = ConflictGraph(
            self._network,
            self._runtimes.keys(),
            two_hop=(self._interference == "conflict_free"),
        )
        self._scheduler = IdealMacScheduler(conflicts)
        self._positions = {
            node: i for i, node in enumerate(conflicts.participants)
        }
        assert self._partition is not None
        owner = self._partition.owner
        neighbors = self._network.neighbors
        self._boundary = frozenset(
            node
            for node in self._runtimes
            if any(owner[peer] != owner[node] for peer in neighbors(node))
        )

    def _call(self, method: str, arguments: Mapping[int, Any]) -> Dict[int, Any]:
        """``call_each`` whose failure also names the slot it happened in."""
        assert self._group is not None
        try:
            return self._group.call_each(method, arguments)
        except WorkerCallError as error:
            raise WorkerCallError(
                error.worker, error.method, f"slot {self._slots}: {error.detail}"
            ) from None

    def _phase(self, method: str, arguments: Mapping[int, Any]) -> List[Any]:
        """One slot barrier over the shards named; their replies say who stays live."""
        replies = self._call(method, arguments)
        self._live = [shard for shard, reply in replies.items() if reply[0]]
        return list(replies.values())

    def _control(
        self, method: str, arguments: Optional[Sequence[Any]] = None
    ) -> List[Any]:
        """The control plane reaches every shard, parked or not, and may wake it."""
        self._live = list(range(self._shards))
        if arguments is None:
            arguments = [None] * self._shards
        return list(self._call(method, dict(enumerate(arguments))).values())

    def _replay(self, replies: List[Any]) -> Set[int]:
        """Apply one phase's events in the order the serial engine has them.

        Place order across shards; the sort is stable, so what happened
        at one receiver stays in the order its worker saw it.  Returns
        the senders whose unicast attempt was delivered.
        """
        tracer = self._tracer
        successes: Set[int] = set()
        events = chain.from_iterable(reply[1] for reply in replies)
        for _rank, _pos, tag, *data in sorted(events, key=_PLACE):
            if tag == "decoded":
                self._handle_decoded(data[0])
            elif tag == "delivered":
                if self._on_delivered is not None:
                    self._on_delivered(data[0])
            elif tag == "tx":
                assert tracer is not None
                tracer.record(self._slots, self._elapsed, "tx", data[0])
            else:
                if tracer is not None:
                    tracer.record(
                        self._slots, self._elapsed, "delivery", data[0], peer=data[1]
                    )
                if tag == "unicast":
                    successes.add(data[0])
        return successes

    # -- introspection -------------------------------------------------

    @property
    def shards(self) -> int:
        """Shard count (1 = in-process serial oracle)."""
        return self._shards

    @property
    def partition(self) -> NetworkPartition | None:
        """The spatial partition (None for the serial oracle)."""
        return self._partition

    @property
    def now(self) -> float:
        """Emulated seconds elapsed."""
        return self._elapsed

    @property
    def slots(self) -> int:
        """Slots executed."""
        return self._slots

    @property
    def slot_duration(self) -> float:
        """Seconds of airtime per slot."""
        return self._dt

    # -- slot loop -----------------------------------------------------

    def run(
        self,
        max_slots: int,
        *,
        stop_when: Callable[[], bool] | None = None,
    ) -> None:
        """Advance up to ``max_slots``; ``stop_when`` checked per slot."""
        if max_slots < 0:
            raise ValueError(f"max_slots must be >= 0, got {max_slots}")
        if self._engine is not None:
            # The caller holds the live runtime objects in-process and
            # may have touched them since the last run (see
            # :meth:`EmulationEngine.run`); worker-resident runtimes are
            # only reachable through the barrier calls, which wake.
            self._engine.wake_all()
        for _ in range(max_slots):
            self.step()
            if stop_when is not None and stop_when():
                break

    def step(self) -> Tuple[int, ...]:
        """Execute one slot; returns the granted transmitter set."""
        if self._engine is not None:
            granted = self._engine.step()
            self._drain_logs()
            self._bump(granted)
            return granted
        events = self._pending_events or None
        self._pending_events = []
        begun = self._phase(
            "begin_slot",
            dict.fromkeys(range(self._shards) if events else self._live, events),
        )
        positions = self._positions
        keyed = sorted(
            (key, positions[node])
            for _awake, keys, nodes in begun
            for key, node in zip(keys, nodes)
        )
        granted = self._scheduler.grant_from_keyed(keyed)
        tracer = self._tracer
        if tracer is not None:
            for node in granted:
                tracer.record(self._slots, self._elapsed, "grant", node)
        request = (granted, tracer is not None)
        if self._has_unicast or not self._boundary.isdisjoint(granted):
            self._cross_cut_slot(request)
        else:
            # Interior: nothing fired can be heard on another shard.
            self._replay(self._phase("fire_resolve", dict.fromkeys(self._live, request)))
        self._bump(granted)
        return granted

    def _cross_cut_slot(self, request: Tuple[Tuple[int, ...], bool]) -> None:
        """Fire everywhere, then route what each receiver heard to its owner."""
        fired = self._phase("fire", dict.fromkeys(self._live, request))
        self._replay(fired)
        heard: Dict[int, List[Arrival]] = {}
        for _awake, _events, entries in fired:
            for receiver, arrivals in entries:
                heard.setdefault(receiver, []).extend(arrivals)
        for arrivals in heard.values():
            arrivals.sort(key=_PLACE)
        assert self._partition is not None
        owner = self._partition.owner
        # Every live shard resolves (it samples its queues there); a
        # parked one only if something is addressed to it.
        routed: Dict[int, List[Entry]] = {shard: [] for shard in self._live}
        for entry in sorted(heard.items(), key=lambda entry: entry[1][0][:2]):
            routed.setdefault(owner[entry[0]], []).append(entry)
        successes = self._replay(
            self._phase(
                "resolve",
                {shard: (entries, request[1]) for shard, entries in routed.items()},
            )
        )
        if self._has_unicast:
            settled: Dict[int, List[int]] = {shard: [] for shard in self._live}
            for sender in successes:
                settled[owner[sender]].append(sender)
            self._phase("finish_slot", settled)

    def _bump(self, granted: Tuple[int, ...]) -> None:
        self._slots += 1
        self._elapsed += self._dt
        self._grants += len(granted)

    def _drain_logs(self) -> None:
        """Serial-oracle decode/delivery polling (post-``engine.step``).

        Fires the parent callbacks *before* the slot counter bump, so
        ack timestamps accumulate through exactly the same float
        additions as the ``shards>1`` path.
        """
        for generation_id in self._decode_log.drain():
            self._handle_decoded(generation_id)
        for sequence in self._delivery_log.drain():
            if self._on_delivered is not None:
                self._on_delivered(sequence)

    def _handle_decoded(self, event: Any) -> None:
        if self._on_decoded is not None:
            self._on_decoded(event, self._elapsed)

    def broadcast_generation_advance(self, generation_id: int) -> None:
        """Propagate the ACK/next-generation signal to every runtime.

        The serial oracle applies it immediately (the engine's own
        path); shards defer the runtime update to the next
        ``begin_slot`` barrier — state-equivalent, because nothing
        touches the data plane between slots.
        """
        if self._engine is not None:
            self._engine.broadcast_generation_advance(generation_id)
            return
        if self._tracer is not None:
            self._tracer.record(
                self._slots, self._elapsed, "ack", -1, detail=generation_id
            )
        self._pending_events.append(generation_id)

    def broadcast_session_generation_advance(
        self, session_id: int, generation_id: int
    ) -> None:
        """Per-session ACK propagation (multi-session runs).

        Serial oracle: applied immediately via the engine.  Sharded:
        traced now, applied at the next ``begin_slot`` barrier in queue
        order — the same runtime-state point in both modes.
        """
        if self._engine is not None:
            self._engine.broadcast_session_generation_advance(
                session_id, generation_id
            )
            return
        if self._tracer is not None:
            self._tracer.record(
                self._slots,
                self._elapsed,
                "ack",
                -1,
                peer=session_id,
                detail=generation_id,
            )
        self._pending_events.append(("advance", session_id, generation_id))

    def broadcast_session_arrival(self, session_id: int) -> None:
        """Switch a dormant session live on every hosting runtime."""
        if self._engine is not None:
            self._engine.broadcast_session_arrival(session_id)
            return
        if self._tracer is not None:
            self._tracer.record(
                self._slots, self._elapsed, "arrive", -1, peer=session_id
            )
        self._pending_events.append(("arrive", session_id))

    def broadcast_session_departure(self, session_id: int) -> None:
        """Remove a session from airtime contention on every runtime."""
        if self._engine is not None:
            self._engine.broadcast_session_departure(session_id)
            return
        if self._tracer is not None:
            self._tracer.record(
                self._slots, self._elapsed, "depart", -1, peer=session_id
            )
        self._pending_events.append(("depart", session_id))

    # -- control plane -------------------------------------------------

    def advance_idle(self, slots: int) -> None:
        """Advance time with the data plane stalled (replan cost)."""
        if slots < 0:
            raise ValueError(f"slots must be >= 0, got {slots}")
        if slots == 0:
            return
        if self._engine is not None:
            self._engine.advance_idle(slots)
        else:
            self._control("advance_idle", [slots] * self._shards)
        self._slots += slots
        self._elapsed += slots * self._dt

    def set_network(self, network: WirelessNetwork) -> None:
        """Swap the topology mid-run on every shard."""
        if network.node_count != self._network.node_count:
            raise ValueError(
                "replacement network must keep the node count "
                f"({self._network.node_count} != {network.node_count})"
            )
        self._network = network
        if self._engine is not None:
            self._engine.set_network(network)
            return
        self._control("set_network", [network] * self._shards)
        self._build_parent_scheduler()

    def rebuild_runtime_structures(self) -> None:
        """Refresh precomputed slot-loop structures after plan updates.

        Unlike the serial engine's richer signature, the sharded form
        cannot swap runtime *objects* — they live in the workers — so
        parameter changes go through :meth:`apply_plan_updates`.
        """
        if self._engine is not None:
            self._engine.rebuild_runtime_structures()
            return
        self._control("rebuild")
        self._build_parent_scheduler()

    def apply_plan_updates(self, updates: Dict[int, Dict[str, Any]]) -> None:
        """Route ``runtime.apply_plan(**params)`` to each node's owner."""
        if self._engine is not None:
            self._engine.apply_plan_updates(updates)
            return
        unknown = sorted(set(updates) - set(self._runtimes))
        if unknown:
            raise KeyError(f"no runtimes for nodes {unknown}")
        assert self._partition is not None
        owner = self._partition.owner
        per_shard: List[Dict[int, Dict[str, Any]]] = [
            {} for _ in range(self._shards)
        ]
        for node, params in updates.items():
            per_shard[owner[node]][node] = params
        self._control("apply_plan", per_shard)

    # -- results -------------------------------------------------------

    def finalize_stats(self) -> EngineStats:
        """Merge per-shard counters into one serial-shaped stats object."""
        if self._engine is not None:
            return self._engine.stats
        merged = EngineStats(
            slots=self._slots, elapsed=self._elapsed, grants=self._grants
        )
        for reply in self._control("finalize"):
            merged.queue_time_sum.update(reply["queue_time_sum"])
            merged.transmissions.update(reply["transmissions"])
            merged.delivered_links.update(
                (int(i), int(j)) for i, j in reply["delivered_links"]
            )
        return merged

    def collect_session_stats(self) -> Dict[int, Dict[str, Any]]:
        """Per-node composite stats (multi-session runs).

        Each entry holds ``{"sessions": {sid: {...}}, "xor_transmissions":
        int}``.  The serial oracle reads the composites directly; sharded
        mode harvests each node's stats from its owning worker.  Nodes
        whose runtime is not a :class:`MultiSessionNodeRuntime` are
        absent.
        """
        if self._engine is not None:
            stats: Dict[int, Dict[str, Any]] = {}
            for node, runtime in self._runtimes.items():
                if isinstance(runtime, MultiSessionNodeRuntime):
                    stats[node] = {
                        "sessions": runtime.session_stats(),
                        "xor_transmissions": runtime.xor_transmissions,
                    }
            return stats
        merged_stats: Dict[int, Dict[str, Any]] = {}
        for reply in self._control("session_stats"):
            merged_stats.update(reply)
        return merged_stats

    def close(self) -> None:
        """Shut the worker group down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._group is not None:
            self._group.close()

    def __enter__(self) -> "ShardedSession":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


def run_sharded_session(
    network: WirelessNetwork,
    plan: SessionPlan,
    *,
    shards: int = 1,
    session_id: int = 1,
    config: SessionConfig | None = None,
    rng: RngFactory | None = None,
    protocol_label: str | None = None,
    tracer: SessionTracer | None = None,
    start_method: str | None = None,
) -> SessionResult:
    """Sharded counterpart of :func:`run_coded_session` (any plan type).

    ``shards=1`` is the in-process serial oracle; any ``shards=N``
    produces a bit-identical :class:`SessionResult` and trace.  The
    randomness comes from per-node streams, so results are a different
    (equally valid) deterministic universe than the global-stream
    serial drivers.
    """
    config = plan_coding_config(config or SessionConfig(), plan)
    rng = rng or RngFactory(0)
    decode_log = _DecodeLog()
    delivery_log = _DeliveryLog()
    unicast = plan.kind == "unicast"
    runtimes, label = build_plan_runtimes(
        network,
        plan,
        session_id=session_id,
        config=config,
        rng=rng,
        on_decoded=decode_log,
        on_delivered=delivery_log,
    )
    slot = plan_packet_bytes(config, plan) / network.capacity

    ack_times: List[float] = []
    delivered_count = [0]
    pending_advance: List[Optional[int]] = [None]

    def on_decoded(generation_id: int, ack_time: float) -> None:
        ack_times.append(ack_time)
        pending_advance[0] = generation_id + 1

    def on_delivered(_sequence: int) -> None:
        delivered_count[0] += 1

    session = ShardedSession(
        network,
        runtimes,
        slot,
        rng_factory=rng,
        shards=shards,
        interference=config.interference,
        tracer=tracer,
        decode_log=decode_log,
        delivery_log=delivery_log,
        on_decoded=on_decoded,
        on_delivered=on_delivered,
        start_method=start_method,
    )
    max_slots = int(config.max_seconds / slot)
    target = config.target_generations

    def stop() -> bool:
        if pending_advance[0] is not None:
            session.broadcast_generation_advance(pending_advance[0])
            pending_advance[0] = None
        return target > 0 and len(ack_times) >= target

    with session:
        session.run(max_slots, stop_when=stop if not unicast else None)
        stats = session.finalize_stats()

    return session_result(
        protocol_label or label,
        plan.source,
        plan.destination,
        config.block_size,
        stats.elapsed,
        {n: stats.average_queue(n) for n in runtimes},
        stats.transmissions,
        stats.delivered_links,
        ack_times=ack_times,
        generations=len(ack_times),
        blocks_decoded=len(ack_times) * config.blocks,
        packets_delivered=delivered_count[0] if unicast else None,
    )


def session_digest(result: SessionResult) -> str:
    """Canonical SHA-256 digest of a :class:`SessionResult`.

    Floats are serialized through ``repr`` (shortest round-trip form),
    so two results digest equal iff every field is bit-identical — the
    shards=1 == shards=N oracle the tests and the CI smoke job assert.
    """
    import hashlib
    import json

    payload = {
        "protocol": result.protocol,
        "source": result.source,
        "destination": result.destination,
        "throughput_bps": repr(result.throughput_bps),
        "duration": repr(result.duration),
        "generations_decoded": result.generations_decoded,
        "packets_delivered": result.packets_delivered,
        "ack_times": [repr(t) for t in result.ack_times],
        "average_queues": {
            str(n): repr(result.average_queues[n])
            for n in sorted(result.average_queues)
        },
        "transmissions": {
            str(n): result.transmissions[n]
            for n in sorted(result.transmissions)
        },
        "participants": list(result.participants),
        "delivered_links": [list(link) for link in result.delivered_links],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def trace_digest(tracer: SessionTracer) -> str:
    """Canonical SHA-256 digest of a tracer's retained event sequence."""
    import hashlib
    import json

    records = []
    for event in tracer.events():
        record = event.as_dict()
        record["time"] = repr(event.time)  # full precision, not rounded
        records.append(record)
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
