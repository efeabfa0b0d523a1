"""One session, one slot loop, any number of processes, one trace.

:class:`ShardedSession` is the session-side half of every emulated
slot: the clock, the deferred control events, the replay of what
happened into the tracer and the recorder, and the stats.  The
per-process half — everything that happens *to* the nodes a process
hosts, slot loop included — is :class:`~repro.emulator.engine.EngineCore`.  With
``shards=1`` the session calls one core that hosts every node, directly,
in this process, and pickles nothing; with ``shards=N`` it calls
:class:`ShardedCores`, which answers the same methods from one core per
spatial strip and worker process.  Every driver runs on this object, and
``shards=1`` and ``shards=N`` produce the same trace, stats and
:class:`~repro.emulator.session.SessionResult`, bit for bit.

How determinism survives the cut:

* **One random universe**: per-node streams
  (:class:`~repro.util.rng.NodeStreams`), so a node draws the same values
  wherever it is hosted.
* **One greedy pass over every contender.**  Greedy independent-set
  decisions chain through conflicting contenders without bound, so a
  core grants alone only while every contender is its own (an *epoch*:
  it is the one core with anything awake); otherwise the cores return
  their lottery keys and :class:`ShardedCores` runs the same RNG-free
  :meth:`grant_from_keyed` pass over all of them.
* **Place order.**  Arrivals carry their transmitter's grant rank and
  per-broadcast delivery position, which fixes each receiver's arrival
  order, the receiver processing order and the order of everything that
  happens at a receiver, whoever fired what (:class:`ShardedCores`).
* **Deferred control events.**  A decoded-generation ACK, a session
  arrival or departure is traced when the driver signals it and reaches
  the runtimes with the next call of any kind — normally the next
  ``begin_slot``, the same point in runtime-state time, since nothing
  touches the data plane in between.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro import obs
from repro.emulator import engine
from repro.emulator.engine import (
    Arrival,
    Contention,
    CoreInit,
    EngineCore,
    EngineStats,
    Entry,
    Epoch,
    Event,
    Install,
    Record,
    _DecodeLog,
    compilable,
)
from repro.emulator.node import NodeRuntime, RuntimeTerms, UnicastRuntime
from repro.emulator.plan import NodeSettings, SessionPlan
from repro.emulator.scheduler import ConflictGraph, IdealMacScheduler
from repro.emulator.trace import SessionTracer
from repro.exec.pool import PersistentWorkerGroup, WorkerCallError, WorkerPool
from repro.topology.graph import WirelessNetwork
from repro.topology.partition import partition_positions
from repro.util.rng import RngFactory

if TYPE_CHECKING:  # pragma: no cover - session.py builds on this module
    from repro.emulator.session import SessionResult

__all__ = [
    "ShardCountError",
    "ShardedSession",
    "require_shardable",
    "session_digest",
    "trace_digest",
]

_PLACE = itemgetter(0, 1)


class ShardCountError(ValueError):
    """More shards were asked for than the network has nodes to give
    them: the caller's input, not a defect."""


def require_shardable(network: WirelessNetwork, shards: int) -> None:
    """Raise :class:`ShardCountError` unless every shard can host a node."""
    if shards > network.node_count:
        raise ShardCountError(f"cannot run {shards} shards on {network.node_count} node(s)")


class WorkerCore(EngineCore):
    """A shard worker's core.  Its parent drives it a phase at a time
    whenever more than one worker is live or a signal is queued, the
    first slot included, and a unicast attempt has phases in the scalar
    form only: in a session with unicast runtimes a worker's core stays
    scalar, even one that hosts every participant."""

    def _form(self, init: CoreInit) -> Tuple[bool, Any]:
        if init.has_unicast:
            return False, None
        return super()._form(init)


class ShardedCores:
    """An :class:`EngineCore` made of cores, one per spatial strip and process.

    It answers the core's methods with the core's replies, so the
    session above it cannot tell one process from many.  What it adds
    is the fan-out and fan-in of a cut mesh: it partitions the nodes
    into strips and ships each strip's runtimes to a long-lived worker.
    Only the *live* workers hear of a slot, those whose last slot-phase
    reply reported a non-empty awake set — a parked one hears nothing
    until a resolve entry or the control plane reaches it (DESIGN.md
    §13).  With exactly one live and no control signal queued the slot
    is part of an *epoch*: that worker is handed the budget and grants
    and runs its own slots (:meth:`EngineCore.run_slots`), one message
    for all of them.  Otherwise ``begin_slot`` gathers lottery keys for
    the greedy pass here; then an *interior* slot, where no granted
    transmitter has a neighbour hosted by another worker, is one
    ``fire_resolve`` in which every arrival is resolved where it was
    fired and no packet crosses a pipe, and a *cross-cut* one is
    ``fire`` (every worker sees the full grant), ``resolve`` at each
    receiver's host and, with unicast feedback in play, ``finish_slot``.
    Replies merge in place order; a failure names the slot it happened in.
    """

    def __init__(self, init: CoreInit, shards: int, start_method: str | None) -> None:
        self._owner = owner = partition_positions(init.network.positions, shards)
        self._network = init.network
        self._participants = init.participants
        self._has_unicast = init.has_unicast
        self._two_hop = init.interference == "conflict_free"
        self._slots = 0  # executed or stalled so far, for failure reports
        self._everyone = range(shards)
        self._live = list(self._everyone)
        self._index()
        if compilable(init) and not init.has_unicast:  # resolved once here, forked
            engine.compiled_kernel()  # workers inherit it
        pool = WorkerPool(shards, start_method=start_method)
        self.group: PersistentWorkerGroup = pool.persistent(
            WorkerCore,
            [
                replace(
                    init,
                    runtimes={
                        node: runtime
                        for node, runtime in init.runtimes.items()
                        if owner[node] == shard
                    },
                )
                for shard in self._everyone
            ],
        )

    def _index(self) -> None:
        """The boundary — participants with a neighbour hosted by another
        worker, the only transmitters whose slot needs the cross-cut
        phases — and the scheduler for slots several workers contend in."""
        network, owner = self._network, self._owner
        self._boundary = frozenset(
            node
            for node in self._participants
            if any(owner[peer] != owner[node] for peer in network.neighbors(node))
        )
        self._scheduler = IdealMacScheduler(
            ConflictGraph(network, self._participants, two_hop=self._two_hop)
        )

    def _call(self, method: str, arguments: Mapping[int, Any]) -> Dict[int, Any]:
        try:
            return self.group.call_each(method, arguments)
        except WorkerCallError as error:
            if method == "run_slots":
                try:  # a worker that raised can still say how far it got
                    self._slots += self.group.call_one(error.worker, "epoch_slots")
                except WorkerCallError:
                    pass  # it died: the epoch's first slot is all there is to name
            raise WorkerCallError(
                error.worker, error.method, f"slot {self._slots}: {error.detail}"
            ) from None

    def _barrier(self, method: str, arguments: Mapping[int, Any]) -> List[Any]:
        """One slot phase over the workers named; their replies say who stays live."""
        replies = self._call(method, arguments)
        self._live = [shard for shard, reply in replies.items() if reply[0]]
        return list(replies.values())

    def _everywhere(self, method: str, argument: Any = None) -> List[Any]:
        """The control plane reaches every worker, parked or not, and may wake it."""
        self._live = list(self._everyone)
        return list(self._call(method, dict.fromkeys(self._everyone, argument)).values())

    # -- slots ---------------------------------------------------------

    def run_slots(self, epoch: Epoch) -> Tuple[int, List[Record], None]:
        budget, events, named = epoch
        if events or len(self._live) != 1:
            # One slot, every live worker in it; queued signals reach
            # every worker, parked or not.
            targets = self._everyone if events else self._live
            entries = self._barrier("begin_slot", dict.fromkeys(targets, events))
            return len(self._live), [self._slot(entries, named)], None
        ((_awake, records, unfinished),) = self._barrier(
            "run_slots", {self._live[0]: (budget, None, named)}
        )
        self._slots += len(records)
        for granted, contenders, _events in records:
            self._scheduler.observe(contenders, len(granted) if named else granted)
        if unfinished is not None:  # a node on the cut contends
            records.append(self._slot([unfinished], named))
        return len(self._live), records, None

    def _slot(self, entries: List[Contention], named: bool) -> Record:
        """Grant over the workers' lottery entries, then fire and resolve."""
        # Sorting (key, position) pairs breaks ties by ascending
        # participant position.
        keyed = sorted(
            pair for _awake, keys, positions in entries for pair in zip(keys, positions)
        )
        granted = self._scheduler.grant_from_keyed([position for _key, position in keyed])
        if self._boundary.isdisjoint(granted):
            # Interior: nothing fired can be heard on another worker.
            replies = self._barrier("fire_resolve", dict.fromkeys(self._live, granted))
        else:
            replies = self._cross_cut_slot(granted)
        # Place order across workers; the sort is stable, so what
        # happened at one receiver stays in the order its host saw it.
        events = sorted((event for reply in replies for event in reply[1]), key=_PLACE)
        self._slots += 1
        return granted if named else len(granted), len(keyed), events

    def _cross_cut_slot(self, granted: Tuple[int, ...]) -> List[Any]:
        """Fire everywhere, then route what each receiver heard to its host."""
        fired = self._barrier("fire", dict.fromkeys(self._live, granted))
        heard: Dict[int, List[Arrival]] = {}
        for _live, _events, entries in fired:
            for receiver, arrivals in entries:
                heard.setdefault(receiver, []).extend(arrivals)
        for arrivals in heard.values():
            arrivals.sort(key=_PLACE)
        owner = self._owner
        # Every live worker resolves (it samples its queues there); a
        # parked one only if something is addressed to it.
        routed: Dict[int, List[Entry]] = {shard: [] for shard in self._live}
        for entry in sorted(heard.items(), key=lambda entry: entry[1][0][:2]):
            routed.setdefault(owner[entry[0]], []).append(entry)
        resolved = self._barrier("resolve", routed)
        if self._has_unicast:
            settled: Dict[int, List[int]] = {shard: [] for shard in self._live}
            for _live, _events, successes in resolved:
                for sender in successes:
                    settled[owner[sender]].append(sender)
            self._barrier("finish_slot", settled)
        return fired + resolved

    # -- control plane and results: to every worker, replies merged ----

    def apply_events(self, events: Sequence[Any]) -> None:
        self._everywhere("apply_events", events)

    def advance_idle(self, slots: int) -> None:
        self._everywhere("advance_idle", slots)
        self._slots += slots

    def set_network(self, network: WirelessNetwork) -> None:
        self._everywhere("set_network", network)
        self._network = network
        self._index()

    def install_plan(self, plan: Install) -> None:
        """Every worker hears of it, with the settings of the nodes it holds."""
        settings, participants, terms = plan
        shares: Dict[int, NodeSettings] = {shard: {} for shard in self._everyone}
        for node, params in settings.items():
            shares[self._owner[node]][node] = params
        self._live = list(self._everyone)
        self._call("install_plan", {s: (share, participants, terms) for s, share in shares.items()})
        self._participants = participants
        self._index()

    def apply_plan(self, updates: Mapping[int, Mapping[str, Any]]) -> None:
        self._everywhere("apply_plan", updates)  # each worker picks out its own

    def parked_nodes(self, _argument: None = None) -> List[int]:
        return sorted(node for reply in self._everywhere("parked_nodes") for node in reply)

    def finalize(self, _argument: None = None) -> Dict[str, Any]:
        merged, *others = self._everywhere("finalize")
        for reply in others:
            for key, part in reply.items():
                if isinstance(part, dict):  # per node, and workers host disjoint nodes
                    merged[key].update(part)
                else:  # the delivered links
                    merged[key] += part
        return merged

    def close(self) -> None:
        """Shut the worker group down (idempotent)."""
        self.group.close()


class ShardedSession:
    """One emulated session over ``shards`` cores (see the module docstring).

    ``shards=1`` hosts the one core in this process; ``shards>1`` ships
    each strip's runtimes to a worker.  Either way the runtimes are
    reached only through the core's methods: signals, plan updates and
    plan installs.  ``decode_log`` is the recorder the runtimes'
    destination callbacks were wired to; the session replays decodes
    and deliveries into it in slot order.

    Read-only attributes: ``shards`` (core count), ``network`` (the
    topology currently emulated), ``participants`` (the nodes with a
    runtime, ascending), ``slot_duration`` (seconds of airtime per
    slot), ``slots`` (executed) and ``now`` (emulated seconds elapsed).
    """

    #: Most slots one epoch may run: bounds what is buffered (in a
    #: worker, pickled) before the session replays it.
    EPOCH_SLOTS = 256

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
        start_method: str | None = None,
    ) -> None:
        if slot_duration <= 0:
            raise ValueError(f"slot_duration must be > 0, got {slot_duration}")
        if interference not in ("blanking", "capture", "conflict_free"):
            raise ValueError(f"unknown interference model {interference!r}")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        require_shardable(network, shards)
        self.network = network
        self.participants = tuple(sorted(runtimes))
        self.slot_duration = slot_duration
        self._tracer = tracer
        self._log = decode_log if decode_log is not None else _DecodeLog()
        self._pending_events: List[Tuple[Any, ...]] = []
        self.slots = 0
        self.now = 0.0
        self._grants = 0
        self.shards = shards
        scope = obs.get_registry().attach("emulator")
        self._obs_enabled = scope.enabled
        self._m_slots = scope.counter("slots", "emulation slots executed")
        self._m_grants = scope.counter("grants", "MAC grants issued")
        self._m_time = scope.gauge("virtual_time", "emulated seconds elapsed")
        init = CoreInit(
            network=network,
            runtimes=runtimes,
            participants=self.participants,
            slot_duration=slot_duration,
            interference=interference,
            seed=rng_factory.seed,
            has_unicast=any(
                isinstance(runtime, UnicastRuntime) for runtime in runtimes.values()
            ),
            traced=tracer is not None,
            decode_log=self._log,
        )
        # The transport seam: the core itself, called directly — or a
        # core made of worker processes, called the same way.
        self._core: EngineCore | ShardedCores
        if shards == 1:
            self._core = EngineCore(init)
        else:
            self._core = ShardedCores(init, shards, start_method)

    def _control(self, method: str, argument: Any = None) -> Any:
        """A control-plane call on the core.

        Signals still queued for the next slot reach the runtimes first:
        whatever the caller does now happens after them, as it would
        had they been applied the moment they were signalled.
        """
        if self._pending_events:
            events, self._pending_events = self._pending_events, []
            self._core.apply_events(events)
        return getattr(self._core, method)(argument)

    # -- introspection -------------------------------------------------

    def parked_nodes(self) -> Tuple[int, ...]:
        """Nodes the slot loop currently skips (introspection)."""
        return tuple(self._core.parked_nodes())

    # -- slot loop -----------------------------------------------------

    def run(
        self,
        max_slots: int,
        *,
        stop_when: Callable[[], bool] | None = None,
    ) -> None:
        """Advance up to ``max_slots`` slots, an epoch at a time.

        ``stop_when`` is consulted between epochs: after every slot that
        replayed a decode — what a driver signals there is applied at
        the very next slot — and at the end of the call, not after every
        slot.  A predicate that watches the clock caps ``max_slots``.
        """
        if max_slots < 0:
            raise ValueError(f"max_slots must be >= 0, got {max_slots}")
        named = self._tracer is not None
        end = self.slots + max_slots
        while self.slots < end:
            self._run_epoch(min(end - self.slots, self.EPOCH_SLOTS), named)
            if stop_when is not None and stop_when():
                break

    def step(self) -> Tuple[int, ...]:
        """Execute one slot; returns the granted transmitter set."""
        granted: Tuple[int, ...] = self._run_epoch(1, True)[0][0]
        return granted

    def _run_epoch(self, budget: int, named: bool) -> List[Record]:
        """Have the core run up to ``budget`` slots and replay them;
        ``named`` asks for each slot's granted tuple, not just its size."""
        events = None
        if self._pending_events:
            events, self._pending_events = self._pending_events, []
        _awake, records, _pending = self._core.run_slots((budget, events, named))
        tracer = self._tracer
        slot_duration = self.slot_duration
        grants = 0
        for granted, _contenders, happened in records:
            if named:
                if tracer is not None:
                    for node in granted:
                        tracer.record(self.slots, self.now, "grant", node)
                granted = len(granted)
            if happened:
                self._replay(happened)
            self.slots += 1
            self.now += slot_duration
            grants += granted
        self._grants += grants
        if self._obs_enabled:
            self._m_slots.inc(len(records))
            self._m_grants.inc(grants)
            self._m_time.set(self.now)
        return records

    def _replay(self, events: List[Event]) -> None:
        """Apply a slot's events, which arrive in the order one process
        would have had them.  Decodes are stamped with the slot's start
        time, before the clock moves."""
        tracer = self._tracer
        log = self._log
        for _rank, _pos, tag, *data in events:
            if tag == "decoded":
                log.acks.append((data[0], self.now))
            elif tag == "delivered":
                log.delivered += 1
            elif tracer is not None:  # "tx" node, or "delivery" sender receiver
                tracer.record(self.slots, self.now, tag, *data)

    # -- control signals -----------------------------------------------

    def _signal(self, kind: str, method: str, *arguments: int, **trace: int) -> None:
        """Trace a control signal now; queue ``runtime.method(*arguments)``
        on every runtime for the next call that reaches the core."""
        if self._tracer is not None:
            self._tracer.record(self.slots, self.now, kind, -1, **trace)
        self._pending_events.append((method, *arguments))

    def broadcast_generation_advance(
        self, generation_id: int, session_id: int | None = None
    ) -> None:
        """Propagate an ACK/next-generation signal to every runtime.

        The paper sends the uncoded ACK over best-path routing; relays
        additionally expire on seeing newer-generation packets.  We model
        the ACK as fast and reliable (it is a single small packet on a
        high-quality path) and apply it at the slot boundary.  The trace
        record is the destination's decode event; detail = the new
        generation.  With a ``session_id`` — composite runtimes, one
        sub-runtime per session — only that session advances, and
        ``peer`` carries the session id so digests tell concurrent ACKs
        apart.
        """
        if session_id is None:
            self._signal("ack", "advance_generation", generation_id, detail=generation_id)
        else:
            self._signal(
                "ack", "advance_session_generation", session_id, generation_id,
                peer=session_id, detail=generation_id,
            )

    def broadcast_session_arrival(self, session_id: int) -> None:
        """Switch a dormant session live on every hosting runtime."""
        self._signal("arrive", "activate_session", session_id, peer=session_id)

    def broadcast_session_departure(self, session_id: int) -> None:
        """Remove a session from airtime contention on every runtime."""
        self._signal("depart", "deactivate_session", session_id, peer=session_id)

    # -- control plane -------------------------------------------------

    def advance_idle(self, slots: int) -> None:
        """Advance time with the data plane stalled (control-plane cost).

        Models the paper Sec. 4 re-initiation overhead: the node-selection
        flood and the rate-control message census occupy the channel for
        ``replan_cost().channel_seconds``, during which the session moves
        no data.  A zero-slot stall is exactly a no-op.
        """
        if slots < 0:
            raise ValueError(f"slots must be >= 0, got {slots}")
        if slots == 0:
            return
        self._control("advance_idle", slots)
        self.slots += slots
        self.now += slots * self.slot_duration
        if self._obs_enabled:
            self._m_slots.inc(slots)
            self._m_time.set(self.now)

    def set_network(self, network: WirelessNetwork) -> None:
        """Swap the topology mid-run (drift epoch, node failure/recovery).

        Geometry must be preserved (same node count) — scenario dynamics
        move link qualities, not nodes.
        """
        if network.node_count != self.network.node_count:
            raise ValueError(
                "replacement network must keep the node count "
                f"({self.network.node_count} != {network.node_count})"
            )
        self.network = network
        self._control("set_network", network)

    def install_plan(self, plan: SessionPlan, terms: RuntimeTerms, cbr: float) -> None:
        """Hot-swap a re-plan: make every runtime what ``plan`` wants its
        node to be, in the core that hosts the node.

        ``plan.node_settings(network, cbr)`` (``cbr``: the offered load
        in bytes/second) names the new participants.  A listed runtime
        is retuned in place — buffers, decoder rank, queue, credit and
        generation state survive; a missing one is built from ``terms``;
        an unlisted one is dropped, its counters kept in the stats
        (:func:`~repro.emulator.node.install_runtimes`).  RNG streams are
        preserved, so re-installing the plan a session already runs is
        invisible in the trace.
        """
        settings = plan.node_settings(self.network, cbr)
        self.participants = tuple(sorted(settings))
        self._control("install_plan", (settings, self.participants, terms))

    def apply_plan_updates(self, updates: Mapping[int, Mapping[str, Any]]) -> None:
        """Hot-swap plan parameters: ``runtime.apply_plan(**params)`` per node."""
        unknown = sorted(set(updates) - set(self.participants))
        if unknown:
            raise KeyError(f"no runtimes for nodes {unknown}")
        self._control("apply_plan", updates)

    # -- results -------------------------------------------------------

    def finalize_stats(self) -> EngineStats:
        """The run's counters so far (non-destructive)."""
        reply = self._control("finalize")  # the per-node fields, by name
        reply["delivered_links"] = {(int(i), int(j)) for i, j in reply["delivered_links"]}
        return EngineStats(
            slots=self.slots, elapsed=self.now, grants=self._grants, **reply
        )

    def close(self) -> None:
        """Shut the worker processes, if any, down (idempotent)."""
        self._core.close()

    def __enter__(self) -> "ShardedSession":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


def session_digest(result: "SessionResult") -> str:
    """Canonical SHA-256 digest of a :class:`SessionResult`.

    Floats are serialized through ``repr`` (shortest round-trip form),
    so two results digest equal iff every field is bit-identical — the
    shards=1 == shards=N oracle the tests and the CI smoke job assert.
    """
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
    records = []
    for event in tracer.events():
        record = event.as_dict()
        record["time"] = repr(event.time)  # full precision, not rounded
        records.append(record)
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
