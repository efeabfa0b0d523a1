"""One session, one slot loop, one trace: the session above the core.

:class:`ShardedSession` is the session-side half of every emulated
slot: the clock, the deferred control events, the replay of what
happened into the tracer and the recorder, and the stats.  The
per-process half — everything that happens *to* the nodes a process
hosts, slot loop included — is :class:`~repro.emulator.engine.EngineCore`.
Every driver runs a session at ``shards=1``: one core that hosts every
node, called directly, in this process, pickling nothing.

``shards=N`` keeps the data plane of one flow or coded session running
across worker processes — the benchmark's relay line
(``mesh2k_shards2``) is its one consumer: :class:`ShardedCores` answers
the core's slot methods from one core per spatial strip and worker, and
produces the same trace, stats and
:class:`~repro.emulator.session.SessionResult` as ``shards=1``, bit for
bit.  A unicast session and the control plane (re-plans, plan updates,
topology swaps, idle stalls) run in one process only.

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
* **Deferred control events.**  A control signal (a session's arrival or
  departure) is traced when it is made and reaches the runtimes with the
  next call of any kind — normally the next ``begin_slot``, the same
  point in runtime-state time, since nothing touches the data plane in
  between.  So does a decode's ACK on the workers that did not decode:
  the core that did has applied it already, and its worker's epoch ends
  there.
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
    Record,
    _DecodeLog,
    acknowledgements,
    compilable,
)
from repro.emulator.node import NodeRuntime, RuntimeTerms, UnicastRuntime
from repro.emulator.plan import SessionPlan
from repro.emulator.scheduler import ConflictGraph, IdealMacScheduler
from repro.exec.pool import PersistentWorkerGroup, WorkerCallError, WorkerPool
from repro.topology.graph import WirelessNetwork
from repro.topology.partition import partition_positions
from repro.util.rng import RngFactory

if TYPE_CHECKING:  # pragma: no cover - session.py builds on this module
    from repro.emulator.session import SessionResult

__all__ = [
    "ShardedSession",
    "session_digest",
]

_PLACE = itemgetter(0, 1)


class ShardedCores:
    """An :class:`EngineCore` made of cores, one per spatial strip and
    process, for the data plane of one flow or coded session.

    It answers the core's slot methods with the core's replies, so the
    session above it cannot tell one process from many.  What it adds
    is the fan-out and fan-in of a cut mesh: it partitions the nodes
    into strips and ships each strip's runtimes to a long-lived worker.
    Only the *live* workers hear of a slot, those whose last slot-phase
    reply reported a non-empty awake set — a parked one hears nothing
    until a resolve entry or a control signal reaches it (DESIGN.md
    §13).  With exactly one live and no control signal queued the slot
    is part of an *epoch*: that worker is handed the budget and grants
    and runs its own slots (:meth:`EngineCore.run_slots`), one message
    for all of them up to a decode.  Otherwise ``begin_slot`` gathers
    lottery keys for the greedy pass here; then an *interior* slot,
    where no granted transmitter has a neighbour hosted by another
    worker, is one ``fire_resolve`` in which every arrival is resolved
    where it was fired and no packet crosses a pipe, and a *cross-cut*
    one is ``fire`` (every worker sees the full grant), then ``resolve``
    at each receiver's host.  Replies merge in place order; a failure
    names the slot it happened in.
    """

    def __init__(self, init: CoreInit, shards: int) -> None:
        self._owner = owner = partition_positions(init.network.positions, shards)
        if init.has_unicast:
            raise ValueError(
                "a session with unicast runtimes runs in one process, not on "
                f"{shards} shards"
            )
        network, participants = init.network, init.participants
        self._slots = 0  # executed so far, for failure reports
        self._everyone = range(shards)
        self._live = list(self._everyone)
        self._acks: List[Any] = []  # the ACKs of decodes, for every worker's next call
        # The boundary — participants with a neighbour hosted by another
        # worker, the only transmitters whose slot needs the cross-cut
        # phases — and the scheduler for slots several workers contend in.
        self._boundary = frozenset(
            node
            for node in participants
            if any(owner[peer] != owner[node] for peer in network.neighbors(node))
        )
        self._scheduler = IdealMacScheduler(
            ConflictGraph(network, participants, two_hop=init.interference == "conflict_free")
        )
        if compilable(init):  # resolved once here, forked workers inherit it
            engine.compiled_kernel()
        self.group: PersistentWorkerGroup = WorkerPool(shards).persistent(
            EngineCore,
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
        """A call every worker hears, parked or not; it may wake them."""
        self._live = list(self._everyone)
        return list(self._call(method, dict.fromkeys(self._everyone, argument)).values())

    # -- slots ---------------------------------------------------------

    def run_slots(self, epoch: Epoch) -> Tuple[int, List[Record], None]:
        budget, events, named, decodes = epoch
        events = self._signals(events)
        if events or len(self._live) != 1:
            # One slot, every live worker in it; queued signals reach
            # every worker, parked or not.
            targets = self._everyone if events else self._live
            entries = self._barrier("begin_slot", dict.fromkeys(targets, events))
            return len(self._live), [self._slot(entries, named)], None
        # A decode ends the epoch, so its ACK reaches the others first.
        limit = 1 if decodes is None else min(decodes, 1)
        ((_awake, records, unfinished),) = self._barrier(
            "run_slots", {self._live[0]: (budget, None, named, limit)}
        )
        self._acks += acknowledgements(e for *_slot, happened in records for e in happened)
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
        self._acks += acknowledgements(events)
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
        return fired + self._barrier("resolve", routed)

    def _signals(self, events: Sequence[Any] | None) -> List[Any]:
        """The ACKs of decodes (a no-op where the core that decoded applied
        them), then ``events``: what every worker applies first."""
        signals, self._acks = [*self._acks, *(events or ())], []
        return signals

    # -- signals and results: to every worker, replies merged ----------

    def apply_events(self, events: Sequence[Any]) -> None:
        self._everywhere("apply_events", self._signals(events))

    def finalize(self, _argument: None = None) -> Dict[str, Any]:
        if self._acks:
            self.apply_events(())
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
    each strip's runtimes to a worker, for the data plane of a flow or
    coded session only: a unicast runtime is refused at construction,
    and :meth:`advance_idle`, :meth:`set_network`, :meth:`install_plan`,
    :meth:`apply_plan_updates` and :meth:`parked_nodes` with a
    ``ValueError``.  Either way the runtimes are reached only through
    the core's methods.  ``decode_log`` is the recorder the runtimes'
    destination callbacks were wired to; the session replays decodes
    and deliveries into it in slot order, and the core ACKs each decode
    it hears right after its slot.

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
        tracer: obs.EventTracer | None = None,
        decode_log: _DecodeLog | None = None,
    ) -> None:
        if slot_duration <= 0:
            raise ValueError(f"slot_duration must be > 0, got {slot_duration}")
        if interference not in ("blanking", "capture", "conflict_free"):
            raise ValueError(f"unknown interference model {interference!r}")
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
        self._core: EngineCore | ShardedCores = (
            EngineCore(init) if shards == 1 else ShardedCores(init, shards)
        )

    def _control(self, method: str, argument: Any = None) -> Any:
        """A control-plane call on the core.

        Signals still queued for the next slot reach the runtimes first:
        whatever the caller does now happens after them, as it would
        had they been applied the moment they were signalled.
        """
        call = self._in_process(method)
        if self._pending_events:
            events, self._pending_events = self._pending_events, []
            self._core.apply_events(events)
        return call(argument)

    def _in_process(self, method: str) -> Callable[[Any], Any]:
        """The core's ``method``; a ``ValueError`` before anything happens
        where worker cores do not take it."""
        call = getattr(self._core, method, None)
        if call is None:
            raise ValueError(
                f"{method} runs in one process, and this session has {self.shards} shards"
            )
        return call

    # -- introspection -------------------------------------------------

    def parked_nodes(self) -> Tuple[int, ...]:
        """Nodes the slot loop currently skips (introspection)."""
        return tuple(self._in_process("parked_nodes")(None))

    # -- slot loop -----------------------------------------------------

    def run(
        self,
        max_slots: int,
        *,
        decodes: Callable[[], int | None] | None = None,
    ) -> None:
        """Advance up to ``max_slots`` slots, an epoch at a time.

        ``decodes`` is consulted before every epoch: how many more decodes
        the call may replay (None: any number).  An epoch ends after the
        slot that uses them up, the call once they read 0.
        """
        if max_slots < 0:
            raise ValueError(f"max_slots must be >= 0, got {max_slots}")
        named = self._tracer is not None
        end = self.slots + max_slots
        while self.slots < end:
            allowance = None if decodes is None else decodes()
            if allowance == 0:
                break
            self._run_epoch(min(end - self.slots, self.EPOCH_SLOTS), named, allowance)

    def step(self) -> Tuple[int, ...]:
        """Execute one slot; returns the granted transmitter set."""
        granted: Tuple[int, ...] = self._run_epoch(1, True)[0][0]
        return granted

    def _run_epoch(self, budget: int, named: bool, decodes: int | None = None) -> List[Record]:
        """Have the core run up to ``budget`` slots and ``decodes`` decodes
        and replay them; ``named`` asks for each slot's granted tuple, not
        just its size."""
        events = None
        if self._pending_events:
            events, self._pending_events = self._pending_events, []
        _awake, records, _pending = self._core.run_slots((budget, events, named, decodes))
        tracer = self._tracer
        slot_duration = self.slot_duration
        grants = 0
        slots, now = self.slots, self.now
        for granted, _contenders, happened in records:
            if named:
                if tracer is not None:
                    for node in granted:
                        tracer.emit("grant", slot=slots, time=now, node=node)
                granted = len(granted)
            if happened:
                self.slots, self.now = slots, now  # the clock the replay stamps with
                self._replay(happened)
            slots += 1
            now += slot_duration
            grants += granted
        self.slots, self.now = slots, now
        self._grants += grants
        if self._obs_enabled:
            self._m_slots.inc(len(records))
            self._m_grants.inc(grants)
            self._m_time.set(self.now)
        return records

    def _replay(self, events: List[Event]) -> None:
        """Apply a slot's events, which arrive in the order one process
        would have had them.  Decodes are stamped with the slot's start
        time, before the clock moves; their ACKs are traced after the
        slot's events, at the next slot's start (detail: the generation,
        ``peer``: a session-bound decode's session)."""
        tracer = self._tracer
        log = self._log
        for _rank, _pos, tag, *data in events:
            if tag == "decoded":
                log.acks.append((data[0], self.now))
            elif tag == "delivered":
                log.delivered += 1
            elif tracer is None:
                continue
            elif tag == "tx":
                tracer.emit("tx", slot=self.slots, time=self.now, node=data[0])
            else:  # "delivery" sender receiver
                tracer.emit(tag, slot=self.slots, time=self.now, node=data[0], peer=data[1])
        if tracer is not None:
            slot, now = self.slots + 1, self.now + self.slot_duration  # the next slot's start
            for _method, *session, generation in acknowledgements(events):
                bound = {"peer": session[0]} if session else {}
                tracer.emit("ack", slot=slot, time=now, node=-1, **bound, detail=generation)

    # -- control signals -----------------------------------------------

    def _signal(self, kind: str, method: str, *arguments: int, **trace: int) -> None:
        """Trace a control signal now; queue ``runtime.method(*arguments)``
        on every runtime for the next call that reaches the core."""
        if self._tracer is not None:
            self._tracer.emit(kind, slot=self.slots, time=self.now, node=-1, **trace)
        self._pending_events.append((method, *arguments))

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
        self._control("set_network", network)
        self.network = network

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
        participants = tuple(sorted(settings))
        self._control("install_plan", (settings, participants, terms))
        self.participants = participants

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
    so two results digest equal iff every field is bit-identical.
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
