"""The slotted emulation engine.

Time advances in packet slots (one slot = the airtime of one packet at
the MAC channel capacity).  Each slot:

1. every *awake* runtime accrues credits / generates packets
   (``on_slot``); runtimes parked at an exact fixed point are skipped
   (:mod:`repro.emulator.awake`) until a delivery or the control plane
   wakes them;
2. the ideal MAC scheduler grants a conflict-free transmitter set;
3. granted coded transmitters broadcast — every in-range participant
   draws an independent reception; granted unicast transmitters attempt
   their head-of-line packet toward the next hop (failure = MAC
   retransmission later);
4. queue lengths are sampled for the Fig. 3 statistics.

The engine is protocol-agnostic: behaviour differences live entirely in
the runtimes (:mod:`repro.emulator.node`) and the plans that configured
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Set, Tuple

from repro import obs
from repro.emulator.awake import AwakeSet
from repro.emulator.channel import LossyBroadcastChannel
from repro.emulator.node import NodeRuntime, UnicastRuntime
from repro.emulator.scheduler import ConflictGraph, IdealMacScheduler
from repro.emulator.trace import SessionTracer
from repro.topology.graph import Link, WirelessNetwork
from repro.util.rng import NodeStreams, RngFactory


@dataclass
class EngineStats:
    """Aggregate counters maintained by the engine during a run."""

    slots: int = 0
    elapsed: float = 0.0
    grants: int = 0
    queue_time_sum: Dict[int, float] = field(default_factory=dict)
    transmissions: Dict[int, int] = field(default_factory=dict)
    delivered_links: Set[Link] = field(default_factory=set)

    def average_queue(self, node: int) -> float:
        """Time-averaged queue length of ``node``."""
        if self.slots == 0:
            return 0.0
        return self.queue_time_sum.get(node, 0.0) / self.slots


class EmulationEngine:
    """Run one session's runtimes over the ideal MAC and lossy channel."""

    def __init__(
        self,
        network: WirelessNetwork,
        runtimes: Dict[int, NodeRuntime],
        channel: LossyBroadcastChannel,
        slot_duration: float,
        *,
        streams: NodeStreams | None = None,
        interference: str = "blanking",
        tracer: SessionTracer | None = None,
        registry: obs.MetricsRegistry | None = None,
    ) -> None:
        if slot_duration <= 0:
            raise ValueError(f"slot_duration must be > 0, got {slot_duration}")
        if interference not in ("blanking", "capture", "conflict_free"):
            raise ValueError(f"unknown interference model {interference!r}")
        self._network = network
        self._runtimes = dict(runtimes)
        self._channel = channel
        self._dt = slot_duration
        self._interference = interference
        metrics = obs.resolve(registry)
        self._metrics = metrics
        # Every MAC lottery key, channel loss draw and capture tie-break
        # comes from a stream owned by the node it concerns, so RNG
        # consumption is independent of who else is active — the
        # property the sharded slot loop (:mod:`repro.emulator.shard`)
        # needs for shards=1 == shards=N bit-identity.
        self._streams = streams if streams is not None else NodeStreams(RngFactory(0))
        self._pending_unicast: Dict[int, bool] = {}
        self._tracer = tracer
        self._stats = EngineStats(
            queue_time_sum={n: 0.0 for n in runtimes},
            transmissions={n: 0 for n in runtimes},
        )
        self._build_runtime_structures()
        scope = metrics.attach("emulator")
        self._obs_enabled = scope.enabled
        self._m_slots = scope.counter("slots", "emulation slots executed")
        self._m_grants = scope.counter("grants", "MAC grants issued")
        self._m_tx = scope.counter("transmissions", "packets put on the air")
        self._m_deliveries = scope.counter(
            "deliveries", "packets delivered to a receiver"
        )
        self._m_blanked = scope.counter(
            "blanked", "receptions lost to hidden-terminal interference"
        )
        self._m_time = scope.gauge("virtual_time", "emulated seconds elapsed")
        self._m_queue = scope.histogram(
            "queue_depth", "per-node queue length sampled every slot"
        )

    def _build_runtime_structures(self) -> None:
        """(Re)compute the precomputed slot-loop structures (the hot path).

        Participant order is the conflict graph's sorted order; per-slot
        state lives in preallocated arrays instead of rebuilt dicts.
        Derived entirely from ``self._network`` and ``self._runtimes``, so
        the live control plane can refresh everything after a topology or
        plan change without touching any RNG stream.
        """
        network = self._network
        self._conflicts = ConflictGraph(
            network,
            self._runtimes.keys(),
            two_hop=(self._interference == "conflict_free"),
        )
        # The scheduler's own stream is never consumed: keys arrive
        # pre-drawn from each contender's "mac" stream.
        self._scheduler = IdealMacScheduler(self._conflicts, registry=self._metrics)
        participants = self._conflicts.participants
        self._participants = participants
        self._positions = {node: i for i, node in enumerate(participants)}
        self._runtime_list = [self._runtimes[node] for node in participants]
        # Rebuilt with everything awake: whoever asked for the rebuild
        # may have swapped plans or runtime objects.
        self._awake = AwakeSet(len(participants))
        # Queue-time accumulators carry over: a node that participated
        # before a rebuild keeps its integral, new nodes start at zero.
        queue_time_sum = self._stats.queue_time_sum
        self._queue_time_buf: List[float] = [
            queue_time_sum.get(node, 0.0) for node in participants
        ]
        node_count = network.node_count
        # Node-indexed per-slot scratch: which nodes transmit this slot,
        # and how many granted transmitters cover each node (blanking
        # model).  Reset per slot by touched entry, not by rebuild.
        self._granted_flags: List[bool] = [False] * node_count
        self._covered_counts: List[int] = [0] * node_count
        # Per transmitter, in ascending node order (so every process —
        # shard workers unpickle their own network copy — maps the
        # transmitter's loss draws to receivers identically):
        #  - _cov_list: every geometric neighbor (coverage targets);
        #  - _rx_pairs: (receiver, p) over neighbors that are session
        #    runtimes; p = 0 where no usable link exists (such receivers
        #    still count toward blanking — coverage is geometric).
        self._cov_list: Dict[int, List[int]] = {}
        self._rx_pairs: Dict[int, List[Tuple[int, float]]] = {}
        for node in participants:
            neighbors = sorted(network.neighbors(node))
            self._cov_list[node] = neighbors
            self._rx_pairs[node] = [
                (j, network.probability(node, j))
                for j in neighbors
                if j in self._runtimes
            ]

    def rebuild_runtime_structures(
        self, runtimes: Dict[int, NodeRuntime] | None = None
    ) -> None:
        """Refresh the precomputed slot-loop structures mid-run.

        The live control plane calls this after hot-swapping a plan
        (optionally replacing the runtime set: new forwarders appear,
        silenced ones may be dropped) or after :meth:`set_network`.
        The per-node RNG streams are preserved, so a
        rebuild that changes nothing is invisible: the subsequent trace is
        bit-identical to a run that never rebuilt.
        """
        self._flush_queue_stats()
        if runtimes is not None:
            for node, runtime in runtimes.items():
                if runtime.node_id != node:
                    raise ValueError(
                        f"runtime for node {node} reports id {runtime.node_id}"
                    )
            self._runtimes = dict(runtimes)
        stats = self._stats
        for node in self._runtimes:
            stats.queue_time_sum.setdefault(node, 0.0)
            stats.transmissions.setdefault(node, 0)
        self._build_runtime_structures()

    def set_network(self, network: WirelessNetwork) -> None:
        """Swap the topology mid-run (drift epoch, node failure/recovery).

        Updates the channel's loss model and refreshes every precomputed
        neighbor/receiver structure.  Geometry must be preserved (same
        node count) — scenario dynamics move link qualities, not nodes.
        """
        if network.node_count != self._network.node_count:
            raise ValueError(
                "replacement network must keep the node count "
                f"({self._network.node_count} != {network.node_count})"
            )
        self._network = network
        self._channel.set_network(network)
        self.rebuild_runtime_structures()

    @property
    def runtimes(self) -> Dict[int, NodeRuntime]:
        """The live per-node runtimes (shared objects, not copies).

        Handing out live objects invites mutation the engine cannot see,
        so every runtime is woken; a caller that keeps the objects and
        mutates them later must call :meth:`wake_all` (or go through
        :meth:`apply_plan_updates`) itself.
        """
        self._awake.wake_all()
        return dict(self._runtimes)

    def wake_all(self) -> None:
        """Re-examine every runtime on the next slot.

        The slot loop skips runtimes parked at a fixed point of their
        tick; anything that changes a runtime from outside the loop has
        to un-park it.  Every engine entry point that can do so calls
        this already; it is public for code that mutates a runtime
        object directly between :meth:`step` calls.
        """
        self._awake.wake_all()

    def parked_nodes(self) -> Tuple[int, ...]:
        """Nodes the slot loop currently skips (introspection)."""
        participants = self._participants
        return tuple(participants[i] for i in self._awake.parked_positions())

    def apply_plan_updates(self, updates: Mapping[int, Mapping[str, Any]]) -> None:
        """Hot-swap plan parameters: ``runtime.apply_plan(**params)`` per node."""
        unknown = sorted(set(updates) - set(self._runtimes))
        if unknown:
            raise KeyError(f"no runtimes for nodes {unknown}")
        for node, params in updates.items():
            self._runtimes[node].apply_plan(**params)
            self._awake.wake(self._positions[node])

    @property
    def network(self) -> WirelessNetwork:
        """The topology currently being emulated."""
        return self._network

    def advance_idle(self, slots: int) -> None:
        """Advance time with the data plane stalled (control-plane cost).

        Models the paper Sec. 4 re-initiation overhead: the node-selection
        flood and the rate-control message census occupy the channel for
        ``replan_cost().channel_seconds``, during which the session moves
        no data.  Queues hold their occupancy (their time-integral keeps
        accruing), credits do not accrue, and **no RNG stream is
        consumed**, so a zero-slot stall is exactly a no-op.
        """
        if slots < 0:
            raise ValueError(f"slots must be >= 0, got {slots}")
        if slots == 0:
            return
        queue_times = self._queue_time_buf
        for index, runtime in enumerate(self._runtime_list):
            queue_length = runtime.queue_length()
            queue_times[index] += queue_length * slots
            if self._obs_enabled:
                self._m_queue.observe(queue_length)
        stats = self._stats
        stats.slots += slots
        stats.elapsed += slots * self._dt
        if self._obs_enabled:
            self._m_slots.inc(slots)
            self._m_time.set(stats.elapsed)

    @property
    def stats(self) -> EngineStats:
        """Counters collected so far."""
        self._flush_queue_stats()
        return self._stats

    def _flush_queue_stats(self) -> None:
        """Publish the queue-time accumulator into the stats dict.

        The slot loop accumulates into a flat array; the dict view the
        stats object exposes is materialized only when someone looks.
        """
        for index, node in enumerate(self._participants):
            self._stats.queue_time_sum[node] = self._queue_time_buf[index]

    @property
    def now(self) -> float:
        """Emulated seconds elapsed."""
        return self._stats.elapsed

    @property
    def slot_duration(self) -> float:
        """Seconds of airtime per slot."""
        return self._dt

    def run(
        self,
        max_slots: int,
        *,
        stop_when: Callable[[], bool] | None = None,
    ) -> EngineStats:
        """Advance up to ``max_slots`` slots; ``stop_when`` checked each
        slot after delivery processing."""
        if max_slots < 0:
            raise ValueError(f"max_slots must be >= 0, got {max_slots}")
        # Between runs the caller owns the runtimes (epoch drivers swap
        # plans there), so nothing parked survives the boundary.
        self._awake.wake_all()
        for _ in range(max_slots):
            self.step()
            if stop_when is not None and stop_when():
                break
        self._flush_queue_stats()
        return self._stats

    def step(self) -> Tuple[int, ...]:
        """Execute one slot; returns the granted transmitter set."""
        dt = self._dt
        # One pass per awake runtime: clock advance, then scheduler
        # inputs.  Safe to fuse — runtimes only interact through
        # deliveries, and each holds its own RNG, so per-node slot work
        # is independent.
        contenders, weights = self._awake.tick(self._runtime_list, dt)
        granted = self._schedule(contenders, weights)
        if self._tracer is not None:
            for node in granted:
                self._tracer.record(
                    self._stats.slots, self._stats.elapsed, "grant", node
                )
        self._deliver(granted)
        queue_times = self._queue_time_buf
        if self._obs_enabled:
            # The histogram takes one sample per runtime per slot, in
            # participant order, parked or not (parked ones read 0).
            for index, runtime in enumerate(self._runtime_list):
                queue_length = runtime.queue_length()
                queue_times[index] += queue_length
                self._m_queue.observe(queue_length)
        else:
            self._awake.sample_queues(self._runtime_list, queue_times)
        stats = self._stats
        stats.slots += 1
        stats.elapsed += dt
        stats.grants += len(granted)
        if self._obs_enabled:
            self._m_slots.inc()
            self._m_grants.inc(len(granted))
            self._m_time.set(stats.elapsed)
        return granted

    def _schedule(
        self, contenders: List[int], weights: List[float]
    ) -> Tuple[int, ...]:
        """Weighted-lottery grant with per-contender key streams.

        Consumes one scalar ``Exp(1)`` draw from each contender's own
        "mac" stream, so a node's key sequence depends only on how
        often *it* contended — not on who else did.  The greedy pass is
        the scheduler's own.
        """
        streams = self._streams
        participants = self._participants
        floor = IdealMacScheduler.WEIGHT_FLOOR
        keyed: List[Tuple[float, int]] = []
        for position, weight in zip(contenders, weights):
            draw = streams.get("mac", participants[position]).standard_exponential()
            keyed.append((draw / max(weight, floor), position))
        keyed.sort()
        return self._scheduler.grant_from_keyed(keyed)

    def _record_tx(self, node: int) -> None:
        if self._obs_enabled:
            self._m_tx.inc()
        if self._tracer is not None:
            self._tracer.record(
                self._stats.slots, self._stats.elapsed, "tx", node
            )

    def _deliver(self, granted: Tuple[int, ...]) -> None:
        """Resolve one slot's transmissions into per-receiver deliveries.

        The granted set is conflict-free under the scheduler's relation.
        What happens when two granted transmitters still cover a common
        receiver depends on the interference model:

        * ``"blanking"`` (default; Drift's model, Sec. 5: "a node cannot
          receive packets if it falls in the range of an interfering
          node") — the receiver hears nothing that slot.  Uncontrolled
          saturation therefore costs throughput quadratically, which is
          exactly the congestion penalty OMNC's rate control is designed
          to avoid.
        * ``"capture"`` — the receiver keeps exactly one of the arrivals
          (uniform choice): an idealized receiver that time-shares its
          airtime, the fluid reading of broadcast constraint (4).
        * ``"conflict_free"`` — cannot happen: the scheduler already
          serializes shared-receiver transmitters (two-hop conflicts),
          the Sec. 3.2 idealized broadcast MAC.
        """
        granted_flags = self._granted_flags
        for node in granted:
            granted_flags[node] = True
        blanking = self._interference == "blanking"
        streams = self._streams
        # Phase 1: fire transmissions and draw per-link receptions.
        offers: Dict[int, List[Tuple[int, object]]] = {}
        covered = self._covered_counts
        if blanking:
            for node in granted:
                for j in self._cov_list[node]:
                    covered[j] += 1
        for node in granted:
            runtime = self._runtimes[node]
            if isinstance(runtime, UnicastRuntime):
                sequence = runtime.peek_sequence()
                if sequence is None:
                    continue
                target = runtime.next_hop
                assert target is not None
                self._stats.transmissions[node] += 1
                self._record_tx(node)
                self._pending_unicast[node] = False
                if granted_flags[target]:
                    continue  # half-duplex: a transmitter cannot receive
                if blanking and covered[target] > 1:
                    if self._obs_enabled:
                        self._m_blanked.inc()
                    continue  # hidden-terminal collision at the receiver
                if self._channel.unicast(
                    node, target, rng=streams.get("channel", node)
                ):
                    offers.setdefault(target, []).append((node, sequence))
            else:
                packet = runtime.pop_transmission()
                if packet is None:
                    continue
                self._stats.transmissions[node] += 1
                self._record_tx(node)
                candidate_ids: List[int] = []
                candidate_probs: List[float] = []
                if blanking:
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
                    if blanked and self._obs_enabled:
                        self._m_blanked.inc(blanked)
                else:
                    for j, p in self._rx_pairs[node]:
                        if p > 0.0 and not granted_flags[j]:
                            candidate_ids.append(j)
                            candidate_probs.append(p)
                delivered = self._channel.broadcast_prefiltered(
                    candidate_ids, candidate_probs, rng=streams.get("channel", node)
                )
                for j in delivered:
                    offers.setdefault(j, []).append((node, packet))
        # Phase 2: per-receiver resolution — at most one delivery per slot.
        for receiver, arrivals in offers.items():
            if len(arrivals) == 1:
                sender, payload = arrivals[0]
            else:
                tie_break = streams.get("capture", receiver)
                index = int(tie_break.integers(0, len(arrivals)))
                sender, payload = arrivals[index]
            self._stats.delivered_links.add((sender, receiver))
            if self._obs_enabled:
                self._m_deliveries.inc()
            if self._tracer is not None:
                self._tracer.record(
                    self._stats.slots,
                    self._stats.elapsed,
                    "delivery",
                    sender,
                    peer=receiver,
                )
            runtime = self._runtimes[receiver]
            self._awake.wake(self._positions[receiver])
            if isinstance(self._runtimes[sender], UnicastRuntime):
                self._pending_unicast[sender] = True
                assert isinstance(runtime, UnicastRuntime)
                runtime.receive_sequence(payload)  # type: ignore[arg-type]
            elif not isinstance(runtime, UnicastRuntime):
                runtime.on_receive(payload, sender)  # type: ignore[arg-type]
        # Phase 3: settle unicast attempts (success = resolved delivery).
        for node in granted:
            runtime = self._runtimes[node]
            if isinstance(runtime, UnicastRuntime) and node in self._pending_unicast:
                runtime.complete_transmission(self._pending_unicast.pop(node))
        for node in granted:
            granted_flags[node] = False
        if blanking:
            for node in granted:
                for j in self._cov_list[node]:
                    covered[j] = 0

    def broadcast_generation_advance(self, generation_id: int) -> None:
        """Propagate an ACK/next-generation signal to every runtime.

        The paper sends the uncoded ACK over best-path routing; relays
        additionally expire on seeing newer-generation packets.  We model
        the ACK as fast and reliable (it is a single small packet on a
        high-quality path) and apply it at the slot boundary.
        """
        if self._tracer is not None:
            # The destination's decode event; detail = the new generation.
            self._tracer.record(
                self._stats.slots,
                self._stats.elapsed,
                "ack",
                -1,
                detail=generation_id,
            )
        self._awake.wake_all()
        for runtime in self._runtimes.values():
            runtime.advance_generation(generation_id)

    def broadcast_session_generation_advance(
        self, session_id: int, generation_id: int
    ) -> None:
        """Per-session ACK propagation for multi-session runs.

        Same modelling as :meth:`broadcast_generation_advance` (fast,
        reliable, applied at the slot boundary), but scoped to one
        session of the composite runtimes; other sessions' generation
        state is untouched.  ``peer`` carries the session id in the
        trace so digests distinguish concurrent ACKs.
        """
        if self._tracer is not None:
            self._tracer.record(
                self._stats.slots,
                self._stats.elapsed,
                "ack",
                -1,
                peer=session_id,
                detail=generation_id,
            )
        self._awake.wake_all()
        for runtime in self._runtimes.values():
            runtime.advance_session_generation(session_id, generation_id)

    def broadcast_session_arrival(self, session_id: int) -> None:
        """Switch a dormant session live on every hosting runtime."""
        if self._tracer is not None:
            self._tracer.record(
                self._stats.slots,
                self._stats.elapsed,
                "arrive",
                -1,
                peer=session_id,
            )
        self._awake.wake_all()
        for runtime in self._runtimes.values():
            runtime.activate_session(session_id)

    def broadcast_session_departure(self, session_id: int) -> None:
        """Remove a session from airtime contention on every runtime."""
        if self._tracer is not None:
            self._tracer.record(
                self._stats.slots,
                self._stats.elapsed,
                "depart",
                -1,
                peer=session_id,
            )
        self._awake.wake_all()
        for runtime in self._runtimes.values():
            runtime.deactivate_session(session_id)
