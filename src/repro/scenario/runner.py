"""The adaptive session driver: epochs, hot-swap, overhead charging.

:func:`run_adaptive_session` executes one session under a
:class:`~repro.scenario.spec.ScenarioSpec`: the engine advances in
epochs; at each boundary the timeline fires due events onto the
topology, the controller observes drift and delivery progress, and the
:class:`~repro.scenario.controller.ReplanPolicy` decides whether to
re-initiate.  A re-plan:

1. runs the protocol's adaptive controller on the drifted topology
   (OMNC warm-starts from its previous dual prices);
2. charges the Sec. 4 control-plane overhead as stalled airtime via
   :meth:`~repro.emulator.engine.EmulationEngine.advance_idle`;
3. hot-swaps the new plan onto the *live* runtimes (``apply_plan``):
   coding buffers, decoder rank, queues and generation state survive;
   only rates/credits/routes change.  New forwarders get fresh
   runtimes, dropped ones leave (their queued packets are lost, as a
   silenced real node's would be);
4. refreshes the engine's precomputed slot-loop structures.

RNG discipline: scheduler/channel/capture/coding streams are never
re-seeded or re-ordered by a re-plan, and scenario drift draws live on
their own stream — fixed seed + fixed scenario = bit-identical traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Tuple

from repro import obs
from repro.emulator.channel import LossyBroadcastChannel
from repro.emulator.engine import EmulationEngine
from repro.emulator.node import (
    CodedRelayRuntime,
    CodedSourceRuntime,
    FlowRelayRuntime,
    FlowSourceRuntime,
    NodeRuntime,
    UnicastRuntime,
)
from repro.emulator.session import (
    SessionConfig,
    SessionResult,
    _AckTracker,
    _coded_result,
    build_plan_runtimes,
    unicast_demand_hint,
)
from repro.emulator.trace import SessionTracer
from repro.protocols.adaptive import AdaptivePlanner, CodingController
from repro.protocols.base import (
    CodedBroadcastPlan,
    CodingParams,
    CreditBroadcastPlan,
    SessionPlan,
    UnicastPathPlan,
)
from repro.routing.node_selection import NodeSelectionError
from repro.scenario.controller import EpochObservation, ReplanPolicy
from repro.scenario.spec import ScenarioSpec, ScenarioTimeline
from repro.topology.dynamics import quality_drift
from repro.topology.graph import WirelessNetwork
from repro.util.rng import RngFactory


@dataclass(frozen=True)
class EpochRecord:
    """What happened during one epoch.

    Attributes:
        epoch: 0-based index.
        end_time: emulated seconds at the epoch's end.
        drift: observed drift vs. the topology of the current plan.
        new_generations: generations decoded during the epoch.
        new_deliveries: unicast packets delivered during the epoch.
        replanned: whether the policy fired (and the re-plan succeeded).
        stall_seconds: control-plane airtime charged this epoch.
    """

    epoch: int
    end_time: float
    drift: float
    new_generations: int
    new_deliveries: int
    replanned: bool
    stall_seconds: float


@dataclass(frozen=True)
class AdaptiveSessionResult:
    """One adaptive run: the session outcome plus the control-plane story.

    Attributes:
        session: the aggregate result, same shape as a static run.
        policy: the re-planning policy's name.
        scenario: the scenario's name.
        epochs: per-epoch records.
        replans: successful re-plans executed.
        failed_replans: policy firings where planning failed (e.g. the
            destination was unreachable after a node failure).
        replan_seconds: total stalled airtime charged.
        replan_times: emulated time of each successful re-plan.
        planner_iterations: rate-control iterations per produced plan
            (first entry is the cold start; later ones are warm).
        generation_payload_bytes: payload per decoded generation.
        packet_payload_bytes: payload per delivered unicast packet.
    """

    session: SessionResult
    policy: str
    scenario: str
    epochs: Tuple[EpochRecord, ...]
    replans: int
    failed_replans: int
    replan_seconds: float
    replan_times: Tuple[float, ...]
    planner_iterations: Tuple[int, ...]
    generation_payload_bytes: int
    packet_payload_bytes: int

    def throughput_after(self, time: float) -> float:
        """Payload throughput over the window after ``time`` (B/s).

        The fig. 5 metric: how well the session did *after* the first
        scenario event, where an oblivious plan is stale.  Coded
        sessions count decoded-generation ACKs; unicast sessions count
        per-epoch deliveries.
        """
        window = self.session.duration - time
        if window <= 0:
            return 0.0
        if self.session.ack_times:
            decoded = sum(1 for ack in self.session.ack_times if ack > time)
            return decoded * self.generation_payload_bytes / window
        delivered = sum(
            record.new_deliveries
            for record in self.epochs
            if record.end_time > time
        )
        return delivered * self.packet_payload_bytes / window


def run_adaptive_session(
    network: WirelessNetwork,
    planner: AdaptivePlanner,
    policy: ReplanPolicy,
    spec: ScenarioSpec,
    *,
    session_id: int = 1,
    config: SessionConfig | None = None,
    rng: RngFactory | None = None,
    registry: obs.MetricsRegistry | None = None,
    tracer: SessionTracer | None = None,
    coding_controller: CodingController | None = None,
) -> AdaptiveSessionResult:
    """Run one session live under a scenario.

    The scenario's ``duration`` governs session length (the session
    config's ``max_seconds`` is ignored); control-plane stalls consume
    session time, so re-planning is never free.

    A ``coding_controller`` adds a second control loop: each epoch it
    re-evaluates the generation size (and systematic flag) from the
    drifted qualities, and changed decisions are pushed to every live
    runtime via ``apply_plan(coding=...)`` — honored at the next
    generation boundary, so in-flight decodes survive.  The initial
    decision is folded into the session config before runtimes are
    built (the slot and payload accounting see the chosen n).
    """
    config = config or SessionConfig()
    rng = rng or RngFactory(0)
    metrics = obs.resolve(registry)
    scope = metrics.attach("scenario")
    m_replans = scope.counter("replans", "successful mid-run re-plans")
    m_failed = scope.counter("failed_replans", "re-plans that could not plan")
    m_stall = scope.counter("stall_slots", "data-plane slots lost to control")
    m_drift = scope.gauge("drift", "observed drift vs the current plan")

    timeline = ScenarioTimeline(network, spec, rng=rng.derive("scenario"))
    plan = planner.plan(timeline.network)
    planned_network = timeline.network
    unicast = isinstance(plan, UnicastPathPlan)

    coding_current: CodingParams | None = None
    if coding_controller is not None and not unicast:
        coding_current = coding_controller.decide(timeline.network, plan)
        if coding_current is not None:
            config = replace(
                config,
                blocks=coding_current.blocks,
                systematic=coding_current.systematic,
            )

    delivered_count = [0]

    def on_delivered(_sequence: int) -> None:
        delivered_count[0] += 1

    tracker = _AckTracker()
    runtimes, _label = build_plan_runtimes(
        timeline.network,
        plan,
        session_id=session_id,
        config=config,
        rng=rng,
        on_decoded=tracker.on_decoded,
        on_delivered=on_delivered,
    )
    packet_bytes = (
        config.unicast_packet_bytes() if unicast else config.coded_packet_bytes()
    )
    slot = packet_bytes / network.capacity
    channel = LossyBroadcastChannel(timeline.network, rng=rng.derive("channel"))
    engine = EmulationEngine(
        timeline.network,
        runtimes,
        channel,
        slot,
        scheduler_rng=rng.derive("mac"),
        capture_rng=rng.derive("capture"),
        interference=config.interference,
        registry=registry,
        tracer=tracer,
    )
    tracker.engine = engine
    destination = planner.destination
    dest_runtime = engine.runtimes[destination]
    target = config.target_generations

    def stop() -> bool:
        tracker.apply_pending()
        return (
            target > 0
            and getattr(dest_runtime, "generations_decoded", 0) >= target
        )

    total_slots = int(spec.duration / slot)
    epoch_slots = max(1, int(round(spec.epoch_seconds / slot)))
    records: List[EpochRecord] = []
    replan_times: List[float] = []
    replans = 0
    failed_replans = 0
    replan_seconds = 0.0
    epoch = 0
    seen_generations = 0
    seen_deliveries = 0

    while engine.stats.slots < total_slots:
        batch = min(epoch_slots, total_slots - engine.stats.slots)
        engine.run(batch, stop_when=None if unicast else stop)
        generations = getattr(dest_runtime, "generations_decoded", 0)
        new_generations = generations - seen_generations
        new_deliveries = delivered_count[0] - seen_deliveries
        seen_generations = generations
        seen_deliveries = delivered_count[0]
        done = engine.stats.slots >= total_slots or (
            not unicast and target > 0 and generations >= target
        )

        changed = timeline.advance_to(engine.now)
        if changed:
            engine.set_network(timeline.network)
        drift = quality_drift(planned_network, timeline.network, strict=False)
        m_drift.set(drift)
        observation = EpochObservation(
            epoch=epoch,
            time=engine.now,
            drift=drift,
            generations_decoded=generations,
            new_generations=new_generations,
            new_deliveries=new_deliveries,
        )
        replanned = False
        stall_seconds = 0.0
        if not done and policy.should_replan(observation):
            try:
                plan = planner.plan(timeline.network)
                cost_seconds = planner.control_cost_seconds(timeline.network)
            except NodeSelectionError:
                # Unplannable (e.g. destination cut off by a failure):
                # keep running the stale plan and retry next epoch.
                failed_replans += 1
                m_failed.inc()
            else:
                stall_slots = math.ceil(cost_seconds / slot)
                engine.advance_idle(stall_slots)
                stall_seconds = stall_slots * slot
                replan_seconds += stall_seconds
                _hot_swap(engine, plan, timeline, config, rng, on_delivered)
                planned_network = timeline.network
                replanned = True
                replans += 1
                replan_times.append(engine.now)
                m_replans.inc()
                m_stall.inc(stall_slots)
                if tracer is not None:
                    tracer.record(
                        engine.stats.slots, engine.now, "replan", -1,
                        detail=epoch,
                    )
        if coding_controller is not None and not unicast and not done:
            decision = coding_controller.decide(timeline.network, plan)
            # Push when the decision changed, and re-push after a
            # hot-swap: replacement relays were built at the config's
            # generation size and adopt the live one at their next
            # generation boundary via the pending-coding path.
            if decision is not None and (
                replanned or decision != coding_current
            ):
                coding_current = decision
                engine.apply_plan_updates(
                    {node: {"coding": decision} for node in engine.runtimes}
                )
                if tracer is not None:
                    tracer.record(
                        engine.stats.slots, engine.now, "coding", -1,
                        detail=decision.blocks,
                    )
        records.append(
            EpochRecord(
                epoch=epoch,
                end_time=engine.now,
                drift=drift,
                new_generations=new_generations,
                new_deliveries=new_deliveries,
                replanned=replanned,
                stall_seconds=stall_seconds,
            )
        )
        epoch += 1
        if done:
            break

    stats = engine.stats
    # Every node that ever held a runtime (re-plans may have dropped
    # some); the stats dicts cover them all, the live runtime set
    # may not.
    participants = {
        node: engine.runtimes.get(node) for node in sorted(stats.transmissions)
    }
    if unicast:
        elapsed = stats.elapsed if stats.elapsed > 0 else 1.0
        session = SessionResult(
            protocol=planner.label,
            source=planner.source,
            destination=destination,
            throughput_bps=delivered_count[0] * config.block_size / elapsed,
            duration=stats.elapsed,
            generations_decoded=0,
            packets_delivered=delivered_count[0],
            ack_times=(),
            average_queues={
                n: stats.average_queue(n) for n in participants
            },
            transmissions=dict(stats.transmissions),
            participants=tuple(sorted(participants)),
            delivered_links=tuple(sorted(stats.delivered_links)),
        )
    else:
        session = _coded_result(
            planner.label,
            planner.source,
            destination,
            plan,
            config,
            stats,
            dest_runtime,
            tracker,
            participants,
        )
    return AdaptiveSessionResult(
        session=session,
        policy=policy.name,
        scenario=spec.name,
        epochs=tuple(records),
        replans=replans,
        failed_replans=failed_replans,
        replan_seconds=replan_seconds,
        replan_times=tuple(replan_times),
        planner_iterations=planner.iterations_history,
        generation_payload_bytes=config.generation_bytes(),
        packet_payload_bytes=config.block_size,
    )


def _hot_swap(
    engine: EmulationEngine,
    plan: SessionPlan,
    timeline: ScenarioTimeline,
    config: SessionConfig,
    rng: RngFactory,
    on_delivered: Callable[[int], None],
) -> None:
    """Apply a new plan to the live runtimes and refresh the engine.

    Surviving nodes keep their runtime objects (buffers, decoder rank,
    queues, credits); only the plan-derived parameters change.
    """
    network = timeline.network
    cbr_fraction = timeline.cbr_fraction
    if cbr_fraction is None:
        cbr_fraction = config.cbr_fraction
    cbr = cbr_fraction * network.capacity
    runtimes = engine.runtimes
    if isinstance(plan, CodedBroadcastPlan):
        updated = _swap_rate_plan(plan, runtimes, network, config, rng, cbr)
    elif isinstance(plan, CreditBroadcastPlan):
        updated = _swap_credit_plan(plan, runtimes, network, config, rng, cbr)
    elif isinstance(plan, UnicastPathPlan):
        updated = _swap_unicast_plan(
            plan, runtimes, network, config, cbr, on_delivered
        )
    else:
        raise TypeError(f"unsupported plan type {type(plan).__name__}")
    engine.rebuild_runtime_structures(updated)


def _make_coded_relay(
    node: int,
    session_id: int,
    config: SessionConfig,
    rng: RngFactory,
    **kwargs: Any,
) -> NodeRuntime:
    packet_bytes = config.coded_packet_bytes()
    if config.coding_fidelity == "exact":
        return CodedRelayRuntime(
            node,
            session_id,
            config.blocks,
            packet_bytes,
            rng.derive("coding", node),
            queue_limit=config.queue_limit,
            **kwargs,
        )
    return FlowRelayRuntime(
        node,
        session_id,
        config.blocks,
        packet_bytes,
        queue_limit=config.queue_limit,
        **kwargs,
    )


def _swap_rate_plan(
    plan: CodedBroadcastPlan,
    runtimes: Dict[int, NodeRuntime],
    network: WirelessNetwork,
    config: SessionConfig,
    rng: RngFactory,
    cbr: float,
) -> Dict[int, NodeRuntime]:
    """OMNC: retune source/relay rates; add/drop forwarders."""
    source = plan.forwarders.source
    destination = plan.forwarders.destination
    session_id = _session_id_of(runtimes[source])
    desired: Dict[int, float] = {}
    for node in plan.forwarders.nodes:
        if node == destination:
            continue
        rate = plan.rates.get(node, 0.0)
        if node == source:
            desired[node] = min(rate, cbr)
        elif rate > 0.0:
            desired[node] = rate
    updated: Dict[int, NodeRuntime] = {destination: runtimes[destination]}
    for node, rate in desired.items():
        existing = runtimes.get(node)
        if existing is not None:
            if node == source:
                existing.apply_plan(rate_bps=rate)
            else:
                existing.apply_plan(mode="rate", rate_bps=rate)
            updated[node] = existing
        else:
            updated[node] = _make_coded_relay(
                node, session_id, config, rng, mode="rate", rate_bps=rate
            )
    return updated


def _swap_credit_plan(
    plan: CreditBroadcastPlan,
    runtimes: Dict[int, NodeRuntime],
    network: WirelessNetwork,
    config: SessionConfig,
    rng: RngFactory,
    cbr: float,
) -> Dict[int, NodeRuntime]:
    """MORE/oldMORE: retune credits and upstream sets."""
    forwarders = plan.forwarders
    source = forwarders.source
    destination = forwarders.destination
    distance = forwarders.etx_distance
    session_id = _session_id_of(runtimes[source])
    updated: Dict[int, NodeRuntime] = {destination: runtimes[destination]}
    source_runtime = runtimes[source]
    source_runtime.apply_plan(rate_bps=cbr)
    updated[source] = source_runtime
    for node in forwarders.nodes:
        if node in (source, destination):
            continue
        credit = plan.tx_credits.get(node, 0.0)
        if credit <= 0.0:
            continue  # pruned forwarder: dropped from the session
        upstream = tuple(
            i for i in forwarders.nodes if distance[i] > distance[node]
        )
        existing = runtimes.get(node)
        if existing is not None and not isinstance(
            existing, (FlowSourceRuntime, CodedSourceRuntime)
        ):
            existing.apply_plan(
                mode="credit", tx_credit=credit, upstream=upstream
            )
            updated[node] = existing
        else:
            updated[node] = _make_coded_relay(
                node,
                session_id,
                config,
                rng,
                mode="credit",
                tx_credit=credit,
                upstream=upstream,
            )
    return updated


def _swap_unicast_plan(
    plan: UnicastPathPlan,
    runtimes: Dict[int, NodeRuntime],
    network: WirelessNetwork,
    config: SessionConfig,
    cbr: float,
    on_delivered: Callable[[int], None],
) -> Dict[int, NodeRuntime]:
    """ETX: re-route the path; surviving nodes keep queued packets."""
    packet_bytes = config.unicast_packet_bytes()
    updated: Dict[int, NodeRuntime] = {}
    for index, node in enumerate(plan.path):
        next_hop = plan.path[index + 1] if index + 1 < len(plan.path) else None
        rate = cbr if node == plan.source else 0.0
        demand = unicast_demand_hint(network, node, next_hop, cbr)
        existing = runtimes.get(node)
        if isinstance(existing, UnicastRuntime):
            existing.apply_plan(
                next_hop=next_hop, rate_bps=rate, demand_hint_bps=demand
            )
            updated[node] = existing
        else:
            updated[node] = UnicastRuntime(
                node,
                next_hop,
                rate_bps=rate,
                packet_bytes=packet_bytes,
                queue_limit=config.queue_limit,
                on_delivered=on_delivered,
                demand_hint_bps=demand,
            )
    return updated


def _session_id_of(runtime: NodeRuntime) -> int:
    """Recover the session id a coded runtime was built with."""
    return getattr(runtime, "_session_id", 1)
