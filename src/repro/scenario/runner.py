"""The adaptive session driver: epochs, hot-swap, overhead charging.

:func:`run_adaptive_session` executes one session under a
:class:`~repro.scenario.spec.ScenarioSpec`: the one session driver
(:func:`~repro.emulator.session.run_sessions`) advances it in epochs,
and at each boundary the timeline fires due events onto the
topology, the controller observes drift and delivery progress, and the
:class:`~repro.scenario.controller.ReplanPolicy` decides whether to
re-initiate.  A re-plan:

1. runs the protocol's adaptive controller on the drifted topology
   (OMNC warm-starts from its previous dual prices);
2. charges the Sec. 4 control-plane overhead as stalled airtime via
   :meth:`~repro.emulator.shard.ShardedSession.advance_idle`;
3. hot-swaps the new plan onto the *live* runtimes
   (:meth:`~repro.emulator.shard.ShardedSession.install_plan`, the same
   installer that built them): coding buffers, decoder rank,
   queues and generation state survive; only rates/credits/routes
   change.  New forwarders get fresh runtimes, dropped ones leave.

RNG discipline: the per-node MAC/channel/capture streams and the coding
streams are never re-seeded or re-ordered by a re-plan, and scenario
drift draws live on their own stream — fixed seed + fixed scenario =
bit-identical traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Tuple

from repro import obs
from repro.emulator.plan import CodingParams, SessionPlan
from repro.emulator.session import (
    Boundaries,
    SessionConfig,
    SessionResult,
    plan_runtime_terms,
    run_sessions,
)
from repro.emulator.shard import ShardedSession, _DecodeLog
from repro.protocols.adaptive import AdaptivePlanner, CodingController
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


@dataclass
class _Epochs(Boundaries):
    """The live control plane at every epoch boundary: the timeline's
    due events, the policy, a re-plan with its stall, the coding push;
    and the records of what it did."""

    planner: AdaptivePlanner
    policy: ReplanPolicy
    timeline: ScenarioTimeline
    plan: SessionPlan
    epoch_seconds: float
    config: SessionConfig
    session_id: int
    tracer: obs.EventTracer | None
    coding_controller: CodingController | None
    coding: CodingParams | None
    records: List[EpochRecord] = field(default_factory=list)
    replan_times: List[float] = field(default_factory=list)
    failed_replans: int = 0
    replan_seconds: float = 0.0
    _generations: int = 0
    _deliveries: int = 0

    def __post_init__(self) -> None:
        self._planned_network = self.timeline.network
        self._unicast = self.plan.kind == "unicast"
        scope = obs.get_registry().attach("scenario")
        self._m_replans = scope.counter("replans", "successful mid-run re-plans")
        self._m_failed = scope.counter("failed_replans", "re-plans that could not plan")
        self._m_stall = scope.counter("stall_slots", "data-plane slots lost to control")
        self._m_drift = scope.gauge("drift", "observed drift vs the current plan")

    def until(self, session: ShardedSession) -> int:
        return max(1, int(round(self.epoch_seconds / session.slot_duration)))

    def reached(self, session: ShardedSession, log: _DecodeLog, done: bool) -> None:
        epoch = len(self.records)
        generations = len(log.acks)
        new_generations = generations - self._generations
        new_deliveries = log.delivered - self._deliveries
        self._generations, self._deliveries = generations, log.delivered
        timeline = self.timeline
        if timeline.advance_to(session.now):
            session.set_network(timeline.network)
        drift = quality_drift(self._planned_network, timeline.network, strict=False)
        self._m_drift.set(drift)
        observation = EpochObservation(
            epoch=epoch,
            time=session.now,
            drift=drift,
            generations_decoded=generations,
            new_generations=new_generations,
            new_deliveries=new_deliveries,
        )
        replanned = False
        stall_seconds = 0.0
        if not done and self.policy.should_replan(observation):
            try:
                self.plan = self.planner.plan(timeline.network)
                cost_seconds = self.planner.control_cost_seconds(timeline.network)
            except NodeSelectionError:
                # Unplannable (e.g. destination cut off by a failure):
                # keep running the stale plan and retry next epoch.
                self.failed_replans += 1
                self._m_failed.inc()
            else:
                # The stall ends with the session at the latest.
                left = int(self.config.max_seconds / session.slot_duration) - session.slots
                stall_slots = min(math.ceil(cost_seconds / session.slot_duration), left)
                session.advance_idle(stall_slots)
                stall_seconds = stall_slots * session.slot_duration
                self.replan_seconds += stall_seconds
                # Surviving nodes keep their runtime objects; the load
                # may have moved since the session was built.
                cbr_fraction = timeline.cbr_fraction or self.config.cbr_fraction
                session.install_plan(
                    self.plan,
                    plan_runtime_terms(self.config, self.plan, self.session_id),
                    cbr_fraction * timeline.network.capacity,
                )
                self._planned_network = timeline.network
                replanned = True
                self.replan_times.append(session.now)
                self._m_replans.inc()
                self._m_stall.inc(stall_slots)
                if self.tracer is not None:
                    self.tracer.emit(
                        "replan", slot=session.slots, time=session.now, node=-1, detail=epoch
                    )
        if self.coding_controller is not None and not self._unicast and not done:
            decision = self.coding_controller.decide(timeline.network, self.plan)
            # Push when the decision changed, and re-push after a
            # hot-swap: replacement relays were built at the config's
            # generation size and adopt the live one at their next
            # generation boundary via the pending-coding path.
            if decision is not None and (replanned or decision != self.coding):
                self.coding = decision
                session.apply_plan_updates(
                    {node: {"coding": decision} for node in session.participants}
                )
                if self.tracer is not None:
                    self.tracer.emit(
                        "coding",
                        slot=session.slots,
                        time=session.now,
                        node=-1,
                        detail=decision.blocks,
                    )
        self.records.append(
            EpochRecord(
                epoch=epoch,
                end_time=session.now,
                drift=drift,
                new_generations=new_generations,
                new_deliveries=new_deliveries,
                replanned=replanned,
                stall_seconds=stall_seconds,
            )
        )


def run_adaptive_session(
    network: WirelessNetwork,
    planner: AdaptivePlanner,
    policy: ReplanPolicy,
    spec: ScenarioSpec,
    *,
    session_id: int = 1,
    config: SessionConfig | None = None,
    rng: RngFactory | None = None,
    tracer: obs.EventTracer | None = None,
    coding_controller: CodingController | None = None,
) -> AdaptiveSessionResult:
    """Run one session live under a scenario.

    The one session driver (:func:`~repro.emulator.session.run_sessions`)
    with the epoch boundaries as its boundary work.  The scenario's
    ``duration`` governs session length (the session config's
    ``max_seconds`` is ignored); control-plane stalls consume session
    time, so re-planning is never free.

    A ``coding_controller`` adds a second control loop: each epoch it
    re-evaluates the generation size (and systematic flag) from the
    drifted qualities, and changed decisions are pushed to every live
    runtime via ``apply_plan(coding=...)`` — honored at the next
    generation boundary, so in-flight decodes survive.  The initial
    decision is folded into the session config before runtimes are
    built (the slot and payload accounting see the chosen n).
    """
    config = replace(config or SessionConfig(), max_seconds=spec.duration)
    rng = rng or RngFactory(0)
    timeline = ScenarioTimeline(network, spec, rng=rng.derive("scenario"))
    plan = planner.plan(timeline.network)

    coding: CodingParams | None = None
    if coding_controller is not None and plan.kind != "unicast":
        coding = coding_controller.decide(timeline.network, plan)
        if coding is not None:
            config = replace(config, blocks=coding.blocks, systematic=coding.systematic)

    epochs = _Epochs(
        planner, policy, timeline, plan, spec.epoch_seconds, config, session_id,
        tracer, coding_controller, coding,
    )
    results, _stats = run_sessions(
        timeline.network,
        {session_id: plan},
        config=config,
        rng=rng,
        labels={session_id: planner.label},
        boundaries=epochs,
        tracer=tracer,
    )
    return AdaptiveSessionResult(
        session=results[session_id],
        policy=policy.name,
        scenario=spec.name,
        epochs=tuple(epochs.records),
        replans=len(epochs.replan_times),
        failed_replans=epochs.failed_replans,
        replan_seconds=epochs.replan_seconds,
        replan_times=tuple(epochs.replan_times),
        planner_iterations=planner.iterations_history,
        generation_payload_bytes=config.generation_bytes(),
        packet_payload_bytes=config.block_size,
    )
