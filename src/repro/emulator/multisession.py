"""Multi-session emulation: N concurrent unicasts over shared airtime.

The single-session drivers wire one runtime per node and one decoder at
one destination.  This module lifts that assumption: every node hosts a
:class:`~repro.emulator.node.MultiSessionNodeRuntime` composite holding
one sub-runtime per session it participates in, the MAC arbitrates the
node's *total* pressure, and transmissions round-robin across the
sessions sharing the radio.  The paper's conclusion claims OMNC "can be
flexibly extended to the multiple-unicast case"; this is that extension
meeting the data plane.

Design points:

* **One plan per session.**  ``run_multi_session`` takes a mapping
  ``session_id -> plan`` (coded plans only — rate-driven OMNC or
  credit-driven MORE; ETX unicast stays single-session).  Sessions can
  mix protocols, which is exactly how the fig6 experiment compares
  OMNC-multi against MORE-per-flow under identical contention.
* **Shard-safe by construction.**  The driver runs on the same
  :class:`~repro.emulator.shard.ShardedSession` as every other; control
  events (per-session generation advances, arrivals, departures) queue
  like the single-session ACK, so any ``shards`` is bit-identical.
* **Churn without topology churn.**  Scenario ``session_arrive`` /
  ``session_depart`` events switch pre-built sub-runtimes between
  dormant and active; the participant set — and with it every conflict
  structure and RNG stream mapping — never changes mid-run.
* **Inter-session XOR.**  :class:`InterSessionXorRelay` (planned by
  :mod:`repro.protocols.intersession`) XORs one queued packet from each
  of two sessions into a single airtime slot when both flows have
  traffic, COPE/I²NC style; receivers peel components per the rule in
  :class:`~repro.emulator.node.XorPacket`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence, Tuple

from repro.emulator.node import InterSessionXorRelay, MultiSessionNodeRuntime
from repro.emulator.session import (
    SessionConfig,
    SessionResult,
    build_plan_runtimes,
    plan_coding_config,
    plan_packet_bytes,
    session_result,
)
from repro.emulator.shard import ShardedSession, _DecodeLog, session_digest
from repro.emulator.stats import jain_fairness_index
from repro.emulator.trace import SessionTracer
from repro.emulator.plan import SessionPlan
from repro.topology.graph import WirelessNetwork
from repro.util.rng import RngFactory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (scenario -> emulator)
    from repro.scenario.spec import ScenarioSpec

__all__ = [
    "InterSessionXorRelay",
    "MultiSessionOutcome",
    "multi_session_digest",
    "run_multi_session",
]


@dataclass(frozen=True)
class MultiSessionOutcome:
    """Everything a multi-session run measures.

    Attributes:
        protocol: run-level label (e.g. "omnc-multi", "more-per-flow").
        sessions: per-session :class:`SessionResult`, keyed by id.
        duration: emulated seconds executed.
        aggregate_throughput_bps: sum of per-session throughputs.
        fairness: Jain fairness index over per-session throughputs.
        transmissions: airtime slots actually used (all nodes).
        xor_transmissions: slots that carried an inter-session XOR.
        arrivals / departures: scenario churn applied, as
            ``(time, session_id)`` pairs in firing order.
    """

    protocol: str
    sessions: Dict[int, SessionResult]
    duration: float
    aggregate_throughput_bps: float
    fairness: float
    transmissions: int
    xor_transmissions: int
    arrivals: Tuple[Tuple[float, int], ...] = ()
    departures: Tuple[Tuple[float, int], ...] = ()

    @property
    def session_ids(self) -> Tuple[int, ...]:
        """All session ids, ascending."""
        return tuple(sorted(self.sessions))

    def throughputs(self) -> Dict[int, float]:
        """Per-session throughput in bytes/second."""
        return {
            sid: self.sessions[sid].throughput_bps
            for sid in sorted(self.sessions)
        }


def _extract_churn(
    plans: Mapping[int, SessionPlan], scenario: "ScenarioSpec | None"
) -> Tuple[List[Tuple[float, str, int]], frozenset[int]]:
    """Scenario churn as a sorted (time, kind, session) timeline.

    Sessions with an arrival event start dormant.  Events referencing
    unknown sessions are rejected — every session needs a pre-built
    plan (participants are fixed at start, only activity changes).
    """
    if scenario is None:
        return [], frozenset()
    timeline: List[Tuple[float, str, int]] = []
    dormant: List[int] = []
    for event in scenario.events:
        if event.kind not in ("session_arrive", "session_depart"):
            continue
        session_id = event.session_id
        if session_id is None or session_id not in plans:
            raise ValueError(
                f"scenario {event.kind} references unknown session "
                f"{session_id!r}; every churned session needs a plan"
            )
        kind = "arrive" if event.kind == "session_arrive" else "depart"
        timeline.append((event.at, kind, session_id))
        if kind == "arrive":
            dormant.append(session_id)
    timeline.sort()
    return timeline, frozenset(dormant)


def run_multi_session(
    network: WirelessNetwork,
    plans: Mapping[int, SessionPlan],
    *,
    shards: int = 1,
    config: SessionConfig | None = None,
    rng: RngFactory | None = None,
    xor_pairs: Mapping[int, Sequence[Tuple[int, int]]] | None = None,
    scenario: "ScenarioSpec | None" = None,
    tracer: SessionTracer | None = None,
    protocol_label: str | None = None,
    start_method: str | None = None,
) -> MultiSessionOutcome:
    """Emulate N concurrent coded unicast sessions over shared airtime.

    ``plans`` maps each session id to its coded plan (OMNC rate plans
    and MORE credit plans mix freely); every session's runtimes are
    built up front and merged into per-node composites, so nodes shared
    by several sessions contend once at the MAC with their summed
    pressure and round-robin the grant across sessions.

    ``xor_pairs`` (node -> session pairs) upgrades those nodes to
    :class:`InterSessionXorRelay`.  ``scenario`` contributes
    ``session_arrive`` / ``session_depart`` events: arriving sessions
    start dormant and switch live at their event time; departing ones
    stop contending (their delivered state and stats survive).

    ``shards=1`` runs in this process; any ``shards=N`` produces a
    bit-identical outcome and trace.

    A plan that carries its own coding decision runs, and is credited,
    at that generation size; a run has one slot length, so plans whose
    packets differ in size are refused.

    With ``config.target_generations > 0`` the run stops once every
    session has decoded that many generations (sessions that depart
    early may keep the run at its full time budget).
    """
    config = config or SessionConfig()
    rng = rng or RngFactory(0)
    if not plans:
        raise ValueError("run_multi_session needs at least one session plan")
    for sid, plan in plans.items():
        if sid < 0:
            raise ValueError(f"session ids must be >= 0, got {sid}")
        if plan.kind == "unicast":
            raise TypeError(
                f"session {sid}: multi-session runs take coded plans, got "
                f"{type(plan).__name__}"
            )
    session_ids = sorted(plans)
    configs = {sid: plan_coding_config(config, plans[sid]) for sid in session_ids}
    packet_bytes = {
        sid: plan_packet_bytes(configs[sid], plans[sid]) for sid in session_ids
    }
    if len(set(packet_bytes.values())) > 1:
        raise ValueError(
            "sessions share one slot length, but their plans' packets differ "
            f"in size (bytes per session: {packet_bytes})"
        )
    timeline, dormant = _extract_churn(plans, scenario)
    xor_pairs = xor_pairs or {}

    log = _DecodeLog()
    labels: Dict[int, str] = {}
    composites: Dict[int, MultiSessionNodeRuntime] = {}
    for sid in session_ids:
        runtimes, labels[sid] = build_plan_runtimes(
            network,
            plans[sid],
            session_id=sid,
            config=config,
            rng=rng.spawn(f"msession-{sid}"),
            on_decoded=partial(log, session_id=sid),
        )
        for node in sorted(runtimes):
            composite = composites.get(node)
            if composite is None:
                if node in xor_pairs:
                    composite = InterSessionXorRelay(
                        node, tuple(xor_pairs[node])
                    )
                else:
                    composite = MultiSessionNodeRuntime(node)
                composites[node] = composite
            composite.add_session(
                sid, runtimes[node], active=sid not in dormant
            )

    decoded = dict.fromkeys(session_ids, 0)
    arrivals: List[Tuple[float, int]] = []
    departures: List[Tuple[float, int]] = []
    session = ShardedSession(
        network,
        dict(composites),
        packet_bytes[session_ids[0]] / network.capacity,
        rng_factory=rng,
        shards=shards,
        interference=config.interference,
        tracer=tracer,
        decode_log=log,
        start_method=start_method,
    )
    target = config.target_generations
    event_index = 0

    def done() -> bool:
        return target > 0 and min(decoded.values()) >= target

    def tick() -> bool:
        # Churn first, then decoded-generation advances — a fixed order
        # at every slot boundary.
        nonlocal event_index
        while event_index < len(timeline) and timeline[event_index][0] <= session.now:
            _at, kind, sid = timeline[event_index]
            event_index += 1
            if kind == "arrive":
                session.broadcast_session_arrival(sid)
                arrivals.append((session.now, sid))
            else:
                session.broadcast_session_departure(sid)
                departures.append((session.now, sid))
        for sid, generation_id in log.unseen():
            decoded[sid] += 1
            session.broadcast_session_generation_advance(sid, generation_id + 1)
        return done()

    slot = session.slot_duration
    total = int(config.max_seconds / slot)
    with session:
        while session.slots < total and not done():
            batch = total - session.slots
            if event_index < len(timeline):
                # ``tick`` reads the clock, and ``run`` consults it at
                # decodes and at the end of the call only: stop short of
                # the next entry, never past the slot it falls due in.
                until = int((timeline[event_index][0] - session.now) / slot)
                batch = min(batch, max(1, until))
            session.run(batch, stop_when=tick)
        stats = session.finalize_stats()
    node_stats = stats.node_sessions

    elapsed = stats.elapsed if stats.elapsed > 0 else 1.0
    results: Dict[int, SessionResult] = {}
    for sid in session_ids:
        plan = plans[sid]
        times = [time for (acked, _generation), time in log.acks if acked == sid]
        average_queues: Dict[int, float] = {}
        transmissions: Dict[int, int] = {}
        delivered: List[Tuple[int, int]] = []
        for node in sorted(node_stats):
            entry = node_stats[node]["sessions"].get(sid)
            if entry is None:
                continue
            average_queues[node] = float(entry["queue_time"]) / elapsed
            transmissions[node] = int(entry["transmissions"])
            delivered.extend(
                (int(i), int(j)) for i, j in entry["delivered_links"]
            )
        results[sid] = session_result(
            labels[sid],
            plan.source,
            plan.destination,
            config.block_size,
            stats.elapsed,
            average_queues,
            transmissions,
            delivered,
            ack_times=times,
            blocks_decoded=len(times) * configs[sid].blocks,
        )

    throughputs = [results[sid].throughput_bps for sid in sorted(results)]
    return MultiSessionOutcome(
        protocol=protocol_label or "multi",
        sessions=results,
        duration=stats.elapsed,
        aggregate_throughput_bps=float(sum(throughputs)),
        fairness=jain_fairness_index(throughputs),
        transmissions=int(sum(stats.transmissions.values())),
        xor_transmissions=sum(
            int(entry["xor_transmissions"]) for entry in node_stats.values()
        ),
        arrivals=tuple(arrivals),
        departures=tuple(departures),
    )


def multi_session_digest(outcome: MultiSessionOutcome) -> str:
    """Canonical SHA-256 digest of a :class:`MultiSessionOutcome`.

    Per-session payloads reuse :func:`session_digest`; run-level floats
    serialize through ``repr`` — two outcomes digest equal iff every
    field is bit-identical, which is the shards=1 == shards=N oracle
    for multi-session runs.
    """
    payload = {
        "protocol": outcome.protocol,
        "sessions": {
            str(sid): session_digest(outcome.sessions[sid])
            for sid in sorted(outcome.sessions)
        },
        "duration": repr(outcome.duration),
        "aggregate_throughput_bps": repr(outcome.aggregate_throughput_bps),
        "fairness": repr(outcome.fairness),
        "transmissions": outcome.transmissions,
        "xor_transmissions": outcome.xor_transmissions,
        "arrivals": [[repr(at), sid] for at, sid in outcome.arrivals],
        "departures": [[repr(at), sid] for at, sid in outcome.departures],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
