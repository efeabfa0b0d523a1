"""Multi-session emulation: N concurrent unicasts over shared airtime.

:func:`run_multi_session` is the N-session face of the one session
driver (:func:`~repro.emulator.session.run_sessions`).  Where sessions
share a node, a :class:`~repro.emulator.node.MultiSessionNodeRuntime`
composite holds one sub-runtime per session, the MAC arbitrates the
node's *total* pressure, and transmissions round-robin across the
sessions sharing the radio.  The paper's conclusion claims OMNC "can be
flexibly extended to the multiple-unicast case"; this is that extension
meeting the data plane.

Design points:

* **One plan per session.**  ``run_multi_session`` takes a mapping
  ``session_id -> plan`` (coded plans only — rate-driven OMNC or
  credit-driven MORE; ETX unicast stays single-session).  Sessions can
  mix protocols, which is exactly how the fig6 experiment compares
  OMNC-multi against MORE-per-flow under identical contention.  One
  session alone runs as
  :func:`~repro.emulator.session.run_coded_session` does, up to its
  coding streams.
* **Churn without topology churn.**  Scenario ``session_arrive`` /
  ``session_depart`` events switch pre-built sub-runtimes between
  dormant and active at the driver's boundaries; the participant set —
  and with it every conflict structure and RNG stream mapping — never
  changes mid-run.
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
from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence, Tuple

from repro.emulator.node import InterSessionXorRelay
from repro.emulator.session import (
    Boundaries,
    SessionConfig,
    SessionResult,
    run_sessions,
)
from repro.emulator.shard import ShardedSession, _DecodeLog, session_digest
from repro.emulator.stats import jain_fairness_index
from repro.emulator.plan import SessionPlan
from repro.obs import EventTracer
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


class _Churn(Boundaries):
    """A scenario's session churn as the driver's boundaries: every entry
    due is signalled at the end of the stretch it falls due in.  Each
    session arrives and departs at most once, in that order, and needs a
    pre-built plan (participants are fixed at start); arrivals start
    dormant."""

    def __init__(
        self, plans: Mapping[int, SessionPlan], scenario: "ScenarioSpec | None"
    ) -> None:
        #: ``(time, session)`` per entry signalled, by kind, in firing order.
        self.fired: Dict[str, List[Tuple[float, int]]] = {"arrive": [], "depart": []}
        times: Dict[str, Dict[int, float]] = {"arrive": {}, "depart": {}}
        for event in scenario.events if scenario is not None else ():
            if event.kind not in ("session_arrive", "session_depart"):
                raise ValueError(
                    f"run_multi_session replays session churn only, not the "
                    f"{event.kind!r} event at {event.at} s (no N-session re-planning)"
                )
            session_id = event.session_id
            if session_id is None or session_id not in plans:
                raise ValueError(
                    f"scenario {event.kind} references unknown session "
                    f"{session_id!r}; every churned session needs a plan"
                )
            kind = "arrive" if event.kind == "session_arrive" else "depart"
            seen = times[kind]
            if session_id in seen:
                raise ValueError(
                    f"session {session_id} {kind}s twice, at {seen[session_id]} s "
                    f"and at {event.at} s"
                )
            seen[session_id] = event.at
        for session_id, departs in times["depart"].items():
            arrives = times["arrive"].get(session_id, departs)
            if departs < arrives:
                raise ValueError(
                    f"session {session_id} departs at {departs} s, before it "
                    f"arrives at {arrives} s"
                )
        self.timeline = sorted(
            (at, kind, session_id)
            for kind, seen in times.items()
            for session_id, at in seen.items()
        )
        self.dormant = frozenset(times["arrive"])
        self._next = 0

    def until(self, session: ShardedSession) -> int | None:
        if self._next == len(self.timeline):
            return None
        # The clock is read at the end of a stretch only: stop short of
        # the next entry, never past the slot it falls due in.
        at = self.timeline[self._next][0]
        return max(1, int((at - session.now) / session.slot_duration))

    def reached(self, session: ShardedSession, log: _DecodeLog, done: bool) -> None:
        while self._next < len(self.timeline) and self.timeline[self._next][0] <= session.now:
            _at, kind, session_id = self.timeline[self._next]
            self._next += 1
            if kind == "arrive":
                session.broadcast_session_arrival(session_id)
            else:
                session.broadcast_session_departure(session_id)
            self.fired[kind].append((session.now, session_id))


def run_multi_session(
    network: WirelessNetwork,
    plans: Mapping[int, SessionPlan],
    *,
    config: SessionConfig | None = None,
    rng: RngFactory | None = None,
    xor_pairs: Mapping[int, Sequence[Tuple[int, int]]] | None = None,
    scenario: "ScenarioSpec | None" = None,
    tracer: EventTracer | None = None,
    protocol_label: str | None = None,
) -> MultiSessionOutcome:
    """Emulate N concurrent coded unicast sessions over shared airtime.

    ``plans`` maps each session id to its coded plan (OMNC rate plans
    and MORE credit plans mix freely); every session's runtimes are
    built up front and merged into per-node composites, so nodes shared
    by several sessions contend once at the MAC with their summed
    pressure and round-robin the grant across sessions.

    ``xor_pairs`` (node -> session pairs) upgrades those nodes to
    :class:`InterSessionXorRelay`.  ``scenario`` contributes
    ``session_arrive`` / ``session_depart`` events and nothing else:
    arriving sessions start dormant and switch live at their event time;
    departing ones stop contending (their delivered state and stats
    survive).  Each session's coefficients come from its own stream,
    ``rng.spawn(f"msession-{sid}")``.

    Everything else is :func:`~repro.emulator.session.run_sessions`':
    plan-carried generation sizes, one slot length, and with
    ``config.target_generations > 0`` a stop once every session has
    decoded that many generations (sessions that depart early may keep
    the run at its full time budget).
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
    churn = _Churn(plans, scenario)
    results, stats = run_sessions(
        network,
        plans,
        config=config,
        rng=rng,
        coding={sid: rng.spawn(f"msession-{sid}") for sid in plans},
        xor_pairs=xor_pairs,
        dormant=churn.dormant,
        boundaries=churn,
        tracer=tracer,
    )
    throughputs = [results[sid].throughput_bps for sid in sorted(results)]
    return MultiSessionOutcome(
        protocol=protocol_label or "multi",
        sessions=results,
        duration=stats.elapsed,
        aggregate_throughput_bps=float(sum(throughputs)),
        fairness=jain_fairness_index(throughputs),
        transmissions=int(sum(stats.transmissions.values())),
        xor_transmissions=sum(stats.xor_transmissions.values()),
        arrivals=tuple(churn.fired["arrive"]),
        departures=tuple(churn.fired["depart"]),
    )


def multi_session_digest(outcome: MultiSessionOutcome) -> str:
    """Canonical SHA-256 digest of a :class:`MultiSessionOutcome`.

    Per-session payloads reuse :func:`session_digest`; run-level floats
    serialize through ``repr`` — two outcomes digest equal iff every
    field is bit-identical.
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
