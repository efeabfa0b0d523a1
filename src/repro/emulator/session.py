"""The session driver: run N >= 1 unicast sessions under their plans.

This is the experiment-facing surface of the emulator.  A run takes a
:class:`~repro.topology.graph.WirelessNetwork`, one protocol plan per
session and a :class:`SessionConfig`, builds the per-node runtimes, and
executes the slot loop until every session has decoded its target
number of generations or the emulated-time budget runs out
(:func:`run_sessions`).  One session is the N = 1 case
(:func:`run_coded_session`); the multi-session and adaptive drivers
are its other faces.

The paper's setup (Sec. 5): generations of 40 blocks x 1 KB, UDP CBR
offered load at half the channel capacity, throughput computed at each
"successfully decoded" ACK and averaged over the session.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, Mapping, Sequence, Tuple

from repro.coding.generation import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_BLOCKS_PER_GENERATION,
    MAX_GENERATION_BLOCKS,
)
from repro.coding.packet import HEADER_BYTES
from repro.emulator.engine import EngineStats
from repro.emulator.node import (
    InterSessionXorRelay,
    MultiSessionNodeRuntime,
    NodeRuntime,
    RuntimeTerms,
    install_runtimes,
)
from repro.emulator.plan import SessionPlan
from repro.emulator.shard import ShardedSession, _DecodeLog
from repro.obs import EventTracer
from repro.topology.graph import Link, WirelessNetwork
from repro.util.rng import RngFactory

_UNICAST_HEADER_BYTES = 24  # IP/MAC-style header for plain forwarding


@dataclass(frozen=True)
class SessionConfig:
    """Shared knobs of one emulated session.

    Attributes:
        blocks: data blocks per generation (paper: 40).
        block_size: bytes per block (paper: 1024).
        cbr_fraction: offered load as a fraction of channel capacity
            (paper: 0.5, i.e. 10^4 B/s on the 2x10^4 B/s channel).
        max_seconds: emulated-time budget.
        target_generations: stop after this many decoded generations
            (0 = run the full time budget, as the paper's 800 s sessions
            do).
        queue_limit: per-node broadcast queue cap in packets.
        interference: the emulator's interference model — "blanking"
            (Drift's Sec. 5 model, default), "capture", or
            "conflict_free" (the Sec. 3.2 idealized broadcast MAC).  See
            :meth:`repro.emulator.engine.EngineCore.fire`.
        coding_fidelity: "flow" (default) counts information in
            innovative-packet units under the paper's stream-independence
            assumption (Sec. 3.2); "exact" simulates real GF(2^8) coding
            vectors with per-packet rank checks.  Measured over eight
            seeds of the reduced Fig. 2 campaign, flow *under*-counts the
            multipath protocols on lossy meshes — exact gives OMNC and
            MORE 14-17 % more throughput (median per seed) — and is exact
            for near-single-path oldMORE.
        systematic: sources emit each generation's blocks plainly before
            dense repair packets (decode-cost optimization, exact
            fidelity only — flow fidelity has no elimination to skip).
    """

    blocks: int = DEFAULT_BLOCKS_PER_GENERATION
    block_size: int = DEFAULT_BLOCK_SIZE
    cbr_fraction: float = 0.5
    max_seconds: float = 120.0
    target_generations: int = 0
    queue_limit: int = 500
    interference: str = "blanking"
    coding_fidelity: str = "flow"
    systematic: bool = False

    def __post_init__(self) -> None:
        if self.blocks <= 0 or self.block_size <= 0:
            raise ValueError("blocks and block_size must be > 0")
        if self.blocks > MAX_GENERATION_BLOCKS:
            raise ValueError(
                f"blocks must be <= {MAX_GENERATION_BLOCKS} "
                f"(GF(2^8) coefficient-header limit), got {self.blocks}"
            )
        if not isinstance(self.systematic, bool):
            raise TypeError(
                f"systematic must be bool, got {type(self.systematic).__name__}"
            )
        if not 0.0 < self.cbr_fraction <= 1.0:
            raise ValueError("cbr_fraction must be in (0, 1]")
        if not math.isfinite(self.max_seconds):
            raise ValueError(f"max_seconds must be finite, got {self.max_seconds}")
        if self.max_seconds <= 0:
            raise ValueError("max_seconds must be > 0")
        if self.target_generations < 0:
            raise ValueError("target_generations must be >= 0")
        if self.queue_limit <= 0:
            raise ValueError("queue_limit must be > 0")
        if self.interference not in ("blanking", "capture", "conflict_free"):
            raise ValueError(f"unknown interference model {self.interference!r}")
        if self.coding_fidelity not in ("flow", "exact"):
            raise ValueError(f"unknown coding fidelity {self.coding_fidelity!r}")

    def coded_packet_bytes(self) -> int:
        """Wire size of one coded packet (payload + coding header)."""
        return self.block_size + HEADER_BYTES + self.blocks

    def unicast_packet_bytes(self) -> int:
        """Wire size of one plain forwarded packet."""
        return self.block_size + _UNICAST_HEADER_BYTES

    def generation_bytes(self) -> int:
        """Payload bytes per generation."""
        return self.blocks * self.block_size


@dataclass(frozen=True)
class SessionResult:
    """Everything the experiments measure about one session run.

    Attributes:
        protocol: protocol label ("omnc", "more", "oldmore", "etx").
        source / destination: endpoints.
        throughput_bps: payload throughput in bytes/second (the paper's
            per-ACK average).
        duration: emulated seconds executed.
        generations_decoded: full generations recovered (coded sessions).
        packets_delivered: packets delivered end-to-end (unicast
            sessions; equals generations * blocks for coded ones).
        ack_times: emulated time of each decoded-generation ACK.
        average_queues: time-averaged queue length per participating
            node (Fig. 3 metric).
        transmissions: packets actually transmitted per node.
        participants: nodes the plan placed in the session.
        delivered_links: (i, j) pairs that carried at least one delivered
            packet (used by the Fig. 4 path-utility metric).
    """

    protocol: str
    source: int
    destination: int
    throughput_bps: float
    duration: float
    generations_decoded: int
    packets_delivered: int
    ack_times: Tuple[float, ...]
    average_queues: Dict[int, float]
    transmissions: Dict[int, int]
    participants: Tuple[int, ...]
    delivered_links: Tuple[Link, ...]

    @property
    def active_nodes(self) -> Tuple[int, ...]:
        """Nodes that transmitted at least one packet."""
        return tuple(
            sorted(n for n, tx in self.transmissions.items() if tx > 0)
        )

    def mean_queue(self) -> float:
        """Average of the per-node time-averaged queues (Fig. 3 summary).

        Averaged over nodes involved in the transmission, as in the
        paper.
        """
        involved = [
            self.average_queues[n]
            for n, tx in self.transmissions.items()
            if tx > 0
        ]
        if not involved:
            return 0.0
        return float(sum(involved) / len(involved))


def plan_coding_config(config: SessionConfig, plan: SessionPlan) -> SessionConfig:
    """Fold a plan-carried coding decision into the session config.

    Plans that carry :class:`~repro.emulator.plan.CodingParams` (today:
    ``CodedBroadcastPlan``) override the config's generation size and
    systematic flag for the whole session; plans without one leave the
    config untouched.  Every session entry point applies this before
    sizing slots or building runtimes, so a plan-carried decision and an
    explicitly configured one behave identically.
    """
    coding = getattr(plan, "coding", None)
    if coding is None:
        return config
    return replace(config, blocks=coding.blocks, systematic=coding.systematic)


def plan_packet_bytes(config: SessionConfig, plan: SessionPlan) -> int:
    """Wire size of the packets ``plan``'s runtimes put on the air."""
    if plan.kind == "unicast":
        return config.unicast_packet_bytes()
    return config.coded_packet_bytes()


def plan_runtime_terms(
    config: SessionConfig, plan: SessionPlan, session_id: int = 1
) -> RuntimeTerms:
    """What building ``plan``'s runtimes takes besides their settings."""
    return RuntimeTerms(
        kind=plan.kind,
        source=plan.source,
        destination=plan.destination,
        session_id=session_id,
        blocks=config.blocks,
        packet_bytes=plan_packet_bytes(config, plan),
        queue_limit=config.queue_limit,
        fidelity=config.coding_fidelity,
        systematic=config.systematic,
    )


#: Default protocol label per plan kind.
_LABELS = {"rate": "omnc", "credit": "more", "unicast": "etx"}


def build_plan_runtimes(
    network: WirelessNetwork,
    plan: SessionPlan,
    *,
    session_id: int = 1,
    config: SessionConfig | None = None,
    rng: RngFactory | None = None,
    on_decoded: Callable[[int], None] | None = None,
    on_delivered: Callable[[int], None] | None = None,
) -> Dict[int, NodeRuntime]:
    """Construct the per-node runtimes any plan type needs.

    :func:`~repro.emulator.node.install_runtimes` onto nothing, at the
    config's offered load, with any plan-carried coding decision folded
    into the config first.
    """
    config = plan_coding_config(config or SessionConfig(), plan)
    return install_runtimes(
        plan.node_settings(network, config.cbr_fraction * network.capacity),
        {},
        plan_runtime_terms(config, plan, session_id),
        coding=rng or RngFactory(0),
        on_decoded=on_decoded,
        on_delivered=on_delivered,
    )


def session_result(
    protocol: str,
    plan: SessionPlan,
    block_size: int,
    stats: EngineStats,
    session_id: int,
    *,
    ack_times: Sequence[float] = (),
    packets_delivered: int | None = None,
) -> SessionResult:
    """Assemble session ``session_id``'s :class:`SessionResult` from its
    rows of the run's per-session table (``stats.sessions``), whose nodes
    are its participants.

    Coded sessions pass ``ack_times`` (one per decoded generation); each
    generation is credited at the size it actually ran, so adaptive-n
    sessions account correctly.  Paper: throughput is computed at each
    decoded ACK and averaged over the session == total decoded payload
    over the time of the last ACK.  Unicast sessions pass
    ``packets_delivered`` instead and average over the whole run.
    """
    shares = {
        node: counters for (owner, node), counters in stats.sessions.items() if owner == session_id
    }
    if packets_delivered is None:
        packets_delivered = sum(counters.blocks_decoded for counters in shares.values())
        throughput = packets_delivered * block_size / ack_times[-1] if ack_times else 0.0
    else:
        elapsed = stats.elapsed if stats.elapsed > 0 else 1.0
        throughput = packets_delivered * block_size / elapsed
    return SessionResult(
        protocol=protocol,
        source=plan.source,
        destination=plan.destination,
        throughput_bps=throughput,
        duration=stats.elapsed,
        generations_decoded=len(ack_times),
        packets_delivered=packets_delivered,
        ack_times=tuple(ack_times),
        average_queues={
            node: counters.queue_time / stats.slots if stats.slots else 0.0
            for node, counters in shares.items()
        },
        transmissions={node: counters.transmissions for node, counters in shares.items()},
        participants=tuple(sorted(shares)),
        delivered_links=tuple(
            sorted(link for counters in shares.values() for link in counters.delivered_links)
        ),
    )


class Boundaries:
    """Where :func:`run_sessions` ends a stretch of slots, and the
    caller's work there; this base has neither: a plain run."""

    def until(self, session: ShardedSession) -> int | None:
        """Slots from now to the next boundary (None: the budget's end)."""
        return None

    def reached(self, session: ShardedSession, log: _DecodeLog, done: bool) -> None:
        """The end of a stretch, its decodes ACKed; ``done``: the budget
        is spent or every session is at its target."""


def run_sessions(
    network: WirelessNetwork,
    plans: Mapping[int, SessionPlan],
    *,
    config: SessionConfig,
    rng: RngFactory,
    coding: Mapping[int, RngFactory] | None = None,
    labels: Mapping[int, str | None] | None = None,
    xor_pairs: Mapping[int, Sequence[Tuple[int, int]]] | None = None,
    dormant: frozenset[int] = frozenset(),
    boundaries: Boundaries | None = None,
    tracer: EventTracer | None = None,
) -> Tuple[Dict[int, SessionResult], EngineStats]:
    """Emulate ``plans`` (session id -> plan) over shared airtime: the one
    session driver.

    Each plan's runtimes are built as :func:`build_plan_runtimes` builds
    them, coefficients drawn from ``coding[sid]`` (default ``rng``).  One
    session alone runs them as they are; several, or one that starts
    ``dormant`` (it arrives mid-run), share each node through a composite
    (an :class:`~repro.emulator.node.InterSessionXorRelay` where
    ``xor_pairs`` names the node) and are ACKed per session.  Plans whose
    packets differ in size are refused: a run has one slot length.

    The slots run in stretches up to ``config.max_seconds``, each cut at
    the next of ``boundaries``, under one stop rule: the run ends once
    every session has decoded ``config.target_generations`` (0: never; a
    unicast session never does): the core, which ACKs each decode, returns
    after as many as the sessions lack.  Returns each session's
    :class:`SessionResult`, labelled ``labels[sid]`` or by plan kind, and
    the run's stats.
    """
    session_ids = sorted(plans)
    packet_bytes = {
        sid: plan_packet_bytes(plan_coding_config(config, plan), plan)
        for sid, plan in sorted(plans.items())
    }
    if len(set(packet_bytes.values())) > 1:
        raise ValueError(
            "sessions share one slot length, but their plans' packets differ "
            f"in size (bytes per session: {packet_bytes})"
        )
    xor_pairs = xor_pairs or {}
    shared = len(session_ids) > 1 or bool(dormant)
    log = _DecodeLog()
    composites: Dict[int, MultiSessionNodeRuntime] = {}
    for sid in session_ids:
        runtimes = build_plan_runtimes(
            network,
            plans[sid],
            session_id=sid,
            config=config,
            rng=(coding or {}).get(sid, rng),
            on_decoded=partial(log, session_id=sid) if shared else log,
            on_delivered=log.deliver,
        )
        if not shared:
            continue
        for node in sorted(runtimes):
            composite = composites.get(node)
            if composite is None:
                composite = composites[node] = (
                    InterSessionXorRelay(node, tuple(xor_pairs[node]))
                    if node in xor_pairs
                    else MultiSessionNodeRuntime(node)
                )
            composite.add_session(sid, runtimes[node], active=sid not in dormant)
    session = ShardedSession(
        network,
        dict(composites) if shared else runtimes,
        packet_bytes[session_ids[0]] / network.capacity,
        rng_factory=rng,
        interference=config.interference,
        tracer=tracer,
        decode_log=log,
    )
    target = config.target_generations

    def lacking() -> int | None:
        """Decodes before every session is at its target (None: no target)."""
        decoded = Counter(event[0] if shared else session_ids[0] for event, _time in log.acks)
        return sum(max(0, target - decoded[sid]) for sid in session_ids) if target else None

    boundaries = boundaries or Boundaries()
    total = int(config.max_seconds / session.slot_duration)
    with session:
        while session.slots < total and lacking() != 0:
            until = boundaries.until(session)
            stretch = total - session.slots
            session.run(stretch if until is None else min(stretch, until), decodes=lacking)
            boundaries.reached(session, log, session.slots >= total or lacking() == 0)
        stats = session.finalize_stats()

    results = {
        sid: session_result(
            (labels or {}).get(sid) or _LABELS[plan.kind],
            plan,
            config.block_size,
            stats,
            sid,
            ack_times=[time for event, time in log.acks if not shared or event[0] == sid],
            packets_delivered=log.delivered if plan.kind == "unicast" else None,
        )
        for sid, plan in sorted(plans.items())
    }
    return results, stats


def run_coded_session(
    network: WirelessNetwork,
    plan: SessionPlan,
    *,
    session_id: int = 1,
    config: SessionConfig | None = None,
    rng: RngFactory | None = None,
    protocol_label: str | None = None,
    tracer: EventTracer | None = None,
) -> SessionResult:
    """Emulate one session under any plan: OMNC, MORE, oldMORE or ETX.

    :func:`run_sessions` over ``{session_id: plan}``: a coded plan runs
    until ``config.target_generations`` are decoded (0 = the full time
    budget); an ETX best-path plan, with its MAC retransmissions, always
    runs the full budget.
    """
    if getattr(plan, "kind", None) not in _LABELS:
        raise TypeError(f"unsupported plan type {type(plan).__name__}")
    results, _stats = run_sessions(
        network,
        {session_id: plan},
        config=config or SessionConfig(),
        rng=rng or RngFactory(0),
        labels={session_id: protocol_label},
        tracer=tracer,
    )
    return results[session_id]


#: The same function, named for an ETX path.
run_unicast_session = run_coded_session
