"""Session drivers: run one unicast session under a protocol plan.

This is the experiment-facing surface of the emulator.  A *session* takes
a :class:`~repro.topology.graph.WirelessNetwork`, a protocol plan, and a
:class:`SessionConfig`, builds the per-node runtimes, and executes the
slot loop until either the target number of generations is decoded or the
emulated-time budget runs out.

The paper's setup (Sec. 5): generations of 40 blocks x 1 KB, UDP CBR
offered load at half the channel capacity, throughput computed at each
"successfully decoded" ACK and averaged over the session.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Mapping, Sequence, Tuple

from repro.coding.generation import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_BLOCKS_PER_GENERATION,
    MAX_GENERATION_BLOCKS,
)
from repro.coding.packet import HEADER_BYTES
from repro.emulator.node import NodeRuntime, RuntimeTerms, install_runtimes
from repro.emulator.plan import SessionPlan
from repro.emulator.shard import ShardedSession, _DecodeLog
from repro.emulator.trace import SessionTracer
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
            vectors with per-packet rank checks.  The ablation benchmark
            compares the two — exact coding reveals how much the
            independence assumption overstates multipath capacity on deep
            forwarder DAGs.
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
) -> Tuple[Dict[int, NodeRuntime], str]:
    """Construct the per-node runtimes any plan type needs, plus a label.

    :func:`~repro.emulator.node.install_runtimes` onto nothing, at the
    config's offered load, with any plan-carried coding decision folded
    into the config first.
    """
    config = plan_coding_config(config or SessionConfig(), plan)
    runtimes = install_runtimes(
        plan.node_settings(network, config.cbr_fraction * network.capacity),
        {},
        plan_runtime_terms(config, plan, session_id),
        coding=rng or RngFactory(0),
        on_decoded=on_decoded,
        on_delivered=on_delivered,
    )
    return runtimes, _LABELS[plan.kind]


def open_session(
    network: WirelessNetwork,
    plan: SessionPlan,
    *,
    session_id: int = 1,
    config: SessionConfig,
    rng: RngFactory,
    shards: int = 1,
    tracer: SessionTracer | None = None,
    start_method: str | None = None,
) -> Tuple[ShardedSession, _DecodeLog]:
    """Build ``plan``'s runtimes and the session that will run them.

    Returns the session (one slot = one of the plan's packets at channel
    capacity) and the recorder its destination reports to: decoded ACKs
    for coded plans, the delivery count for unicast ones.  A
    plan-carried coding decision is folded into ``config`` first
    (:func:`plan_coding_config`).  ``tracer`` flows through to the
    session; metrics come from the global :mod:`repro.obs` registry, so
    a ``with obs.collecting():`` block instruments the whole session
    with no further plumbing.
    """
    config = plan_coding_config(config, plan)
    log = _DecodeLog()
    runtimes, _label = build_plan_runtimes(
        network,
        plan,
        session_id=session_id,
        config=config,
        rng=rng,
        on_decoded=log,
        on_delivered=log.deliver,
    )
    session = ShardedSession(
        network,
        runtimes,
        plan_packet_bytes(config, plan) / network.capacity,
        rng_factory=rng,
        shards=shards,
        interference=config.interference,
        tracer=tracer,
        decode_log=log,
        start_method=start_method,
    )
    return session, log


def session_result(
    protocol: str,
    source: int,
    destination: int,
    block_size: int,
    duration: float,
    average_queues: Dict[int, float],
    transmissions: Mapping[int, int],
    delivered_links: Iterable[Link],
    *,
    ack_times: Sequence[float] = (),
    blocks_decoded: int = 0,
    packets_delivered: int | None = None,
) -> SessionResult:
    """Assemble a :class:`SessionResult` from a driver's counters.

    Coded sessions pass ``ack_times`` (one per decoded generation) and
    ``blocks_decoded`` (each generation credited at the size it actually
    ran, so adaptive-n sessions account correctly).  Paper: throughput
    is computed at each decoded ACK and averaged over the session ==
    total decoded payload over the time of the last ACK.  Unicast
    sessions pass ``packets_delivered`` instead and average over the
    whole run.  ``average_queues`` names the participants.
    """
    if packets_delivered is None:
        packets_delivered = blocks_decoded
        throughput = blocks_decoded * block_size / ack_times[-1] if ack_times else 0.0
    else:
        elapsed = duration if duration > 0 else 1.0
        throughput = packets_delivered * block_size / elapsed
    return SessionResult(
        protocol=protocol,
        source=source,
        destination=destination,
        throughput_bps=throughput,
        duration=duration,
        generations_decoded=len(ack_times),
        packets_delivered=packets_delivered,
        ack_times=tuple(ack_times),
        average_queues=average_queues,
        transmissions=dict(transmissions),
        participants=tuple(sorted(average_queues)),
        delivered_links=tuple(sorted(delivered_links)),
    )


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
    """Emulate one session under any plan: OMNC, MORE, oldMORE or ETX.

    A coded plan runs until ``config.target_generations`` are decoded
    (0 = the full time budget); an ETX best-path plan, with its MAC
    retransmissions, always runs the full budget.  ``shards=1`` runs in
    this process; any ``shards=N`` produces a bit-identical
    :class:`SessionResult` and trace from N worker processes.
    ``tracer`` and metrics: see :func:`open_session`.
    """
    kind = getattr(plan, "kind", None)
    if kind not in _LABELS:
        raise TypeError(f"unsupported plan type {type(plan).__name__}")
    config = plan_coding_config(config or SessionConfig(), plan)
    session, log = open_session(
        network,
        plan,
        session_id=session_id,
        config=config,
        rng=rng or RngFactory(0),
        shards=shards,
        tracer=tracer,
        start_method=start_method,
    )
    unicast = kind == "unicast"
    target = config.target_generations

    def stop() -> bool:
        # Consulted after every slot that decoded, its deliveries done.
        for generation_id in log.unseen():
            session.broadcast_generation_advance(generation_id + 1)
        return target > 0 and len(log.acks) >= target

    with session:
        session.run(
            int(config.max_seconds / session.slot_duration),
            stop_when=None if unicast else stop,
        )
        stats = session.finalize_stats()
    ack_times = [time for _generation, time in log.acks]
    return session_result(
        protocol_label or _LABELS[kind],
        plan.source,
        plan.destination,
        config.block_size,
        stats.elapsed,
        {n: stats.average_queue(n) for n in stats.transmissions},
        stats.transmissions,
        stats.delivered_links,
        ack_times=ack_times,
        blocks_decoded=stats.blocks_decoded,
        packets_delivered=log.delivered if unicast else None,
    )


#: One function under its historical names: a coded plan, an ETX path.
run_coded_session = run_unicast_session = run_sharded_session
