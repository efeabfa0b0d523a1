"""Figure 6 (extension) — concurrent unicasts: throughput and fairness.

The paper's conclusion claims the rate-control framework "can be
flexibly extended to other scenarios such as the multiple-unicast
case"; this experiment runs that extension end to end.  N concurrent
unicast sessions share one lossy mesh and its MAC airtime:

* **omnc-multi** — the sessions are planned *jointly* by the
  proportional-fair multi-session decomposition
  (:func:`repro.protocols.omnc.plan_omnc_multi`): one shared
  congestion price per node splits the airtime at planning time;
* **more-per-flow** — each flow runs the MORE heuristic in isolation
  (the protocol has no notion of other flows) and the flows fight over
  airtime at run time.

Both sides then execute in the same multi-session emulator
(:func:`repro.emulator.multisession.run_multi_session`) under
identical randomness.  The figure reports aggregate throughput and the
Jain fairness index versus N: joint planning keeps weak sessions alive
(fairness) while matching or beating the aggregate of capacity-blind
per-flow planning once contention bites (N >= 4).

A second panel demonstrates the inter-session XOR relay on the COPE
"Alice and Bob" topology — two opposing flows through one relay, with
and without XOR coding — and reports the airtime saved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.emulator.multisession import MultiSessionOutcome, run_multi_session
from repro.emulator.plan import SessionPlan
from repro.emulator.session import SessionConfig
from repro.exec import ExecutionPolicy, execute_calls
from repro.optimization.sunicast import InfeasibleSessionError
from repro.protocols.intersession import plan_intersession_pairs
from repro.protocols.more import plan_more
from repro.protocols.omnc import plan_omnc_multi
from repro.routing.node_selection import NodeSelectionError
from repro.topology.graph import WirelessNetwork
from repro.topology.random_network import random_network
from repro.util.rng import RngFactory

_PROTOCOLS = ("omnc-multi", "more-per-flow")


@dataclass(frozen=True)
class Fig6Config:
    """Knobs of the multi-session experiment.

    The defaults are the *reference topology*: a 24-node mesh dense
    enough (average 9 in-range neighbors) that four or more concurrent
    flows genuinely contend, which is where joint planning pays.
    ``smoke()`` returns a CI-sized configuration: same shape, fewer
    sessions, a fraction of the emulated time.
    """

    node_count: int = 24
    density: float = 9.0
    topology_seed: int = 5
    session_seed: int = 2008
    session_counts: Tuple[int, ...] = (1, 2, 4, 8)
    duration: float = 40.0
    blocks: int = 8
    block_size: int = 256
    # Alice-Bob XOR panel: a 3-node chain, all nodes in carrier-sense
    # range (the ideal MAC serializes them), no direct A<->B link.
    xor_spacing: float = 60.0
    xor_range: float = 130.0
    xor_link_quality: float = 0.85
    xor_generations: int = 6
    xor_duration: float = 60.0

    @classmethod
    def smoke(cls) -> "Fig6Config":
        """CI-sized run: 3 concurrent sessions, ~5x less airtime."""
        return cls(
            session_counts=(1, 3),
            duration=8.0,
            xor_generations=3,
            xor_duration=20.0,
        )

    def session_config(self) -> SessionConfig:
        """The emulation config shared by every mesh run."""
        return SessionConfig(
            max_seconds=self.duration,
            target_generations=0,
            blocks=self.blocks,
            block_size=self.block_size,
        )


@dataclass(frozen=True)
class Fig6Point:
    """Both protocols' outcomes at one session count."""

    session_count: int
    outcomes: Dict[str, MultiSessionOutcome]

    def aggregate(self, protocol: str) -> float:
        """Aggregate throughput in bytes/second."""
        return self.outcomes[protocol].aggregate_throughput_bps

    def fairness(self, protocol: str) -> float:
        """Jain fairness index across the sessions."""
        return self.outcomes[protocol].fairness


@dataclass(frozen=True)
class Fig6XorResult:
    """The Alice-Bob panel: identical runs, XOR relay on and off."""

    baseline: MultiSessionOutcome
    xor: MultiSessionOutcome

    @property
    def airtime_saving(self) -> float:
        """Fraction of transmissions the XOR relay saved."""
        if self.baseline.transmissions == 0:
            return 0.0
        return 1.0 - self.xor.transmissions / self.baseline.transmissions


@dataclass(frozen=True)
class Fig6Result:
    """The full figure: the fairness sweep plus the XOR panel."""

    config: Fig6Config
    endpoints: Tuple[Tuple[int, int], ...]
    points: Tuple[Fig6Point, ...]
    xor_demo: Fig6XorResult


def fig6_network(config: Fig6Config) -> WirelessNetwork:
    """The reference mesh — a pure function of the config."""
    return random_network(
        config.node_count,
        neighbors_per_node=config.density,
        rng=config.topology_seed,
    )


def fig6_endpoints(
    network: WirelessNetwork, count: int, *, layout: str = "disjoint"
) -> Tuple[Tuple[int, int], ...]:
    """Deterministic MORE-feasible endpoint pairs, in a chosen layout.

    Scans sources ascending and destinations descending so the chosen
    pairs are a pure function of the topology; every pair admits a
    MORE plan (and hence an OMNC plan — same forwarder selection).

    Layouts:

    * ``"disjoint"`` (default) — node-disjoint pairs: independent
      sessions that only contend for airtime.
    * ``"opposing"`` — consecutive sessions run the *same* endpoints in
      opposite directions ((s, d), (d, s), ...), manufacturing
      COPE-style bidirectional exchanges on the random mesh: relays
      shared by a session pair carry traffic both ways, which is the
      eligibility condition of
      :func:`repro.protocols.intersession.plan_intersession_pairs` —
      inter-session XOR fires outside the hand-built Alice-Bob chain.
      Endpoint *pairs* stay node-disjoint from each other; both flow
      directions must be plannable, and among a source's feasible
      destinations the first whose two directed plans share an
      XOR-eligible relay wins (falling back to plain feasibility when
      the mesh offers no such relay for that source).
    """
    if layout not in ("disjoint", "opposing"):
        raise ValueError(f"unknown endpoint layout {layout!r}")
    pairs: List[Tuple[int, int]] = []
    used: set[int] = set()
    for source in range(network.node_count):
        if len(pairs) >= count:
            break
        if source in used:
            continue
        chosen: Tuple[int, int] | None = None
        fallback: Tuple[int, int] | None = None
        for destination in range(network.node_count - 1, -1, -1):
            if destination == source or destination in used:
                continue
            try:
                forward = plan_more(network, source, destination)
                reverse = (
                    plan_more(network, destination, source)
                    if layout == "opposing"
                    else None
                )
            except NodeSelectionError:
                continue
            if layout == "disjoint":
                chosen = (source, destination)
                break
            assert reverse is not None
            if plan_intersession_pairs({1: forward, 2: reverse}):
                chosen = (source, destination)
                break
            if fallback is None:
                fallback = (source, destination)
        if chosen is None:
            chosen = fallback
        if chosen is None:
            continue
        pairs.append(chosen)
        if layout == "opposing" and len(pairs) < count:
            pairs.append((chosen[1], chosen[0]))
        used.update(chosen)
    if len(pairs) < count:
        raise InfeasibleSessionError(
            f"only {len(pairs)} {layout} feasible sessions on the "
            f"experiment network, needed {count}"
        )
    return tuple(pairs)


def alice_bob_network(config: Fig6Config) -> WirelessNetwork:
    """The COPE relay chain: A(0) -- R(1) -- B(2), no direct A-B link.

    All three nodes sit within carrier-sense range, so the ideal MAC
    serializes their transmissions (no hidden-terminal blanking at the
    relay); information still has to cross via R because A and B share
    no link.
    """
    spacing = config.xor_spacing
    positions = [[0.0, 0.0], [spacing, 0.0], [2 * spacing, 0.0]]
    quality = config.xor_link_quality
    links = {
        (0, 1): quality,
        (1, 0): quality,
        (1, 2): quality,
        (2, 1): quality,
    }
    return WirelessNetwork(positions, links, config.xor_range)


@dataclass(frozen=True)
class Fig6Job:
    """One protocol at one session count, as a cacheable job."""

    config: Fig6Config
    protocol: str
    session_count: int


@dataclass(frozen=True)
class Fig6XorJob:
    """One Alice-Bob run, with or without the XOR relay."""

    config: Fig6Config
    use_xor: bool


def _mesh_plans(
    config: Fig6Config, protocol: str, session_count: int
) -> Dict[int, SessionPlan]:
    network = fig6_network(config)
    endpoints = fig6_endpoints(network, max(config.session_counts))
    chosen = {
        sid: endpoints[sid - 1] for sid in range(1, session_count + 1)
    }
    if protocol == "omnc-multi":
        return dict(plan_omnc_multi(network, chosen).plans)
    if protocol == "more-per-flow":
        return {
            sid: plan_more(network, source, destination)
            for sid, (source, destination) in chosen.items()
        }
    raise ValueError(f"unknown fig6 protocol {protocol!r}")


def execute_fig6_job(job: Fig6Job) -> MultiSessionOutcome:
    """Emulate one protocol at one session count on the reference mesh."""
    config = job.config
    network = fig6_network(config)
    plans = _mesh_plans(config, job.protocol, job.session_count)
    return run_multi_session(
        network,
        plans,
        config=config.session_config(),
        rng=RngFactory(config.session_seed),
        protocol_label=job.protocol,
    )


def execute_fig6_xor_job(job: Fig6XorJob) -> MultiSessionOutcome:
    """Emulate the Alice-Bob exchange, with or without XOR relaying."""
    config = job.config
    network = alice_bob_network(config)
    plans: Dict[int, SessionPlan] = {
        1: plan_more(network, 0, 2),
        2: plan_more(network, 2, 0),
    }
    xor_pairs = plan_intersession_pairs(plans) if job.use_xor else None
    return run_multi_session(
        network,
        plans,
        config=SessionConfig(
            max_seconds=config.xor_duration,
            target_generations=config.xor_generations,
            blocks=config.blocks,
            block_size=config.block_size,
        ),
        rng=RngFactory(config.session_seed),
        xor_pairs=xor_pairs,
        protocol_label="xor-relay" if job.use_xor else "rlnc-baseline",
    )


def run_fig6(
    config: Optional[Fig6Config] = None,
    *,
    policy: Optional[ExecutionPolicy] = None,
) -> Fig6Result:
    """Run the sweep and the XOR panel; every run identically seeded.

    Each (protocol, N) cell and each XOR arm is an independent cacheable
    job, so ``policy`` can spread them over workers.  A job failure
    surfaces as ``RuntimeError`` — the figure needs every cell.
    """
    config = config or Fig6Config()
    network = fig6_network(config)
    endpoints = fig6_endpoints(network, max(config.session_counts))
    calls = [
        (
            execute_fig6_job,
            Fig6Job(config=config, protocol=protocol, session_count=count),
        )
        for count in config.session_counts
        for protocol in _PROTOCOLS
    ]
    calls += [
        (execute_fig6_xor_job, Fig6XorJob(config=config, use_xor=use_xor))
        for use_xor in (False, True)
    ]
    values = execute_calls(calls, policy)
    points: List[Fig6Point] = []
    cursor = 0
    for count in config.session_counts:
        cell = {}
        for protocol in _PROTOCOLS:
            cell[protocol] = values[cursor]
            cursor += 1
        points.append(Fig6Point(session_count=count, outcomes=cell))
    xor_demo = Fig6XorResult(baseline=values[cursor], xor=values[cursor + 1])
    return Fig6Result(
        config=config,
        endpoints=endpoints,
        points=tuple(points),
        xor_demo=xor_demo,
    )


def report(result: Fig6Result) -> None:
    """Print the throughput/fairness table and the XOR panel."""
    config = result.config
    print("Figure 6 — concurrent unicasts over shared airtime")
    print(
        f"{config.node_count}-node mesh (avg {config.density:.0f} "
        f"neighbors), {config.duration:.0f} s per run; sessions "
        + ", ".join(
            f"{s}->{d}" for s, d in result.endpoints
        )
    )
    header = (
        f"{'N':>3s}  {'omnc agg B/s':>12s} {'omnc fair':>9s}  "
        f"{'more agg B/s':>12s} {'more fair':>9s}"
    )
    print(header)
    for point in result.points:
        print(
            f"{point.session_count:3d}  "
            f"{point.aggregate('omnc-multi'):12.0f} "
            f"{point.fairness('omnc-multi'):9.3f}  "
            f"{point.aggregate('more-per-flow'):12.0f} "
            f"{point.fairness('more-per-flow'):9.3f}"
        )
    demo = result.xor_demo
    print("Alice-Bob XOR relay (two opposing flows through one relay):")
    print(
        f"  rlnc baseline: {demo.baseline.transmissions} transmissions, "
        f"aggregate {demo.baseline.aggregate_throughput_bps:.0f} B/s"
    )
    print(
        f"  xor relay:     {demo.xor.transmissions} transmissions "
        f"({demo.xor.xor_transmissions} XORed), "
        f"aggregate {demo.xor.aggregate_throughput_bps:.0f} B/s"
    )
    print(f"  airtime saving: {demo.airtime_saving:.1%}")
