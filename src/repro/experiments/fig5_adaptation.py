"""Figure 5 (extension) — re-planning under drift and node failure.

The paper stops at a static pipeline and notes (Sec. 4) that when link
qualities change, node selection and rate allocation "have to be
re-initiated, which brings a certain amount of overhead".  This
experiment quantifies the trade-off the authors left open: a session
runs under a scenario in which, one third in, link qualities drift and
the plan's busiest relay dies.  Three controllers face it:

* **oblivious** — never re-plans (the paper's pipeline);
* **periodic** — re-plans every k epochs, needed or not;
* **drift-triggered** — re-plans when probed drift crosses a threshold.

Every re-plan charges the measured Sec. 4 control-plane cost
(node-selection flood + rate-control message census) as stalled
airtime, and OMNC warm-starts each re-plan from the previous run's
dual prices.  The headline metric is post-event throughput: the
oblivious plan keeps pushing packets through a dead relay, while the
drift-triggered controller pays one re-initiation and routes around
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.emulator.session import SessionConfig
from repro.exec import ExecutionPolicy, execute_calls
from repro.protocols.adaptive import make_planner
from repro.protocols.more import plan_more
from repro.protocols.omnc import plan_omnc
from repro.routing.node_selection import NodeSelectionError
from repro.scenario import (
    AdaptiveSessionResult,
    ScenarioEvent,
    ScenarioSpec,
    make_policy,
    run_adaptive_session,
)
from repro.topology.graph import WirelessNetwork
from repro.topology.phy import lossy_phy
from repro.topology.random_network import random_network
from repro.util.rng import RngFactory


@dataclass(frozen=True)
class Fig5Config:
    """Knobs of the adaptation experiment.

    ``smoke()`` returns a reduced configuration for CI: same shape,
    a fraction of the emulated time.
    """

    node_count: int = 40
    seed: int = 2008
    session_seed: int = 7
    duration: float = 240.0
    epoch_seconds: float = 20.0
    drift_sigma: float = 0.5
    drift_threshold: float = 0.02
    periodic_every: int = 2
    protocol: str = "omnc"
    min_forwarders: int = 5

    @classmethod
    def smoke(cls) -> "Fig5Config":
        """CI-sized run: ~100x faster, same scenario shape."""
        return cls(node_count=30, duration=60.0, epoch_seconds=10.0)


@dataclass(frozen=True)
class Fig5Result:
    """The three controllers' outcomes on one scenario.

    Attributes:
        config: the experiment configuration.
        scenario: the event schedule all three runs faced.
        source / destination: session endpoints.
        failed_node: the relay the scenario kills (the initial plan's
            busiest forwarder).
        event_time: when drift + failure strike.
        runs: per-policy adaptive results, keyed "oblivious" /
            "periodic" / "drift".
    """

    config: Fig5Config
    scenario: ScenarioSpec
    source: int
    destination: int
    failed_node: int
    event_time: float
    runs: Dict[str, AdaptiveSessionResult]

    def post_event_throughput(self, policy: str) -> float:
        """Payload throughput after the drift/failure event (B/s)."""
        return self.runs[policy].throughput_after(self.event_time)


def _feasible_pair(
    network: WirelessNetwork, min_forwarders: int
) -> Tuple[int, int]:
    """A deterministic session pair with a non-trivial forwarder set."""
    for source in range(network.node_count):
        for destination in range(network.node_count - 1, -1, -1):
            if source == destination:
                continue
            try:
                plan = plan_more(network, source, destination)
            except NodeSelectionError:
                continue
            if len(plan.forwarders.nodes) >= min_forwarders:
                return source, destination
    raise RuntimeError("no feasible session on the experiment network")


def build_scenario(
    network: WirelessNetwork,
    source: int,
    destination: int,
    config: Fig5Config,
) -> Tuple[ScenarioSpec, int]:
    """The failover scenario: drift plus death of the busiest relay.

    The failed node is chosen from the *initial* OMNC plan — the relay
    carrying the highest allocated rate — so an oblivious controller is
    guaranteed to be left leaning on a dead node.
    """
    plan = plan_omnc(network, source, destination)
    relays = {
        node: rate
        for node, rate in plan.rates.items()
        if node not in (source, destination) and rate > 0
    }
    if not relays:
        raise RuntimeError("initial plan uses no relays; nothing to fail")
    busiest = max(relays, key=lambda node: relays[node])
    event_time = config.duration / 3
    spec = ScenarioSpec(
        name="failover",
        duration=config.duration,
        epoch_seconds=config.epoch_seconds,
        events=(
            ScenarioEvent(at=event_time, kind="drift", sigma=config.drift_sigma),
            ScenarioEvent(at=event_time, kind="fail", node=busiest),
        ),
    )
    return spec, busiest


_POLICY_KEYS = ("oblivious", "periodic", "drift")


def _fig5_network(config: Fig5Config) -> WirelessNetwork:
    """The experiment topology — a pure function of the config."""
    rng = RngFactory(config.seed)
    return random_network(
        config.node_count,
        phy=lossy_phy(rng=rng.derive("phy")),
        rng=rng.derive("topology"),
    )


def _policy_spec(config: Fig5Config, key: str) -> str:
    specs = {
        "oblivious": "oblivious",
        "periodic": f"periodic:{config.periodic_every}",
        "drift": f"drift:{config.drift_threshold:g}",
    }
    return specs[key]


@dataclass(frozen=True)
class Fig5Job:
    """One controller's run on the failover scenario, as a job.

    The network, endpoints and scenario re-derive deterministically from
    the config, so the job is self-contained: the three policies can run
    on different workers and still face bit-identical randomness.
    """

    config: Fig5Config
    policy_key: str  # "oblivious" | "periodic" | "drift"


def execute_fig5_job(job: Fig5Job) -> AdaptiveSessionResult:
    """Run one re-planning policy on the failover scenario."""
    config = job.config
    network = _fig5_network(config)
    source, destination = _feasible_pair(network, config.min_forwarders)
    spec, _busiest = build_scenario(network, source, destination, config)
    planner = make_planner(config.protocol, source, destination)
    return run_adaptive_session(
        network,
        planner,
        make_policy(_policy_spec(config, job.policy_key)),
        spec,
        config=SessionConfig(max_seconds=config.duration),
        rng=RngFactory(config.session_seed),
    )


def run_fig5(
    config: Optional[Fig5Config] = None,
    *,
    policy: Optional[ExecutionPolicy] = None,
) -> Fig5Result:
    """Run the three controllers on the failover scenario.

    Every run uses an identically-seeded RNG factory, so the three
    sessions face bit-identical channel and scheduler randomness — the
    only difference is the re-planning policy.  The runs are submitted
    as independent jobs, so ``policy`` can spread them over workers or
    satisfy them from the result cache; a job failure surfaces as a
    ``RuntimeError`` because the comparison needs all three controllers.
    """
    config = config or Fig5Config()
    network = _fig5_network(config)
    source, destination = _feasible_pair(network, config.min_forwarders)
    spec, busiest = build_scenario(network, source, destination, config)
    calls = [
        (execute_fig5_job, Fig5Job(config=config, policy_key=key))
        for key in _POLICY_KEYS
    ]
    runs = dict(zip(_POLICY_KEYS, execute_calls(calls, policy)))
    return Fig5Result(
        config=config,
        scenario=spec,
        source=source,
        destination=destination,
        failed_node=busiest,
        event_time=config.duration / 3,
        runs=runs,
    )


def report(result: Fig5Result) -> None:
    """Print the adaptation comparison table."""
    config = result.config
    print("Figure 5 — mid-run re-planning under drift and node failure")
    print(
        f"{config.protocol} session {result.source} -> {result.destination}, "
        f"{config.node_count} nodes, {config.duration:.0f} s; at "
        f"{result.event_time:.0f} s link qualities drift "
        f"(sigma {config.drift_sigma}) and relay {result.failed_node} dies"
    )
    header = (
        f"{'policy':12s} {'tput B/s':>9s} {'post-event':>10s} "
        f"{'replans':>7s} {'overhead':>9s} {'rc iters':>18s}"
    )
    print(header)
    for key in ("oblivious", "periodic", "drift"):
        run = result.runs[key]
        iters = ",".join(str(i) for i in run.planner_iterations)
        print(
            f"{run.policy:12s} {run.session.throughput_bps:9.0f} "
            f"{result.post_event_throughput(key):10.0f} "
            f"{run.replans:7d} {run.replan_seconds:8.1f}s {iters:>18s}"
        )
    oblivious = result.post_event_throughput("oblivious")
    triggered = result.post_event_throughput("drift")
    if oblivious > 0:
        print(
            f"drift-triggered post-event gain over oblivious: "
            f"{triggered / oblivious:.2f}x"
        )
