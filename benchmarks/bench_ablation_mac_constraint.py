"""Ablation — the broadcast MAC constraint (4).

Plan one session twice with the centralized optimizer: once with the
paper's MAC constraint, once without (congestion-blind, oldMORE-style).
Emulating both shows the mechanism behind Fig. 3: the congestion-blind
allocation demands more airtime than exists and queues blow up, while
the constrained allocation keeps queues near zero.
"""

from repro.emulator import SessionConfig, run_coded_session
from repro.emulator.plan import CodedBroadcastPlan
from repro.optimization.rate_control import feasible_scaling
from repro.optimization.problem import session_graph_from_selection
from repro.optimization.sunicast import solve_sunicast
from repro.routing.node_selection import select_forwarders
from repro.topology import random_network
from repro.util import RngFactory

SESSION = (94, 45)


def _plan(network, constrained: bool) -> CodedBroadcastPlan:
    source, destination = SESSION
    forwarders = select_forwarders(network, source, destination)
    graph = session_graph_from_selection(network, forwarders)
    solution = solve_sunicast(graph, mac_constraint=constrained)
    rates = dict(solution.broadcast_rates)
    if constrained:
        rates, _ = feasible_scaling(graph, rates)
    rates[destination] = 0.0
    return CodedBroadcastPlan(
        forwarders=forwarders,
        rates={n: b * graph.capacity for n, b in rates.items()},
        predicted_throughput=solution.throughput * graph.capacity,
    )


def test_mac_constraint_ablation(benchmark):
    rng = RngFactory(3)
    network = random_network(120, rng=rng.derive("topo"))
    config = SessionConfig(max_seconds=150.0, target_generations=4)

    def run_both():
        constrained = run_coded_session(
            network, _plan(network, True), config=config, rng=rng.spawn("on")
        )
        unconstrained = run_coded_session(
            network, _plan(network, False), config=config, rng=rng.spawn("off")
        )
        return constrained, unconstrained

    constrained, unconstrained = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    benchmark.extra_info["constrained_queue"] = round(constrained.mean_queue(), 2)
    benchmark.extra_info["unconstrained_queue"] = round(
        unconstrained.mean_queue(), 2
    )
    benchmark.extra_info["constrained_bps"] = round(constrained.throughput_bps)
    benchmark.extra_info["unconstrained_bps"] = round(
        unconstrained.throughput_bps
    )
    # Dropping (4) over-subscribes the channel: queues must grow clearly.
    assert unconstrained.mean_queue() > 2 * max(constrained.mean_queue(), 0.05)
