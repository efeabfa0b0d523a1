"""oldMORE: the min-cost-flow planner of the preliminary MORE [5, 17].

The MORE technical report derived each node's transmission budget from
the min-cost wireless-unicast formulation of Lun et al. [17]: minimize
the total transmission rate needed to sustain a unit information flow,
subject to the same loss coupling b_i * p_ij >= x_ij — but with **no MAC
constraint and no rate control**.

Two properties follow, both of which the paper's evaluation exposes:

* the cost objective concentrates flow onto the cheapest (high-quality)
  links, pruning "a large number of nodes associated with low quality
  links" — the node/path utility gap of Fig. 4;
* nothing bounds the aggregate load a neighborhood can carry, so the
  plan can demand more airtime than exists — the congestion that drops
  oldMORE's throughput gain to ~1.12 (Fig. 2 left) and below ETX routing
  in high-quality networks (Fig. 2 right).

The data plane is identical to MORE's (credit-driven coded broadcast);
only the credit computation differs: z_i = b_i / gamma from the min-cost
routing optimum instead of the ETX-ordered heuristic.
"""

from __future__ import annotations

from typing import Dict

from repro.emulator.plan import CreditBroadcastPlan
from repro.optimization.problem import session_graph_from_selection
from repro.optimization.sunicast import solve_min_cost_routing
from repro.protocols.more import compute_tx_credits
from repro.routing.node_selection import select_forwarders
from repro.topology.graph import WirelessNetwork

_UNIT_FLOW = 1e-3  # normalized probe flow; z is scale-invariant


def plan_oldmore(
    network: WirelessNetwork, source: int, destination: int
) -> CreditBroadcastPlan:
    """Full oldMORE control plane: node selection + min-cost credits.

    The min-cost problem uses transmission-count (store-and-forward) cost
    semantics — see :func:`repro.optimization.sunicast.solve_min_cost_routing`
    for why this variant, rather than the broadcast-shared one, matches
    the path-pruning behaviour the paper reports for oldMORE, and why its
    optimum is the ETX-shortest route inside the forwarder DAG.
    """
    forwarders = select_forwarders(network, source, destination)
    graph = session_graph_from_selection(network, forwarders)
    solution = solve_min_cost_routing(graph, throughput=_UNIT_FLOW)
    # z_i: transmissions per delivered source packet = rate / gamma.
    z: Dict[int, float] = {
        node: rate / _UNIT_FLOW
        for node, rate in solution.broadcast_rates.items()
    }
    credits = compute_tx_credits(network, forwarders, z)
    return CreditBroadcastPlan(
        forwarders=forwarders,
        tx_credits=credits,
        expected_transmissions=z,
    )
