"""Control-plane re-initiation cost (paper Sec. 4 overhead).

OMNC "is based on the presumption that the link qualities in the target
network are relatively stable over time ... In cases where link
qualities change significantly, the node selection and rate allocation
have to be re-initiated, which brings a certain amount of overhead."
This module prices exactly that re-initiation: the pseudo-broadcast
flood for node selection plus the rate-control message census, in
messages and in channel-seconds.

It lives in the optimization layer — not in :mod:`repro.topology.dynamics`,
where it started — because measuring a re-plan *runs* the optimizer and
the routing flood, and hosting that in topology created the
``topology ⇄ optimization`` / ``topology ⇄ routing`` import cycles the
RPR101 layering contract forbids.  The drift model itself
(:func:`repro.topology.dynamics.perturb_link_qualities`,
:func:`repro.topology.dynamics.quality_drift`) stays in topology, which
needs nothing above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.optimization import native, rate_control
from repro.optimization.messages import MessagePassingRateControl
from repro.optimization.problem import SessionGraph, session_graph_from_selection
from repro.optimization.rate_control import RateControlConfig
from repro.routing.node_selection import select_forwarders
from repro.routing.pseudo_broadcast import FloodResult, reliable_flood
from repro.topology.graph import WirelessNetwork

__all__ = ["ReplanCost", "replan_cost", "selection_flood"]


@dataclass(frozen=True)
class ReplanCost:
    """Control-plane cost of one re-initiation (paper Sec. 4 overhead).

    Attributes:
        flood_transmissions: expected MAC transmissions of the
            node-selection pseudo-broadcast flood.
        rate_control_messages: messages exchanged by the distributed
            rate control run.
        rate_control_iterations: outer iterations it took.
        channel_seconds: total airtime of both phases at the network's
            capacity, assuming ``control_packet_bytes`` per message —
            the session's data plane is stalled for (at most) this long.
    """

    flood_transmissions: float
    rate_control_messages: int
    rate_control_iterations: int
    channel_seconds: float


def selection_flood(network: WirelessNetwork, source: int) -> FloodResult:
    """The node-selection flood from ``source``: :func:`reliable_flood`,
    every node's pseudo-broadcast greedy computed in one call of Table 1's
    kernel where :func:`~repro.optimization.rate_control.compiled_kernel`
    has one, in Python otherwise; bit for bit the same either way."""
    kernel = rate_control.compiled_kernel()
    costs = None if kernel is None else native.broadcast_costs(kernel, network)
    return reliable_flood(network, source, costs=costs)


def replan_cost(
    network: WirelessNetwork,
    source: int,
    destination: int,
    *,
    control_packet_bytes: int = 64,
    config: Optional[RateControlConfig] = None,
    graph: Optional[SessionGraph] = None,
) -> ReplanCost:
    """Measure the full cost of re-initiating one session's control plane.

    Runs the actual node-selection flood cost model and the actual
    message-passing rate control on the (new) topology, so the returned
    numbers are measurements, not estimates.

    ``graph`` hands over the session graph a planner already selected on
    this very ``network`` for these endpoints; without it node selection
    runs here.
    """
    if control_packet_bytes <= 0:
        raise ValueError("control_packet_bytes must be > 0")
    flood = selection_flood(network, source)
    if graph is None:
        forwarders = select_forwarders(network, source, destination)
        graph = session_graph_from_selection(network, forwarders)
    elif (graph.source, graph.destination) != (source, destination):
        raise ValueError(
            f"graph runs {graph.source}->{graph.destination}, "
            f"not {source}->{destination}"
        )
    controller = MessagePassingRateControl(graph, config)
    result = controller.run()
    messages = controller.stats.total
    airtime = (
        (flood.total_transmissions + messages)
        * control_packet_bytes
        / network.capacity
    )
    return ReplanCost(
        flood_transmissions=flood.total_transmissions,
        rate_control_messages=messages,
        rate_control_iterations=result.iterations,
        channel_seconds=airtime,
    )
