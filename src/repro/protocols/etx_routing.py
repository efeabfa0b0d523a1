"""ETX best-path routing (Couto et al. [9]) — the paper's baseline.

The control plane is a single shortest-path computation under the ETX
metric; the data plane is classic store-and-forward over that path with
MAC-layer retransmissions providing reliability ("we assume that
reliability is guaranteed by MAC layer re-transmissions, which is more
efficient than the end-to-end re-transmission", Sec. 5).

Throughput gains in the paper's Fig. 2 are all normalized by this
protocol's throughput.
"""

from __future__ import annotations

from repro.emulator.plan import UnicastPathPlan
from repro.routing.node_selection import NodeSelectionError, check_endpoints
from repro.routing.shortest_path import etx_tree
from repro.topology.graph import Link, WirelessNetwork


def plan_etx_route(
    network: WirelessNetwork, source: int, destination: int
) -> UnicastPathPlan:
    """Compute the best ETX path for one session on ``network``'s link
    qualities.

    Raises :class:`NodeSelectionError` when an endpoint is not a node or
    no path exists (same error type as OMNC planning so campaign drivers
    can filter sessions uniformly).
    """
    check_endpoints(network, source, destination)
    result = etx_tree(network, source, until=destination)
    path = result.path_to(destination)
    if path is None:
        raise NodeSelectionError(
            f"destination {destination} unreachable from {source}"
        )
    return UnicastPathPlan(path=path, path_etx=result.distance[destination])


def predicted_etx_throughput(
    network: WirelessNetwork, plan: UnicastPathPlan
) -> float:
    """Analytic throughput estimate of an ETX path in bytes/second.

    Every delivered packet costs 1/p_hop transmissions on each hop, and
    hops within interference range of one another cannot proceed in
    parallel.  The bottleneck is the maximum, over links, of the summed
    expected airtime of all links interfering with it — a standard
    estimate for chain throughput under an ideal MAC.
    """
    hops = list(zip(plan.path, plan.path[1:]))
    costs = []
    for (i, j) in hops:
        p = network.probability(i, j)
        if p <= 0:
            return 0.0
        costs.append(1.0 / p)
    worst = 0.0
    for a, (i, j) in enumerate(hops):
        # Links conflict when their transmitters are within range of a
        # common receiver; approximate by transmitter distance <= 2 hops
        # of each other in the chain plus the shared-receiver test.
        load = 0.0
        for b, (k, l) in enumerate(hops):
            if _links_conflict(network, (i, j), (k, l)):
                load += costs[b]
        worst = max(worst, load)
    if worst == 0.0:  # repro: ignore[RPR004] exact sentinel (no load at all)
        return 0.0
    return network.capacity / worst


def _links_conflict(
    network: WirelessNetwork, first: Link, second: Link
) -> bool:
    """Conservative pairwise conflict test between directed links."""
    i, j = first
    k, l = second
    if first == second:
        return True
    # Transmitters in range of each other, or either transmitter in range
    # of the other's receiver.
    return (
        k in network.neighbors(i)
        or l in network.neighbors(i)
        or j in network.neighbors(k)
    )
