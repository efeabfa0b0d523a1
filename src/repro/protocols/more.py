"""The MORE protocol's forwarding heuristic (Chachulski et al. [6]).

MORE pairs random linear network coding with a *centralized heuristic*
that tells every forwarder how often to transmit.  The computation, per
the SIGCOMM'07 paper:

1. Order the selected nodes by ETX distance to the destination (smaller
   = "closer"); only packets moving from farther to closer nodes count.
2. For each node i, let z_i be the expected number of transmissions i
   makes per source packet delivered.  A forwarder j must forward the
   packets it alone received (no node closer to the destination heard
   them):

       L_j = sum_{i farther than j} z_i * p_ij *
             prod_{k closer than j} (1 - p_ik)

   and needs on average 1 / P(someone closer hears me) transmissions per
   forwarded packet:

       z_j = L_j / (1 - prod_{k closer than j} (1 - p_jk))

   For the source, L_s = 1.
3. The data plane constant is the **TX credit**: transmissions j makes
   per packet heard from upstream,

       tx_credit_j = z_j / (sum_{i farther than j} z_i * p_ij)

The crucial contrast with OMNC (paper Sec. 5): nothing in this
computation knows the channel capacity — "although the heuristic in MORE
tells each node how many packets it should generate, it is not aware of
whether the packets can be sent out" — which is exactly what the queue
experiment (Fig. 3) exposes.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.emulator.plan import CreditBroadcastPlan
from repro.routing.node_selection import ForwarderSet, select_forwarders
from repro.topology.graph import WirelessNetwork


def compute_expected_transmissions(
    network: WirelessNetwork, forwarders: ForwarderSet
) -> Dict[int, float]:
    """The z_i vector of MORE's heuristic (expected TX per source packet).

    Nodes that cannot usefully forward (nobody closer hears them, or they
    never hear an undelivered packet) get z_i = 0; MORE prunes them from
    the forwarder list.
    """
    order = forwarders.ordered_by_distance()  # closest first
    distance = forwarders.etx_distance
    z: Dict[int, float] = {node: 0.0 for node in order}

    # Every p_ik between selected nodes, read once: per sender its
    # receivers and per receiver its senders, both closest first.  A pair
    # without a link multiplies a product by exactly 1.0 and adds exactly
    # 0.0 to a sum, so leaving it out changes no bit of any z_i.
    receivers: Dict[int, Dict[int, float]] = {node: {} for node in order}
    for k in order:
        for i in network.in_neighbors(k):
            if i in z:
                receivers[i][k] = network.probability(i, k)
    senders: Dict[int, List[int]] = {node: [] for node in order}
    for i in order:
        for k in receivers[i]:
            senders[k].append(i)

    def missed_by_closer(sender: int, j: int) -> float:
        """P(no node closer to the destination than j hears ``sender``)."""
        miss = 1.0
        for k, p_ik in receivers[sender].items():
            if distance[k] >= distance[j]:
                break
            miss *= 1.0 - p_ik
        return miss

    # Walk from the farthest node (the source) toward the destination so
    # every "farther" z_i is known when we need it.
    for j in reversed(order):
        if j == forwarders.destination:
            continue
        if j == forwarders.source:
            expected_forward = 1.0
        else:
            expected_forward = 0.0
            for i in senders[j]:
                if distance[i] <= distance[j] or z[i] == 0.0:  # repro: ignore[RPR004] exact sentinel
                    continue
                # Probability j hears i while nobody closer does.
                expected_forward += z[i] * receivers[i][j] * missed_by_closer(i, j)
        if expected_forward == 0.0:  # repro: ignore[RPR004] exact sentinel
            continue
        reach = 1.0 - missed_by_closer(j, j)
        if reach <= 0.0:
            continue  # nobody closer can hear j: useless forwarder
        z[j] = expected_forward / reach
    return z


def compute_tx_credits(
    network: WirelessNetwork,
    forwarders: ForwarderSet,
    z: Dict[int, float],
) -> Dict[int, float]:
    """TX credit per forwarder: z_j over expected packets heard from
    upstream.  The source streams continuously and takes no credit."""
    distance = forwarders.etx_distance
    # heard[j]: expected packets j hears from farther nodes per source
    # packet.  Each j collects its terms in ``forwarders.nodes`` order.
    heard: Dict[int, float] = dict.fromkeys(forwarders.nodes, 0.0)
    for i in forwarders.nodes:
        z_i = z.get(i, 0.0)
        for j in network.out_neighbors(i):
            if j in heard and distance[i] > distance[j]:
                heard[j] += z_i * network.probability(i, j)
    credits: Dict[int, float] = {}
    for j in forwarders.nodes:
        if j in (forwarders.source, forwarders.destination):
            continue
        if z.get(j, 0.0) == 0.0:  # repro: ignore[RPR004] exact sentinel
            continue
        if heard[j] <= 0.0:
            continue
        credits[j] = z[j] / heard[j]
    return credits


def plan_more(
    network: WirelessNetwork, source: int, destination: int
) -> CreditBroadcastPlan:
    """Full MORE control plane: node selection + heuristic credits."""
    forwarders = select_forwarders(network, source, destination)
    z = compute_expected_transmissions(network, forwarders)
    credits = compute_tx_credits(network, forwarders, z)
    return CreditBroadcastPlan(
        forwarders=forwarders,
        tx_credits=credits,
        expected_transmissions=z,
    )


def total_expected_transmissions(z: Dict[int, float]) -> float:
    """Sum of z_i: the heuristic's cost-per-delivered-packet estimate."""
    return float(sum(z.values()))


def effective_forwarders(
    plan: CreditBroadcastPlan, threshold: float = 1e-9
) -> Tuple[int, ...]:
    """Forwarders MORE actually uses (positive credit)."""
    return tuple(
        sorted(n for n, c in plan.tx_credits.items() if c > threshold)
    )
