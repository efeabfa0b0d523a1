"""Pseudo-broadcast (Katti et al., "XORs in the Air").

802.11 broadcast frames are unacknowledged and hence unreliable; the
pseudo-broadcast trick sends a *unicast* frame (which is MAC-acked and
retransmitted) to one designated neighbor while all other neighbors pick
the packet up in promiscuous mode.  The paper uses it during node
selection "to obtain deterministic information about the proximity ...
which ensures reliable broadcast to each neighboring node with minimal
cost" (Sec. 4).

This module computes the *cost model* of pseudo-broadcast over our lossy
links and provides a reliable-flood primitive built on it; the emulator
uses the cost to account for control-plane overhead and the flood result
to seed node selection with consistent distance information.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.topology.graph import WirelessNetwork

#: Residual miss probability below which a neighbour counts as covered.
RESIDUAL_THRESHOLD = 0.01


@dataclass(frozen=True)
class PseudoBroadcastCost:
    """Expected cost of one reliable neighborhood broadcast from a node.

    Attributes:
        transmissions: expected number of MAC transmissions (the unicast
            retransmits to the weakest designated receiver dominate).
        covered: neighbors expected to receive at least one copy.
    """

    transmissions: float
    covered: FrozenSet[int]


def neighborhood_broadcast_cost(
    network: WirelessNetwork,
    sender: int,
    *,
    residual_threshold: float = RESIDUAL_THRESHOLD,
) -> PseudoBroadcastCost:
    """Expected transmissions for ``sender`` to reach all its out-neighbors.

    Strategy (as in the reference implementation): repeatedly unicast to
    the not-yet-covered neighbor with the *best* link; every retransmission
    also gives other uncovered neighbors an overhearing chance.  We model
    the expectation greedily: each phase targets the best uncovered
    neighbor and runs ``1/p`` expected transmissions, during which another
    uncovered neighbor ``k`` stays uncovered with probability
    ``(1-p_k)^(1/p)``.  Phases repeat until every neighbor's residual
    miss-probability drops below ``residual_threshold``.

    A ``sender`` outside the network, or a threshold outside ``[0, 1)``
    (NaN included), is a :class:`ValueError`.
    """
    if not 0 <= sender < network.node_count:
        raise ValueError(f"sender {sender} outside 0..{network.node_count - 1}")
    if not 0.0 <= residual_threshold < 1.0:
        raise ValueError(f"residual_threshold must be in [0, 1), got {residual_threshold}")
    ids = network.out_neighbors(sender)  # ascending, so ties go to the lower id
    if not ids:
        return PseudoBroadcastCost(transmissions=0.0, covered=frozenset())
    probs = [network.probability(sender, j) for j in ids]
    missed = [1.0] * len(ids)  # per neighbor: probability it is still uncovered

    total_tx = 0.0
    covered: Set[int] = set()
    # Bounded loop: each phase definitively covers its target.
    for _ in ids:
        pending = [k for k, r in enumerate(missed) if r > residual_threshold]
        if not pending:
            break
        target = max(pending, key=probs.__getitem__)
        expected_tx = 1.0 / probs[target]
        total_tx += expected_tx
        missed = [r * (1.0 - p) ** expected_tx for r, p in zip(missed, probs)]
        missed[target] = 0.0
        covered.add(ids[target])
    # Targets first (phase order), then whoever overhearing alone covered:
    # the insertion order fixes the frozenset layout a flood iterates.
    covered.update(j for j, r in zip(ids, missed) if r <= residual_threshold)
    return PseudoBroadcastCost(
        transmissions=total_tx, covered=frozenset(covered)
    )


@dataclass(frozen=True)
class FloodResult:
    """Outcome of a network-wide reliable flood.

    Attributes:
        origin: flooding node.
        reached: nodes that received the flooded information.
        total_transmissions: expected MAC transmissions spent, summed over
            all forwarding nodes — the control overhead the paper accepts
            as "a certain amount of overhead" per (re-)initialization.
        forward_order: order in which nodes first forwarded.
    """

    origin: int
    reached: FrozenSet[int]
    total_transmissions: float
    forward_order: Tuple[int, ...]


def reliable_flood(
    network: WirelessNetwork,
    origin: int,
    *,
    eligible: Optional[FrozenSet[int]] = None,
    costs: Optional[Sequence[PseudoBroadcastCost]] = None,
) -> FloodResult:
    """Flood from ``origin`` with per-hop pseudo-broadcast reliability.

    ``eligible`` optionally restricts which receivers continue forwarding
    (node selection forwards only at nodes closer to the destination).
    Delivery itself is deterministic — that is the point of
    pseudo-broadcast — so the result is the reachable set plus its cost.
    ``costs`` is every node's :func:`neighborhood_broadcast_cost` at the
    default threshold, indexed by node, where the caller computed them
    (all at once); without it each forwarder's is computed here.
    """
    if not 0 <= origin < network.node_count:
        raise ValueError(f"origin {origin} outside the network")
    reached: Set[int] = {origin}
    order: List[int] = []
    total_tx = 0.0
    frontier = deque([origin])
    while frontier:
        node = frontier.popleft()
        if eligible is not None and node != origin and node not in eligible:
            continue  # receives but does not forward
        cost = (
            neighborhood_broadcast_cost(network, node) if costs is None else costs[node]
        )
        total_tx += cost.transmissions
        order.append(node)
        for j in cost.covered:
            if j not in reached:
                reached.add(j)
                frontier.append(j)
    return FloodResult(
        origin=origin,
        reached=frozenset(reached),
        total_transmissions=total_tx,
        forward_order=tuple(order),
    )
