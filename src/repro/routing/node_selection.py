"""Node selection: choose the forwarders that may contribute to a unicast.

The paper's procedure (Sec. 3.2 and Sec. 4):

1. every node computes its ETX distance to the destination (shortest
   path over link ETX weights);
2. the source floods a packet carrying distance information using
   *pseudo-broadcast* (Katti et al.) so each neighbor reliably learns it;
3. a node is selected iff it is **closer to the destination than its
   predecessor** — i.e. it lies on some strictly distance-decreasing
   route from the source — and it can actually be reached from the source
   through already-selected nodes.

The selected set induces a DAG when links are oriented from larger to
smaller ETX distance; all multipath structure in OMNC/MORE lives on this
DAG ("the multiple opportunistic paths are constructed implicitly").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.routing.shortest_path import etx_tree
from repro.topology.graph import Link, WirelessNetwork


@dataclass(frozen=True)
class ForwarderSet:
    """Result of node selection for one unicast session.

    Attributes:
        source: session source node.
        destination: session destination node.
        nodes: selected node set (always contains source and destination).
        etx_distance: each selected node's ETX distance to the
            destination.
        dag_links: directed links of the forwarding DAG: (i, j) with both
            endpoints selected and ``etx_distance[j] < etx_distance[i]``.
    """

    source: int
    destination: int
    nodes: FrozenSet[int]
    etx_distance: Dict[int, float]
    dag_links: Tuple[Link, ...]

    @property
    def relay_count(self) -> int:
        """Selected intermediate forwarders (source/destination excluded)."""
        return len(self.nodes) - 2

    def downstream(self, node: int) -> Tuple[int, ...]:
        """Selected nodes reachable from ``node`` by one DAG link."""
        return tuple(j for (i, j) in self.dag_links if i == node)

    def upstream(self, node: int) -> Tuple[int, ...]:
        """Selected nodes with a DAG link into ``node``."""
        return tuple(i for (i, j) in self.dag_links if j == node)

    def ordered_by_distance(self) -> Tuple[int, ...]:
        """Selected nodes ordered from closest to the destination outward.

        This is the forwarder ordering MORE's credit computation uses.
        """
        return tuple(
            sorted(self.nodes, key=lambda n: (self.etx_distance[n], n))
        )


class NodeSelectionError(ValueError):
    """Raised when no usable forwarder set exists for a session."""


def check_endpoints(network: WirelessNetwork, source: int, destination: int) -> None:
    """Reject a session whose endpoints coincide or lie outside ``network``."""
    if source == destination:
        raise NodeSelectionError("source and destination must differ")
    for node in (source, destination):
        if not 0 <= node < network.node_count:
            raise NodeSelectionError(f"node {node} outside the network")


def select_forwarders(
    network: WirelessNetwork,
    source: int,
    destination: int,
) -> ForwarderSet:
    """Run the node-selection procedure for one unicast session, on the
    ETX distances ``1 / p_ij`` of ``network``'s own link qualities.

    Raises:
        NodeSelectionError: if the destination is unreachable from the
            source over the lossy graph.
    """
    check_endpoints(network, source, destination)
    # Stopping at the source is exact: every candidate below is strictly
    # closer than the source, so it was popped before it, and a node not
    # yet popped holds a bound >= the source's.
    to_destination = etx_tree(network, destination, toward=True, until=source)
    if source not in to_destination.distance:
        raise NodeSelectionError(
            f"destination {destination} unreachable from source {source}"
        )
    source_distance = to_destination.distance[source]

    # Candidate filter: strictly closer to the destination than the
    # source, or the source itself.  (A node farther than the source can
    # never sit on a distance-decreasing route from it.)
    candidates = {
        node
        for node, dist in to_destination.distance.items()
        if dist < source_distance
    }
    candidates.add(source)

    # Reachability flood from the source over distance-decreasing links —
    # this is the broadcast step: a receiver keeps forwarding only if it
    # is closer to the destination than the sender it heard.
    reached = _flood_decreasing(network, source, candidates, to_destination.distance)
    if destination not in reached:
        raise NodeSelectionError(
            f"no distance-decreasing route from {source} to {destination}"
        )

    # Keep only nodes that can still pass information onward: every
    # selected node except the destination needs a DAG link to another
    # selected node.  Iterate because removals can cascade.
    selected = set(reached)
    while True:
        dag = _dag_links(network, selected, to_destination.distance)
        has_out = {i for (i, j) in dag}
        dead = {
            n for n in sorted(selected) if n != destination and n not in has_out
        }
        if not dead:
            break
        if source in dead:
            raise NodeSelectionError(
                f"source {source} lost all forwarding links during pruning"
            )
        selected -= dead

    distances = {n: to_destination.distance[n] for n in sorted(selected)}
    return ForwarderSet(
        source=source,
        destination=destination,
        nodes=frozenset(selected),
        etx_distance=distances,
        dag_links=tuple(dag),
    )


def _flood_decreasing(
    network: WirelessNetwork,
    source: int,
    candidates: Set[int],
    distance: Dict[int, float],
) -> Set[int]:
    """BFS from the source over links that strictly decrease ETX distance."""
    reached = {source}
    frontier: List[int] = [source]
    while frontier:
        node = frontier.pop()
        for neighbor in network.out_neighbors(node):
            if neighbor in reached or neighbor not in candidates:
                continue
            if distance.get(neighbor, float("inf")) < distance[node]:
                reached.add(neighbor)
                frontier.append(neighbor)
    return reached


def _dag_links(
    network: WirelessNetwork,
    selected: Set[int],
    distance: Dict[int, float],
) -> List[Link]:
    """Directed links among ``selected`` oriented toward the destination,
    in ascending order."""
    links: List[Link] = []
    for i in sorted(selected):
        for j in network.out_neighbors(i):
            if j in selected and distance[j] < distance[i]:
                links.append((i, j))
    return links
