"""Shortest paths: centralized Dijkstra.

The dict entry points operate on arbitrary non-negative link weights keyed
by directed link, so the same code serves

* ETX routing and the node-selection distance flood on *measured* link
  qualities (weights = 1/p_hat_ij),
* SUB1 of the rate-control decomposition (weights = Lagrange prices
  lambda_ij), which the paper solves "in a distributed manner".

On oracle link qualities both planners call :func:`etx_tree` instead: the
same relaxation run on the network's own adjacency, which builds no
weight table and can stop at the one node a caller needs (DESIGN.md
section 3.2).  :func:`dijkstra` is its test oracle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.topology.graph import WirelessNetwork

Link = Tuple[int, int]

_INF = float("inf")


@dataclass
class ShortestPathResult:
    """Distances and predecessor tree from one Dijkstra/Bellman-Ford run.

    ``distance[v]`` is the weight of the best path; unreachable nodes are
    absent.  ``predecessor[v]`` gives the upstream hop toward the source
    of the computation.
    """

    source: int
    distance: Dict[int, float] = field(default_factory=dict)
    predecessor: Dict[int, int] = field(default_factory=dict)

    def path_to(self, target: int) -> Optional[Tuple[int, ...]]:
        """Reconstruct the node sequence source..target, or None."""
        if target not in self.distance:
            return None
        hops: List[int] = [target]
        node = target
        while node != self.source:
            node = self.predecessor[node]
            hops.append(node)
        return tuple(reversed(hops))

    def hop_count(self, target: int) -> Optional[int]:
        """Number of hops on the best path, or None if unreachable."""
        path = self.path_to(target)
        if path is None:
            return None
        return len(path) - 1


def dijkstra(
    nodes: Iterable[int],
    weights: Mapping[Link, float],
    source: int,
) -> ShortestPathResult:
    """Single-source shortest paths with non-negative weights.

    ``weights`` maps directed links (i, j) to costs; absent links do not
    exist.  Raises ``ValueError`` on a negative weight.
    """
    node_set = set(nodes)
    if source not in node_set:
        raise ValueError(f"source {source} not among nodes")
    adjacency: Dict[int, List[Tuple[int, float]]] = {n: [] for n in sorted(node_set)}
    for (i, j), w in weights.items():
        if w < 0:
            raise ValueError(f"negative weight on link ({i},{j}): {w}")
        if i in node_set and j in node_set:
            adjacency[i].append((j, w))

    result = ShortestPathResult(source=source)
    result.distance[source] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, source)]
    settled: set = set()
    while heap:
        dist, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        for neighbor, weight in adjacency[node]:
            candidate = dist + weight
            if candidate < result.distance.get(neighbor, _INF):
                result.distance[neighbor] = candidate
                result.predecessor[neighbor] = node
                heapq.heappush(heap, (candidate, neighbor))
    return result


def dijkstra_to_destination(
    nodes: Iterable[int],
    weights: Mapping[Link, float],
    destination: int,
) -> ShortestPathResult:
    """Shortest distance *to* ``destination`` from every node.

    Runs Dijkstra on the reversed graph; ``distance[v]`` is then the cost
    of v's best path toward the destination — the quantity each node
    needs for node selection ("each node needs to compute its distance to
    the destination", Sec. 4).  ``predecessor[v]`` is v's next hop toward
    the destination.
    """
    reversed_weights = {(j, i): w for (i, j), w in weights.items()}
    reversed_result = dijkstra(nodes, reversed_weights, destination)
    result = ShortestPathResult(source=destination)
    result.distance = reversed_result.distance
    result.predecessor = reversed_result.predecessor
    return result


def etx_tree(
    network: WirelessNetwork,
    root: int,
    *,
    toward: bool = False,
    until: Optional[int] = None,
) -> ShortestPathResult:
    """ETX shortest paths of ``network`` itself, weights ``1 / p_ij``.

    Equal, value for value, to :func:`dijkstra` (or, with ``toward``,
    :func:`dijkstra_to_destination`: distances *to* ``root`` and next
    hops) over ``etx_weights(network)``: the same float additions in the
    same ``(distance, node)`` pop order.  That order is total, so the
    order in which one node's neighbors are relaxed cannot change a
    distance or a predecessor.

    With ``until`` the search stops when that node is popped.  Every node
    popped so far — ``until`` included — then has its final distance and
    predecessor, so ``path_to(until)`` is the full tree's; any other
    entry is an upper bound no smaller than ``distance[until]``.
    """
    if not 0 <= root < network.node_count:
        raise ValueError(f"root {root} not among nodes")
    neighbors = network.in_neighbors if toward else network.out_neighbors
    probability = network.probability
    result = ShortestPathResult(source=root)
    distance = result.distance
    predecessor = result.predecessor
    distance[root] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, root)]
    while heap:
        dist, node = heapq.heappop(heap)
        if dist > distance[node]:
            continue  # superseded by a shorter entry popped earlier
        if node == until:
            break
        for neighbor in neighbors(node):
            p = probability(neighbor, node) if toward else probability(node, neighbor)
            candidate = dist + 1.0 / p
            if candidate < distance.get(neighbor, _INF):
                distance[neighbor] = candidate
                predecessor[neighbor] = node
                heapq.heappush(heap, (candidate, neighbor))
    return result
