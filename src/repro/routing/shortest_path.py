"""Shortest paths: centralized Dijkstra.

:func:`etx_tree` is the one routing tree of a network: ETX weights
``1 / p_ij`` read from the network's own per-node cost rows, no weight
table keyed by link, and a stop at the one node a caller needs
(DESIGN.md section 3.2).  ETX routing and the node-selection distance
flood both call it.

:func:`dijkstra` runs the same relaxation on arbitrary non-negative
weights keyed by directed link — hop counts and prices in
:mod:`repro.optimization.sunicast` — and is :func:`etx_tree`'s test
oracle.
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


def etx_tree(
    network: WirelessNetwork,
    root: int,
    *,
    toward: bool = False,
    until: Optional[int] = None,
) -> ShortestPathResult:
    """ETX shortest paths of ``network`` itself, weights ``1 / p_ij``.

    Equal, value for value, to :func:`dijkstra` over the ETX weight of
    every link (with ``toward``, over the reversed links: distances *to*
    ``root`` — what each node needs for node selection, Sec. 4 — and
    ``predecessor[v]`` as v's next hop toward it): the same float
    additions in the same ``(distance, node)`` pop order.  That order is
    total, so the order in which one node's neighbors are relaxed cannot
    change a distance or a predecessor.

    With ``until`` the search stops when that node is popped.  Every node
    popped so far — ``until`` included — then has its final distance and
    predecessor, so ``path_to(until)`` is the full tree's; any other
    entry is an upper bound no smaller than ``distance[until]``.  A
    ``root`` or ``until`` outside the network is a ``ValueError``.

    The weights are :meth:`WirelessNetwork.etx_rows`: each ``1.0 / p``
    computed once per link and network, not once per relaxation.
    """
    if not 0 <= root < network.node_count:
        raise ValueError(f"root {root} not among nodes")
    if until is not None and not 0 <= until < network.node_count:
        raise ValueError(f"until {until} not among nodes")
    rows = network.etx_rows(toward)
    result = ShortestPathResult(source=root)
    distance = result.distance
    predecessor = result.predecessor
    label, inf = distance.get, _INF
    push, pop = heapq.heappush, heapq.heappop
    distance[root] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, root)]
    while heap:
        dist, node = pop(heap)
        if dist > distance[node]:
            continue  # superseded by a shorter entry popped earlier
        if node == until:
            break
        for neighbor, cost in rows[node]:
            candidate = dist + cost
            if candidate < label(neighbor, inf):
                distance[neighbor] = candidate
                predecessor[neighbor] = node
                push(heap, (candidate, neighbor))
    return result
