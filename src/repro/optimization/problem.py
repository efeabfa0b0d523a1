"""The session graph: the optimization's view of one unicast session.

After node selection, the paper works on "the resulting topology graph
G(V, E), where V is the set of selected nodes involved in the unicast and
E is the set of directed links" (Sec. 3.2).  :class:`SessionGraph`
captures exactly that, plus the two pieces of context the constraints
need: reception probabilities p_ij on links, and neighborhoods N(i) among
the selected nodes for the broadcast MAC constraint.

All rates inside the optimization are **normalized by the channel
capacity C**, so capacities are 1.0 and throughputs live in [0, 1].  This
makes the paper's dimensionless step-size constants (A=1, B=0.5, C=10 in
Fig. 1) directly applicable; :meth:`SessionGraph.denormalize_rates`
converts results back to bytes/second.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Sequence, Set, Tuple

from repro.routing.node_selection import ForwarderSet
from repro.topology.graph import Link, WirelessNetwork


@dataclass(frozen=True)
class GraphIndex:
    """Integer-indexed tables of one :class:`SessionGraph`, compiled once.

    Node ``v`` is addressed by its position in ``graph.nodes``, link ``k``
    by its position in ``graph.links``.  The Table 1 drivers iterate on
    these tables only, and every table preserves the order the
    dict-keyed formulation accumulated in, so a left-to-right loop over
    one of them reproduces the corresponding dict scan bit for bit:

    * ``out_links[v]`` / ``in_links[v]`` list link indices in
      ``graph.links`` order;
    * ``neighbors[v]`` lists node indices in the iteration order of the
      ``graph.neighbors[node]`` frozenset captured at construction;
    * ``transmitters`` is sorted by node *id*, ``mac_constrained``
      follows ``graph.nodes`` order.

    Attributes:
        node_index: node id -> node index.
        tail: per link, the index of its transmitter i.
        head: per link, the index of its receiver j.
        p: per link, the reception probability p_ij.
        out_links: per node, indices of the links leaving it.
        in_links: per node, indices of the links entering it.
        q: per node, the union probability q_i = 1 - prod_j (1 - p_ij)
            over its out-links in link order (0.0 without out-links).
        neighbors: per node, the indices of N(i).
        adjacency: per node, ``(head id, head index, link index)`` of its
            out-links in link order — what Dijkstra relaxes; the id rides
            along because the heap breaks distance ties on it.
        transmitters: indices of the nodes with an out-link.
        mac_constrained: indices of the nodes in V \\ {S}.
        source: index of the source.
        destination: index of the destination.
    """

    node_index: Dict[int, int]
    tail: Tuple[int, ...]
    head: Tuple[int, ...]
    p: Tuple[float, ...]
    out_links: Tuple[Tuple[int, ...], ...]
    in_links: Tuple[Tuple[int, ...], ...]
    q: Tuple[float, ...]
    neighbors: Tuple[Tuple[int, ...], ...]
    adjacency: Tuple[Tuple[Tuple[int, int, int], ...], ...]
    transmitters: Tuple[int, ...]
    mac_constrained: Tuple[int, ...]
    source: int
    destination: int


@dataclass(frozen=True)
class SessionGraph:
    """Immutable optimization input for one unicast session.

    Attributes:
        source: source node id.
        destination: destination node id.
        nodes: selected nodes (includes source and destination).
        links: directed links (i, j) available to the session.
        probability: p_ij per link.
        neighbors: N(i) restricted to selected nodes — the transmitters
            node i competes with under the broadcast MAC constraint.
        capacity: the MAC channel capacity in bytes/second (used only for
            denormalization; the optimization itself is capacity-1).
    """

    source: int
    destination: int
    nodes: Tuple[int, ...]
    links: Tuple[Link, ...]
    probability: Mapping[Link, float]
    neighbors: Mapping[int, FrozenSet[int]]
    capacity: float
    index: GraphIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        node_set: Set[int] = set()
        for node in self.nodes:
            if node in node_set:
                raise ValueError(f"duplicate node {node}")
            node_set.add(node)
        if self.source not in node_set or self.destination not in node_set:
            raise ValueError("source and destination must be selected nodes")
        if self.source == self.destination:
            raise ValueError("source and destination must differ")
        if self.capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {self.capacity}")
        link_set: Set[Link] = set()
        for (i, j) in self.links:
            if (i, j) in link_set:
                raise ValueError(f"duplicate link ({i},{j})")
            link_set.add((i, j))
            if i not in node_set or j not in node_set:
                raise ValueError(f"link ({i},{j}) references unselected nodes")
            p = self.probability.get((i, j), 0.0)
            if not 0.0 < p <= 1.0:
                raise ValueError(f"link ({i},{j}) needs probability in (0,1], got {p}")
        for node in self.nodes:
            if node not in self.neighbors:
                raise ValueError(f"node {node} has no neighbors entry")
        for node, members in self.neighbors.items():
            if node not in node_set:
                raise ValueError(f"neighbors key {node} is not a selected node")
            for member in members:
                if member not in node_set:
                    raise ValueError(
                        f"neighbor {member} of node {node} is not a selected node"
                    )
        object.__setattr__(self, "index", self._compile())

    def _compile(self) -> GraphIndex:
        """Build the index tables; the only scan of ``links`` per graph."""
        node_index = {node: v for v, node in enumerate(self.nodes)}
        out_links: List[List[int]] = [[] for _ in self.nodes]
        in_links: List[List[int]] = [[] for _ in self.nodes]
        miss = [1.0] * len(self.nodes)
        tail: List[int] = []
        head: List[int] = []
        p: List[float] = []
        for k, (i, j) in enumerate(self.links):
            u, v = node_index[i], node_index[j]
            tail.append(u)
            head.append(v)
            p.append(self.probability[(i, j)])
            out_links[u].append(k)
            in_links[v].append(k)
            miss[u] *= 1.0 - p[k]
        return GraphIndex(
            node_index=node_index,
            tail=tuple(tail),
            head=tuple(head),
            p=tuple(p),
            out_links=tuple(tuple(ks) for ks in out_links),
            in_links=tuple(tuple(ks) for ks in in_links),
            q=tuple(1.0 - m for m in miss),
            neighbors=tuple(
                tuple(node_index[j] for j in self.neighbors[node])
                for node in self.nodes
            ),
            adjacency=tuple(
                tuple((self.links[k][1], head[k], k) for k in ks) for ks in out_links
            ),
            transmitters=tuple(
                node_index[node]
                for node in sorted(n for n, ks in zip(self.nodes, out_links) if ks)
            ),
            mac_constrained=tuple(
                v for v, node in enumerate(self.nodes) if node != self.source
            ),
            source=node_index[self.source],
            destination=node_index[self.destination],
        )

    @property
    def node_count(self) -> int:
        """|V| of the session graph."""
        return len(self.nodes)

    @property
    def link_count(self) -> int:
        """|E| of the session graph."""
        return len(self.links)

    def out_links(self, node: int) -> Tuple[Link, ...]:
        """Directed links leaving ``node``."""
        v = self.index.node_index.get(node)
        if v is None:
            return ()
        return tuple(self.links[k] for k in self.index.out_links[v])

    def in_links(self, node: int) -> Tuple[Link, ...]:
        """Directed links entering ``node``."""
        v = self.index.node_index.get(node)
        if v is None:
            return ()
        return tuple(self.links[k] for k in self.index.in_links[v])

    def supply(self, node: int) -> int:
        """The sigma(i) of flow conservation: +1 source, -1 destination."""
        if node == self.source:
            return 1
        if node == self.destination:
            return -1
        return 0

    def transmitters(self) -> Tuple[int, ...]:
        """Nodes that may broadcast: everyone with an outgoing link."""
        return tuple(self.nodes[v] for v in self.index.transmitters)

    def union_probability(self, node: int) -> float:
        """q_i = 1 - prod_j (1 - p_ij): probability one broadcast by
        ``node`` reaches at least one downstream session node.

        This is the hyperarc capacity coefficient of the broadcast
        information constraint (5b); see
        :func:`repro.optimization.sunicast.solve_sunicast`.
        """
        v = self.index.node_index.get(node)
        return 0.0 if v is None else self.index.q[v]

    def mac_constrained_nodes(self) -> Tuple[int, ...]:
        """Nodes carrying a broadcast MAC constraint: i in V \\ {S}.

        The paper applies constraint (4) to "any receiver (and possibly
        transmitter) i in V\\S".
        """
        return tuple(self.nodes[v] for v in self.index.mac_constrained)

    def denormalize_rates(self, rates: Dict[int, float]) -> Dict[int, float]:
        """Convert capacity-normalized node rates to bytes/second."""
        return {node: rate * self.capacity for node, rate in rates.items()}

    def denormalize_flows(self, flows: Dict[Link, float]) -> Dict[Link, float]:
        """Convert capacity-normalized link flows to bytes/second."""
        return {link: rate * self.capacity for link, rate in flows.items()}


def check_joint_sessions(graphs: Sequence[SessionGraph]) -> None:
    """The N-session contract of the joint LP and the Table 1 loop.

    Raises ``ValueError`` unless there is at least one session and all
    sessions share one capacity (they describe the same channel).
    """
    if not graphs:
        raise ValueError("at least one session is required")
    capacities = {g.capacity for g in graphs}
    if len(capacities) != 1:
        raise ValueError(f"sessions disagree on capacity: {capacities}")


def session_graph_from_selection(
    network: WirelessNetwork,
    forwarders: ForwarderSet,
    *,
    probabilities: Mapping[Link, float] | None = None,
) -> SessionGraph:
    """Build the optimization input from a node-selection result.

    ``probabilities`` may supply measured link qualities; the default uses
    the network's ground truth.  Only the selection's DAG links enter E —
    information flows strictly toward the destination, matching the
    paper's "each relay is closer to the destination than its
    predecessor" assumption.
    """
    prob: Dict[Link, float] = {}
    for (i, j) in forwarders.dag_links:
        if probabilities is not None:
            p = probabilities.get((i, j), 0.0)
        else:
            p = network.probability(i, j)
        if p > 0.0:
            prob[(i, j)] = float(p)
    links = tuple(sorted(prob))
    neighbors = {
        node: network.neighbors(node) & forwarders.nodes
        for node in forwarders.nodes
    }
    return SessionGraph(
        source=forwarders.source,
        destination=forwarders.destination,
        nodes=tuple(sorted(forwarders.nodes)),
        links=links,
        probability=prob,
        neighbors=neighbors,
        capacity=network.capacity,
    )


def session_graph_from_network(
    network: WirelessNetwork, source: int, destination: int
) -> SessionGraph:
    """Session graph over the *whole* network (no node selection).

    Useful for tiny hand-built topologies where every node is already a
    useful forwarder (the Fig. 1 sample, the diamond).
    """
    prob = {(i, j): p for i, j, p in network.links()}
    neighbors = {node: network.neighbors(node) for node in network.nodes()}
    return SessionGraph(
        source=source,
        destination=destination,
        nodes=tuple(network.nodes()),
        links=tuple(sorted(prob)),
        probability=prob,
        neighbors=neighbors,
        capacity=network.capacity,
    )
