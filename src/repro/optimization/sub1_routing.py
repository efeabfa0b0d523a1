"""SUB1 — the multipath opportunistic routing subproblem (paper Sec. 3.3).

Given the Lagrange prices lambda_ij on the relaxed loss-coupling
constraint, SUB1 is

    max  gamma - sum_ij lambda_ij x_ij     s.t. flow conservation, x >= 0.

The paper transforms the throughput objective into the strictly concave
utility U(gamma) = ln(gamma) (same optimizer), after which the x-part is
a plain shortest-path problem in the link costs lambda_ij: route
gamma = U'^{-1}(p_min) = 1 / p_min units along the cheapest path, where
p_min is the path cost (eq. 12).

Because the per-iteration solution uses a single path, the paper applies
*primal recovery* (Sherali & Choi): averaging the iterates (eq. 13)
yields a primal-optimal **multipath** allocation — single shortest paths
per iteration average into a genuine multipath rate assignment.  The
averaging implementation (including the tail refinement) lives in
:mod:`repro.optimization.recovery`.

Rates are capacity-normalized; gamma is clamped to ``gamma_cap`` (default
1.0 = the channel capacity) because early iterations have near-zero
prices and eq. 12 would otherwise demand unbounded flow.

Two routers find the path: :class:`Sub1Router` runs Dijkstra, and
:class:`DistanceVectorRouter` the distance-vector exchange a deployment
would run, counting its messages (:mod:`repro.optimization.messages`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Sequence, Tuple

import numpy as np

from repro.optimization.problem import SessionGraph
from repro.optimization.recovery import IterateAverager
from repro.topology.graph import Link

_INF = float("inf")


@dataclass(frozen=True)
class Sub1Iterate:
    """One SUB1 solution: the chosen path and the injected rate."""

    path: Tuple[int, ...]
    path_cost: float
    gamma: float
    flows: Dict[Link, float]


class Sub1Router:
    """Stateful SUB1 solver with primal recovery.

    One :meth:`route` (or its dict-keyed adapter :meth:`step`) per outer
    iteration of the rate-control algorithm.  :attr:`recovered_flows`
    and :attr:`recovered_gamma` expose the averaged allocation of
    eq. (13).  A subclass swaps how the path is found by overriding
    :meth:`_shortest_path` (the message census runs a distance-vector
    exchange, :mod:`repro.optimization.messages`).
    """

    #: The compiled loop's name for this class's :meth:`_shortest_path`
    #: (:mod:`repro.optimization.native`); read off the class itself, so a
    #: subclass that does not set it again keeps the loop in Python.
    compiled_route: ClassVar[str] = "dijkstra"

    def __init__(
        self,
        graph: SessionGraph,
        *,
        gamma_cap: float = 1.0,
        primal_recovery: bool = True,
        recovery_tail: float = 0.5,
    ) -> None:
        if gamma_cap <= 0:
            raise ValueError(f"gamma_cap must be > 0, got {gamma_cap}")
        self._graph = graph
        self._gamma_cap = gamma_cap
        self._primal_recovery = primal_recovery
        self._averager = IterateAverager(len(graph.links), tail=recovery_tail)
        self._gamma_averager = IterateAverager(1, tail=recovery_tail)
        # The latest solution: path as link indices, its cost, gamma, x(t).
        self._last_path: List[int] = []
        self._last_cost = 0.0
        self._last_gamma = 0.0
        self._last_flows = [0.0] * len(graph.links)

    @property
    def iterations(self) -> int:
        """Number of SUB1 steps taken."""
        return self._averager.count

    @property
    def gamma_cap(self) -> float:
        """The cap on gamma per iteration."""
        return self._gamma_cap

    @property
    def primal_recovery(self) -> bool:
        """Whether flows are averaged (eq. 13) or read off the last step."""
        return self._primal_recovery

    @property
    def recovery_tail(self) -> float:
        """Fraction of recent iterates the flow average keeps."""
        return self._averager.tail

    @property
    def last_iterate(self) -> Sub1Iterate | None:
        """The most recent per-iteration solution."""
        return self._iterate() if self.iterations else None

    def _iterate(self) -> Sub1Iterate:
        links = self._graph.links
        return Sub1Iterate(
            path=(self._graph.source, *(links[k][1] for k in self._last_path)),
            path_cost=self._last_cost,
            gamma=self._last_gamma,
            flows=dict(zip(links, self._last_flows)),
        )

    def recovered_flow_vector(self) -> List[float]:
        """x_bar(t) per link index: averaged link flows (eq. 13).

        With ``primal_recovery=False`` (ablation) returns the latest
        instantaneous flows instead.
        """
        if self.iterations == 0 or not self._primal_recovery:
            return list(self._last_flows)
        return self._averager.average().tolist()

    @property
    def recovered_flows(self) -> Dict[Link, float]:
        """x_bar(t) keyed by link; see :meth:`recovered_flow_vector`."""
        return dict(zip(self._graph.links, self.recovered_flow_vector()))

    @property
    def recovered_gamma(self) -> float:
        """gamma_bar(t): averaged injected rate."""
        if self.iterations == 0:
            return 0.0
        if not self._primal_recovery:
            return self._last_gamma
        return float(self._gamma_averager.average()[0])

    def reserve(self, extra: int) -> Tuple[np.ndarray, np.ndarray]:
        """The flow and gamma prefix-sum tables, with room for ``extra``
        more iterates (see :meth:`IterateAverager.reserve`)."""
        return self._averager.reserve(extra), self._gamma_averager.reserve(extra)

    def advance(self, rows: int, path: List[int], cost: float, gamma: float) -> None:
        """Absorb ``rows`` iterates a compiled loop wrote into the
        :meth:`reserve` tables; the last one routed ``gamma`` on ``path``
        (link indices) at ``cost``."""
        self._averager.advance(rows)
        self._gamma_averager.advance(rows)
        self._remember(path, cost, gamma)

    def step(self, prices: Dict[Link, float]) -> Sub1Iterate:
        """Solve SUB1 for dict-keyed prices (absent links cost 0.0).

        Raises:
            ValueError: if a price is negative or the destination is
                unreachable (cannot happen on a valid session graph).
        """
        self.route([prices.get(link, 0.0) for link in self._graph.links])
        return self._iterate()

    def route(self, weights: Sequence[float]) -> List[float]:
        """Solve SUB1 for the current prices and update the averages.

        ``weights`` holds one lambda_ij >= 0 per link index; the path
        comes from :meth:`_shortest_path`.

        Returns:
            The instantaneous flows x(t) per link index: gamma on the
            cheapest path, 0.0 elsewhere (not to be mutated).

        Raises:
            ValueError: if a price is negative or the destination is
                unreachable (cannot happen on a valid session graph).
        """
        graph = self._graph
        if min(weights, default=0.0) < 0:
            k = next(k for k, weight in enumerate(weights) if weight < 0)
            raise ValueError(f"negative price on link {graph.links[k]}: {weights[k]}")
        found = self._shortest_path(weights)
        if found is None:
            raise ValueError("destination unreachable in session graph")
        hops, path_cost = found
        gamma = self._gamma_from_cost(path_cost)
        flows = self._remember(hops, path_cost, gamma)
        self._averager.push(np.array(flows))
        self._gamma_averager.push(np.array([gamma]))
        return flows

    def _remember(self, path: List[int], cost: float, gamma: float) -> List[float]:
        """Keep one iterate as the latest: ``gamma`` on ``path``; its x(t)."""
        flows = [0.0] * len(self._graph.links)
        for k in path:
            flows[k] = gamma
        self._last_path = path
        self._last_cost = cost
        self._last_gamma = gamma
        self._last_flows = flows
        return flows

    def _shortest_path(
        self, weights: Sequence[float]
    ) -> Tuple[List[int], float] | None:
        """The cheapest source -> destination path as link indices, and
        its cost; None if the destination is unreachable.

        Dijkstra from the source: a heap of ``(distance, node id)``,
        out-links relaxed in link order on a strict improvement.  The
        search stops when the destination settles — settled labels never
        change, so its path is final.
        """
        graph = self._graph
        index = graph.index
        distance = [_INF] * len(graph.nodes)
        via = [-1] * len(graph.nodes)
        settled = [False] * len(graph.nodes)
        source, destination = index.source, index.destination
        distance[source] = 0.0
        heap: List[Tuple[float, int, int]] = [(0.0, graph.source, source)]
        adjacency = index.adjacency
        while heap:
            dist, _, u = heapq.heappop(heap)
            if settled[u]:
                continue
            if u == destination:
                break
            settled[u] = True
            for node, v, k in adjacency[u]:
                candidate = dist + weights[k]
                if candidate < distance[v]:
                    distance[v] = candidate
                    via[v] = k
                    heapq.heappush(heap, (candidate, node, v))
        path_cost = distance[destination]
        if path_cost == _INF:
            return None
        hops: List[int] = []
        v = destination
        while v != source:
            hops.append(via[v])
            v = index.tail[via[v]]
        hops.reverse()
        return hops, path_cost

    def _gamma_from_cost(self, path_cost: float) -> float:
        """gamma = U'^{-1}(p_min) = 1 / p_min for U = ln, capped.

        U'(gamma) = 1/gamma, so the stationarity condition
        d/dgamma [gamma * p_min - ln gamma] = 0 gives gamma = 1/p_min.
        """
        if path_cost <= 1.0 / self._gamma_cap:
            return self._gamma_cap
        return 1.0 / path_cost


class DistanceVectorRouter(Sub1Router):
    """SUB1 as node programs: distributed Bellman-Ford toward the
    destination, then a flow-setup token along the next hops.

    Synchronous rounds: each round every node with a finite distance
    advertises it (one message), and every node relaxes its out-links in
    link order against the previous round's snapshot, taking a link only
    on an improvement larger than 1e-15.  Rounds stop when nothing
    changes, after at most |V|.
    """

    compiled_route = "distance_vector"
    distance_advertisements = 0
    flow_setup_tokens = 0

    def _shortest_path(
        self, weights: Sequence[float]
    ) -> Tuple[List[int], float] | None:
        index = self._graph.index
        tail, head = index.tail, index.head
        count = len(self._graph.nodes)
        distance = [_INF] * count
        next_link = [-1] * count
        distance[index.destination] = 0.0
        for _ in range(count):
            changed = False
            snapshot = list(distance)
            self.distance_advertisements += count - snapshot.count(_INF)
            for k, cost in enumerate(weights):
                through = snapshot[head[k]]
                if through == _INF:
                    continue
                candidate = cost + through
                i = tail[k]
                if candidate < distance[i] - 1e-15:
                    distance[i] = candidate
                    next_link[i] = k
                    changed = True
            if not changed:
                break
        path_cost = distance[index.source]
        if path_cost == _INF:
            return None
        hops: List[int] = []
        v = index.source
        while v != index.destination:
            k = next_link[v]
            hops.append(k)
            v = head[k]
            assert len(hops) < count, "next hops loop"
        self.flow_setup_tokens += len(hops)
        return hops, path_cost
