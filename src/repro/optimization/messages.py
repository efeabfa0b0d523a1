"""Message-passing execution of the distributed rate control algorithm.

:class:`RateControlAlgorithm` computes Table 1 with global visibility for
speed.  This module re-executes the same algorithm as genuinely local
node programs exchanging messages, demonstrating the paper's
distributedness claim and *counting the messages*, which backs the
paper's overhead discussion: "Beside the shortest path algorithm, the
only step that needs message passing is in equation (15) and (17), where
each node sends its rate and congestion price to its neighbors."

Per outer iteration:

1. **SUB1** — a distance-vector (Bellman-Ford) exchange over the link
   costs lambda_ij computes every node's cheapest route to the
   destination; the source then launches a flow-setup token that walks
   the shortest path, letting each on-path transmitter learn its x_ij.
   Every node-to-neighbor distance advertisement counts as one message.
2. **SUB2** — every node broadcasts (b_i, beta_i) to its neighbors: one
   message per node per iteration (a single local broadcast reaches all
   neighbors under the broadcast MAC).
3. **lambda update** — local at the transmitter: it knows b_i, p_ij and
   learns x_ij from the flow token.

Numerically the node programs apply the identical update formulas, so
the recovered allocation matches :class:`RateControlAlgorithm` up to
shortest-path tie-breaking (ties between equal-cost paths may resolve
differently; tests assert agreement of throughput and rates, not of
paths).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.optimization.problem import SessionGraph
from repro.optimization.rate_control import (
    RateControlConfig,
    RateControlDuals,
    RateControlResult,
    net_source_flow,
)
from repro.optimization.recovery import IterateAverager
from repro.optimization.subgradient import project_nonnegative
from repro.topology.graph import Link

_INF = float("inf")


@dataclass
class MessageStats:
    """Counts of protocol messages exchanged, by purpose."""

    distance_advertisements: int = 0
    flow_setup_tokens: int = 0
    rate_price_broadcasts: int = 0

    @property
    def total(self) -> int:
        """All messages across purposes."""
        return (
            self.distance_advertisements
            + self.flow_setup_tokens
            + self.rate_price_broadcasts
        )


class MessagePassingRateControl:
    """Run Table 1 as local node programs over simulated messages.

    Every node program's state is one slot, at the node's index, of the
    vectors below (``graph.index`` order); a transmitter additionally
    owns the multipliers and flow assignments of its out-links.  A node
    only ever reads its own slots and what its neighbors' broadcasts
    delivered to it.
    """

    def __init__(
        self,
        graph: SessionGraph,
        config: RateControlConfig | None = None,
    ) -> None:
        self._graph = graph
        self._config = config or RateControlConfig()
        self._stats = MessageStats()
        self._iteration = 0
        index = graph.index
        count = len(graph.nodes)
        # b_i and beta_i, broadcast to the neighbors every iteration.
        self._rates: List[float] = [self._config.initial_rate] * count
        self._rates[index.destination] = 0.0
        self._beta: List[float] = [0.0] * count
        # lambda_ij and the last x_ij learned from the flow-setup token,
        # owned by the link's transmitter.
        self._prices: List[float] = [0.0] * len(graph.links)
        self._flows: List[float] = [0.0] * len(graph.links)
        # Broadcast-information multiplier mu_i of constraint (5b) — also
        # owned locally: its subgradient b_i q_i - sum_j x_ij uses only
        # quantities the transmitter already knows.
        self._union_prices: List[float] = [0.0] * count
        # Distance-vector state for SUB1: cost to the destination and the
        # out-link taken toward it.
        self._distance: List[float] = [_INF] * count
        self._next_link: List[int] = [-1] * count
        # Whose (b, beta) broadcasts node i receives: the j in N(i) with
        # i in N(j), in N(i) order.
        self._heard = [
            tuple(j for j in members if v in index.neighbors[j])
            for v, members in enumerate(index.neighbors)
        ]
        self._flow_averager = IterateAverager(
            len(graph.links), tail=self._config.recovery_tail
        )
        self._rate_averager = IterateAverager(
            count, tail=self._config.recovery_tail
        )
        self._rate_history: List[Dict[int, float]] = []
        self._gamma_history: List[float] = []

    @property
    def stats(self) -> MessageStats:
        """Messages exchanged so far."""
        return self._stats

    @property
    def iteration(self) -> int:
        """Outer iterations executed."""
        return self._iteration

    # ------------------------------------------------------------------
    # Phases of one outer iteration
    # ------------------------------------------------------------------
    def _sub1_distance_exchange(self) -> None:
        """Distributed Bellman-Ford on the current lambda costs."""
        index = self._graph.index
        tail, head = index.tail, index.head
        count = len(self._distance)
        # What transmitter i charges for link (i, j): lambda_ij + mu_i.
        costs = [
            price + self._union_prices[tail[k]]
            for k, price in enumerate(self._prices)
        ]
        distance = [_INF] * count
        next_link = [-1] * count
        distance[index.destination] = 0.0
        # Synchronous rounds; each round every node advertises its current
        # distance to neighbors (one broadcast = one message per node that
        # has a finite distance).
        for _ in range(count):
            changed = False
            snapshot = list(distance)
            self._stats.distance_advertisements += count - snapshot.count(_INF)
            for k, cost in enumerate(costs):
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
        self._distance = distance
        self._next_link = next_link

    def _sub1_flow_setup(self) -> None:
        """Walk the flow-setup token from source to destination."""
        index = self._graph.index
        path_cost = self._distance[index.source]
        if path_cost == _INF:
            raise RuntimeError("destination unreachable in session graph")
        cap = self._config.gamma_cap
        gamma = cap if path_cost <= 1.0 / cap else 1.0 / path_cost
        # Nodes record their own outgoing assignment; off-path links are 0.
        flows = [0.0] * len(self._flows)
        v = index.source
        visited = {v}
        while v != index.destination:
            k = self._next_link[v]
            v = index.head[k]
            assert k >= 0 and v not in visited
            flows[k] = gamma
            self._stats.flow_setup_tokens += 1
            visited.add(v)
        self._flows = flows

    def _sub2_exchange_and_update(self, theta: float) -> None:
        """(17) rate update and (15) price update from neighbor messages."""
        index = self._graph.index
        p, q = index.p, index.q
        heard = self._heard
        count = len(self._rates)
        # Everyone broadcasts (b, beta) once; neighbors capture it.
        self._stats.rate_price_broadcasts += count
        # (17): proximal ascent on the local Lagrangian coefficient.
        old_rates, beta = self._rates, self._beta
        prices, union_prices = self._prices, self._union_prices
        scale = 2.0 * self._config.proximal_c
        rates = [0.0] * count
        for v, out in enumerate(index.out_links):
            if v == index.destination:
                continue
            weight = 0.0
            for k in out:
                weight += prices[k] * p[k]
            if out:
                weight += union_prices[v] * q[v]
            charge = 0.0
            for j in heard[v]:
                charge += beta[j]
            updated = old_rates[v] + (weight - (beta[v] + charge)) / scale
            rates[v] = min(1.0, max(0.0, updated))
        self._rates = rates
        # A second (b) exchange so beta sees this iteration's rates, as in
        # the reference implementation's update order.
        self._stats.rate_price_broadcasts += count
        # (15): congestion price from the neighborhood load.
        for v in index.mac_constrained:
            load = 0.0
            for j in heard[v]:
                load += rates[j]
            beta[v] = project_nonnegative(
                beta[v] - theta * (1.0 - (rates[v] + load))
            )

    def _lambda_update(self, theta: float) -> None:
        """(8) plus the local (5b) multiplier: both at the transmitter."""
        index = self._graph.index
        prices, flows, rates = self._prices, self._flows, self._rates
        for v, out in enumerate(index.out_links):
            if not out:
                continue
            outflow = 0.0
            for k in out:
                surplus = rates[v] * index.p[k] - flows[k]
                prices[k] = project_nonnegative(prices[k] - theta * surplus)
                outflow += flows[k]
            surplus = rates[v] * index.q[v] - outflow
            self._union_prices[v] = project_nonnegative(
                self._union_prices[v] - theta * surplus
            )

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def step(self) -> None:
        """One outer iteration (Table 1 steps 3-5) over messages."""
        theta = self._config.step_size(self._iteration)
        self._sub1_distance_exchange()
        self._sub1_flow_setup()
        self._sub2_exchange_and_update(theta)
        self._lambda_update(theta)
        self._flow_averager.push(np.array(self._flows))
        self._rate_averager.push(np.array(self._rates))
        self._rate_history.append(self.recovered_rates())
        self._gamma_history.append(self._recovered_throughput())
        self._iteration += 1

    def _recovered_rate_vector(self) -> List[float]:
        if self._rate_averager.count == 0:
            return list(self._rates)
        return self._rate_averager.average().tolist()

    def recovered_rates(self) -> Dict[int, float]:
        """Current averaged broadcast rates."""
        return dict(zip(self._graph.nodes, self._recovered_rate_vector()))

    def recovered_flows(self) -> Dict[Link, float]:
        """Current averaged link flows."""
        return dict(zip(self._graph.links, self._flow_averager.average().tolist()))

    def _recovered_throughput(self) -> float:
        return net_source_flow(
            self._graph, self._flow_averager.average().tolist()
        )

    def run(self) -> RateControlResult:
        """Iterate to convergence; same stopping rule as the fast driver."""
        config = self._config
        graph = self._graph
        stable = 0
        converged = False
        previous: List[float] | None = None
        while self._iteration < config.max_iterations:
            self.step()
            recovered = self._recovered_rate_vector()
            if previous is not None:
                delta = max(abs(b - a) for b, a in zip(recovered, previous))
                scale = max(max(recovered), 1e-9)
                if delta / scale < config.tolerance:
                    stable += 1
                else:
                    stable = 0
                if self._iteration >= config.min_iterations and stable >= config.patience:
                    converged = True
                    break
            previous = recovered
        # Transmitter by transmitter, as each node would report its own.
        link_prices = {
            graph.links[k]: self._prices[k]
            for out in graph.index.out_links
            for k in out
        }
        return RateControlResult(
            broadcast_rates=self.recovered_rates(),
            flows=self.recovered_flows(),
            throughput=self._recovered_throughput(),
            iterations=self._iteration,
            converged=converged,
            rate_history=tuple(self._rate_history),
            gamma_history=tuple(self._gamma_history),
            capacity=graph.capacity,
            duals=RateControlDuals(
                link_prices=link_prices,
                congestion_prices=dict(zip(graph.nodes, self._beta)),
                union_prices=dict(zip(graph.nodes, self._union_prices)),
                rates=dict(zip(graph.nodes, self._rates)),
                iteration=self._iteration,
            ),
        )
