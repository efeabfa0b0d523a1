"""SUB2 — broadcast/encoding rate allocation (paper Sec. 3.3).

Given the prices lambda_ij, SUB2 is

    max  sum_i w_i b_i,   w_i = sum_j lambda_ij p_ij
    s.t. b_i + sum_{j in N(i)} b_j <= C   for i in V \\ S           (4)

The paper relaxes (4) with congestion prices beta_i — "the congestion
price charged on node i for its violation of the channel capacity" —
updated by the subgradient rule (15):

    beta_i(t+1) = [beta_i(t) - theta(t) * (C - b_i - sum_j b_j)]^+

Because the inner Lagrangian (16) is linear in b, the paper adds a
proximal quadratic term -c * ||b - b(t)||^2 to make it strictly convex,
yielding the closed-form update (17):

    b_i(t+1) = clip( b_i(t) + (w_i - beta_i - sum_{j in N(i)} beta_j) / (2c),
                     0, C )

Finally primal recovery (18) averages the iterates.

Every quantity a node needs — its own w_i, its neighbors' beta_j and
b_j — travels one hop, which is why the paper calls the algorithm
distributed ("each node sends its rate and congestion price to its
neighbors").  The message-passing version lives in
:mod:`repro.optimization.messages`; this module is the numerical core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.optimization.problem import SessionGraph
from repro.optimization.recovery import IterateAverager
from repro.optimization.subgradient import project_nonnegative
from repro.topology.graph import Link


@dataclass(frozen=True)
class Sub2Iterate:
    """One SUB2 update: instantaneous rates and congestion prices."""

    rates: Dict[int, float]
    congestion_prices: Dict[int, float]
    worst_violation: float


class Sub2RateAllocator:
    """Stateful SUB2 solver with congestion pricing and primal recovery.

    State lives in flat vectors over ``graph.index`` (b per node index,
    beta per node index with the unconstrained source pinned at 0.0);
    the dict-keyed properties are views built on read.
    """

    def __init__(
        self,
        graph: SessionGraph,
        *,
        proximal_c: float = 0.5,
        initial_rate: float = 0.01,
        primal_recovery: bool = True,
        recovery_tail: float = 0.5,
        initial_rates: Dict[int, float] | None = None,
        initial_beta: Dict[int, float] | None = None,
    ) -> None:
        if proximal_c <= 0:
            raise ValueError(f"proximal_c must be > 0, got {proximal_c}")
        if not 0 <= initial_rate <= 1:
            raise ValueError(f"initial_rate must be in [0, 1], got {initial_rate}")
        self._graph = graph
        self._proximal_c = proximal_c
        self._primal_recovery = primal_recovery
        # "Set elements in b ... to small positive numbers. Initialize the
        # dual variables to 0." (Table 1, step 1.)  A warm re-plan instead
        # seeds b(t) / beta(t) from a previous run's final iterate (values
        # clipped back into the feasible box; missing nodes cold-start).
        warm_rates = initial_rates or {}
        warm_beta = initial_beta or {}
        self._rates: List[float] = [
            min(1.0, max(0.0, warm_rates.get(node, initial_rate)))
            for node in graph.nodes
        ]
        self._rates[graph.index.destination] = 0.0  # destination never broadcasts
        self._beta: List[float] = [0.0] * len(graph.nodes)
        for v in graph.index.mac_constrained:
            self._beta[v] = max(0.0, warm_beta.get(graph.nodes[v], 0.0))
        self._averager = IterateAverager(len(graph.nodes), tail=recovery_tail)
        self._worst = 0.0

    @property
    def iterations(self) -> int:
        """Number of SUB2 steps taken."""
        return self._averager.count

    @property
    def last_iterate(self) -> Sub2Iterate | None:
        """The most recent per-iteration solution."""
        return self._iterate() if self.iterations else None

    def _iterate(self) -> Sub2Iterate:
        return Sub2Iterate(
            rates=self.rates,
            congestion_prices=self.congestion_prices,
            worst_violation=self._worst,
        )

    @property
    def rate_vector(self) -> Sequence[float]:
        """b(t) per node index (live state — read only)."""
        return self._rates

    @property
    def beta_vector(self) -> Sequence[float]:
        """beta(t) per node index, 0.0 at the source (live — read only)."""
        return self._beta

    @property
    def rates(self) -> Dict[int, float]:
        """Current instantaneous broadcast rates b(t)."""
        return dict(zip(self._graph.nodes, self._rates))

    @property
    def congestion_prices(self) -> Dict[int, float]:
        """Current congestion prices beta(t) of the MAC-constrained nodes."""
        nodes = self._graph.nodes
        return {nodes[v]: self._beta[v] for v in self._graph.index.mac_constrained}

    def recovered_rate_vector(self) -> List[float]:
        """b_bar(t) per node index: averaged rates (eq. 18), or the latest
        rates when primal recovery is disabled (ablation)."""
        if self.iterations == 0 or not self._primal_recovery:
            return list(self._rates)
        return self._averager.average().tolist()

    @property
    def recovered_rates(self) -> Dict[int, float]:
        """b_bar(t) keyed by node; see :meth:`recovered_rate_vector`."""
        return dict(zip(self._graph.nodes, self.recovered_rate_vector()))

    def step(
        self,
        prices: Dict[Link, float],
        step_size: float,
        union_prices: Dict[int, float] | None = None,
    ) -> Sub2Iterate:
        """One synchronized SUB2 update from dict-keyed prices.

        Absent links and nodes are priced 0.0; see :meth:`update`.
        """
        graph = self._graph
        self.update(
            [prices.get(link, 0.0) for link in graph.links],
            step_size,
            [union_prices.get(node, 0.0) for node in graph.nodes]
            if union_prices
            else None,
        )
        return self._iterate()

    def update(
        self,
        prices: Sequence[float],
        step_size: float,
        union_prices: Sequence[float] | None = None,
    ) -> None:
        """One synchronized SUB2 update on index vectors.

        Order follows Table 1 step 4: update the primal variable b with
        (17), then the congestion price beta with (15), both from the
        previous iteration's neighbor values.

        ``prices`` holds lambda_ij per link index.  ``union_prices``
        carries the multipliers mu_i of the broadcast information
        constraint (5b) per node index; they enter the local coefficient
        as ``mu_i * q_i`` — the reward per unit of rate for carrying the
        node's aggregate outgoing flow.
        """
        if step_size <= 0:
            raise ValueError(f"step_size must be > 0, got {step_size}")
        graph = self._graph
        index = graph.index
        if min(prices, default=0.0) < 0:
            k = next(k for k, price in enumerate(prices) if price < 0)
            raise ValueError(f"negative price on link {graph.links[k]}: {prices[k]}")
        if union_prices is not None and min(union_prices, default=0.0) < 0:
            v = next(v for v, mu in enumerate(union_prices) if mu < 0)
            raise ValueError(
                f"negative union price on node {graph.nodes[v]}: {union_prices[v]}"
            )
        p, q = index.p, index.q
        neighbors = index.neighbors
        destination = index.destination
        old_rates = self._rates
        beta = self._beta
        scale = 2.0 * self._proximal_c

        # (17) proximal rate update, clipped to the loose bounds [0, C=1].
        # w_i = sum over outgoing links of lambda_ij * p_ij (+ mu_i * q_i).
        rates = list(old_rates)
        for v, out in enumerate(index.out_links):
            if v == destination:
                continue
            weight = 0.0
            for k in out:
                weight += prices[k] * p[k]
            if union_prices is not None and union_prices[v]:
                weight += union_prices[v] * q[v]
            charge = 0.0
            for j in neighbors[v]:
                charge += beta[j]
            gradient = weight - (beta[v] + charge)
            updated = old_rates[v] + gradient / scale
            rates[v] = min(1.0, max(0.0, updated))
        self._rates = rates

        # (15) congestion price update from the *new* rates' slack.
        worst = 0.0
        for v in index.mac_constrained:
            load = 0.0
            for j in neighbors[v]:
                load += rates[j]
            slack = 1.0 - (rates[v] + load)
            worst = max(worst, max(0.0, -slack))
            beta[v] = project_nonnegative(beta[v] - step_size * slack)
        self._worst = worst

        self._averager.push(np.array(rates))
