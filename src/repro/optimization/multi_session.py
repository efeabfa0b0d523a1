"""Multiple-unicast extension of the OMNC framework.

The paper's conclusion notes the rate control framework "can be flexibly
extended to other scenarios such as the multiple-unicast case".  This
module carries that extension out:

* each session s keeps its own flow variables x^s, broadcast rates b^s
  and loss-coupling multipliers lambda^s — SUB1 runs per session,
  unchanged;
* sessions are coupled only through the broadcast MAC constraint, which
  now charges the *total* neighborhood load:

      sum_s ( b_i^s + sum_{j in N(i)} b_j^s ) <= C     for i not a source

* the objective becomes sum_s ln(gamma_s) — proportional fairness across
  sessions, the natural generalization of the single-session ln-utility.

The decomposition structure survives intact: one congestion price beta_i
per node prices the shared constraint, and each session's SUB2 update
simply charges its own rates with the shared prices.  The centralized
reference optimum (:func:`solve_multi_sunicast`) maximizes the *sum of
throughputs* subject to the shared MAC constraint, providing an upper
envelope for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.optimization.problem import SessionGraph
from repro.optimization.rate_control import RateControlConfig, net_source_flow
from repro.optimization.recovery import IterateAverager
from repro.optimization.sub1_routing import Sub1Router
from repro.optimization.subgradient import project_nonnegative
from repro.topology.graph import Link


@dataclass(frozen=True)
class MultiSessionResult:
    """Joint allocation for several coexisting unicast sessions.

    Attributes:
        throughputs: recovered gamma_bar per session (normalized).
        broadcast_rates: recovered b_bar per session, keyed by node.
        flows: recovered x_bar per session, keyed by link.
        iterations: outer iterations executed.
        converged: whether the stopping rule fired.
    """

    throughputs: Tuple[float, ...]
    broadcast_rates: Tuple[Dict[int, float], ...]
    flows: Tuple[Dict[Link, float], ...]
    iterations: int
    converged: bool

    @property
    def total_throughput(self) -> float:
        """Sum of session throughputs (normalized)."""
        return float(sum(self.throughputs))


class MultiSessionRateControl:
    """Jointly allocate rates to several sessions on one network.

    All session graphs must share the same capacity (they describe the
    same channel).  Node ids are global, so the shared congestion price
    beta_i is well defined across sessions: it lives in one vector over
    the sorted union of the sessions' nodes, and each session reaches it
    through a node-index -> shared-slot table.
    """

    def __init__(
        self,
        graphs: Sequence[SessionGraph],
        config: RateControlConfig | None = None,
    ) -> None:
        if not graphs:
            raise ValueError("at least one session is required")
        capacities = {g.capacity for g in graphs}
        if len(capacities) != 1:
            raise ValueError(f"sessions disagree on capacity: {capacities}")
        self._graphs = list(graphs)
        self._config = config or RateControlConfig()
        self._routers = [
            Sub1Router(
                g,
                gamma_cap=self._config.gamma_cap,
                primal_recovery=self._config.primal_recovery,
                recovery_tail=self._config.recovery_tail,
            )
            for g in self._graphs
        ]
        # Per session: lambda per link index, mu and b per node index.
        self._prices: List[List[float]] = [[0.0] * len(g.links) for g in self._graphs]
        self._union_prices: List[List[float]] = [
            [0.0] * len(g.nodes) for g in self._graphs
        ]
        self._rates: List[List[float]] = []
        for g in self._graphs:
            rates = [self._config.initial_rate] * len(g.nodes)
            rates[g.index.destination] = 0.0
            self._rates.append(rates)
        # Shared congestion prices: a slot per node of any session, moved
        # only where the node is MAC-constrained in at least one of them
        # (a node that is the source of every session it joins stays 0.0).
        shared = sorted({node for g in self._graphs for node in g.nodes})
        slot_of = {node: slot for slot, node in enumerate(shared)}
        self._beta: List[float] = [0.0] * len(shared)
        self._slots = [[slot_of[node] for node in g.nodes] for g in self._graphs]
        constrained = sorted(
            {node for g in self._graphs for node in g.mac_constrained_nodes()}
        )
        # Per constrained node: its shared slot and, for every session that
        # includes it (in session order), its index and neighbors there.
        self._constrained: List[Tuple[int, List[Tuple[int, int, Tuple[int, ...]]]]] = []
        for node in constrained:
            members = []
            for s, g in enumerate(self._graphs):
                v = g.index.node_index.get(node)
                if v is not None:
                    members.append((s, v, g.index.neighbors[v]))
            self._constrained.append((slot_of[node], members))
        self._rate_averagers = [
            IterateAverager(len(g.nodes), tail=self._config.recovery_tail)
            for g in self._graphs
        ]
        self._iteration = 0

    @property
    def iteration(self) -> int:
        """Outer iterations executed."""
        return self._iteration

    def step(self) -> None:
        """One joint iteration: per-session SUB1/SUB2, shared beta."""
        theta = self._config.step_size(self._iteration)
        beta = self._beta
        scale = 2.0 * self._config.proximal_c
        session_flows = []
        for router, prices, mus, g in zip(
            self._routers, self._prices, self._union_prices, self._graphs
        ):
            tail = g.index.tail
            session_flows.append(
                router.route([prices[k] + mus[tail[k]] for k in range(len(prices))])
            )
        # Per-session proximal rate updates against the shared prices.
        for s, g in enumerate(self._graphs):
            index = g.index
            prices, mus, slots = self._prices[s], self._union_prices[s], self._slots[s]
            old = self._rates[s]
            rates = list(old)
            for v, out in enumerate(index.out_links):
                if v == index.destination:
                    continue
                weight = 0.0
                for k in out:
                    weight += prices[k] * index.p[k]
                if mus[v]:
                    weight += mus[v] * index.q[v]
                charge = 0.0
                for j in index.neighbors[v]:
                    charge += beta[slots[j]]
                updated = old[v] + (weight - (beta[slots[v]] + charge)) / scale
                rates[v] = min(1.0, max(0.0, updated))
            self._rates[s] = rates
        # Shared congestion price update on total load: receiver i is
        # charged b_i plus its neighborhood's rates in every session.
        for slot, members in self._constrained:
            load = 0.0
            for s, v, neighbors in members:
                rates = self._rates[s]
                load += rates[v]
                heard = 0.0
                for j in neighbors:
                    heard += rates[j]
                load += heard
            beta[slot] = project_nonnegative(beta[slot] - theta * (1.0 - load))
        # Per-session multiplier updates.
        for g, rates, prices, mus, flows in zip(
            self._graphs, self._rates, self._prices, self._union_prices, session_flows
        ):
            index = g.index
            for k, flow in enumerate(flows):
                surplus = rates[index.tail[k]] * index.p[k] - flow
                prices[k] = project_nonnegative(prices[k] - theta * surplus)
            for v in index.transmitters:
                outflow = 0.0
                for k in index.out_links[v]:
                    outflow += flows[k]
                surplus = rates[v] * index.q[v] - outflow
                mus[v] = project_nonnegative(mus[v] - theta * surplus)
        for rates, averager in zip(self._rates, self._rate_averagers):
            averager.push(np.array(rates))
        self._iteration += 1

    def run(self) -> MultiSessionResult:
        """Iterate to convergence of every session's recovered rates."""
        config = self._config
        stable = 0
        converged = False
        previous: List[List[float]] | None = None
        while self._iteration < config.max_iterations:
            self.step()
            recovered = self._recovered_rate_vectors()
            if previous is not None:
                delta = 0.0
                scale = 1e-9
                for rec, prev in zip(recovered, previous):
                    delta = max(delta, max(abs(b - a) for b, a in zip(rec, prev)))
                    scale = max(scale, max(rec))
                if delta / scale < config.tolerance:
                    stable += 1
                else:
                    stable = 0
                if self._iteration >= config.min_iterations and stable >= config.patience:
                    converged = True
                    break
            previous = recovered
        flows = [router.recovered_flow_vector() for router in self._routers]
        return MultiSessionResult(
            throughputs=tuple(
                net_source_flow(g, flow) for g, flow in zip(self._graphs, flows)
            ),
            broadcast_rates=tuple(
                dict(zip(g.nodes, rates))
                for g, rates in zip(self._graphs, self._recovered_rate_vectors())
            ),
            flows=tuple(dict(zip(g.links, flow)) for g, flow in zip(self._graphs, flows)),
            iterations=self._iteration,
            converged=converged,
        )

    def _recovered_rate_vectors(self) -> List[List[float]]:
        return [
            list(rates) if averager.count == 0 else averager.average().tolist()
            for averager, rates in zip(self._rate_averagers, self._rates)
        ]


@dataclass(frozen=True)
class MultiSunicastSolution:
    """Full centralized optimum of the shared-MAC multi-session LP.

    Attributes:
        total_throughput: sum of per-session normalized throughputs.
        throughputs: gamma_s per session (normalized).
        broadcast_rates: b^s per session, keyed by node (normalized).
        flows: x^s per session, keyed by link (normalized).
    """

    total_throughput: float
    throughputs: Tuple[float, ...]
    broadcast_rates: Tuple[Dict[int, float], ...]
    flows: Tuple[Dict[Link, float], ...]


def solve_multi_sunicast(
    graphs: Sequence[SessionGraph],
) -> Tuple[float, Tuple[float, ...]]:
    """Centralized reference: maximize total throughput across sessions.

    Returns ``(total, per_session)`` normalized throughputs under shared
    MAC constraints.  (The distributed algorithm optimizes the
    proportionally-fair sum of logs, so its total is at most this LP's.)
    See :func:`solve_multi_sunicast_detailed` for the full primal point.
    """
    solution = solve_multi_sunicast_detailed(graphs)
    return solution.total_throughput, solution.throughputs


def solve_multi_sunicast_detailed(
    graphs: Sequence[SessionGraph],
) -> MultiSunicastSolution:
    """Solve the shared-MAC LP and return rates and flows per session.

    The extra primal detail (b^s, x^s) is what a centralized
    multi-session *planner* needs: the rates feed the same
    repair/rescale pipeline as the single-session planners
    (:func:`repro.protocols.omnc.plan_omnc_multi`).  scipy is imported
    here, on first use (see :func:`repro.optimization.sunicast.solve_sunicast`).
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    if not graphs:
        raise ValueError("at least one session is required")
    # Column layout: per session [x | b | gamma], concatenated.
    offsets = []
    columns = 0
    link_indexes = []
    node_indexes = []
    gamma_indexes = []
    for g in graphs:
        link_index = {link: columns + k for k, link in enumerate(g.links)}
        columns += len(g.links)
        node_index = {node: columns + k for k, node in enumerate(g.nodes)}
        columns += len(g.nodes)
        gamma_indexes.append(columns)
        columns += 1
        link_indexes.append(link_index)
        node_indexes.append(node_index)
        offsets.append(columns)

    eq_rows: List[int] = []
    eq_cols: List[int] = []
    eq_vals: List[float] = []
    eq_rhs: List[float] = []
    ub_rows: List[int] = []
    ub_cols: List[int] = []
    ub_vals: List[float] = []
    ub_rhs: List[float] = []
    row = 0
    urow = 0
    for s, g in enumerate(graphs):
        for node in g.nodes:
            for link in g.out_links(node):
                eq_rows.append(row)
                eq_cols.append(link_indexes[s][link])
                eq_vals.append(1.0)
            for link in g.in_links(node):
                eq_rows.append(row)
                eq_cols.append(link_indexes[s][link])
                eq_vals.append(-1.0)
            sigma = g.supply(node)
            if sigma != 0:
                eq_rows.append(row)
                eq_cols.append(gamma_indexes[s])
                eq_vals.append(-float(sigma))
            eq_rhs.append(0.0)
            row += 1
        for link in g.links:
            i, _ = link
            ub_rows.append(urow)
            ub_cols.append(link_indexes[s][link])
            ub_vals.append(1.0)
            ub_rows.append(urow)
            ub_cols.append(node_indexes[s][i])
            ub_vals.append(-g.probability[link])
            ub_rhs.append(0.0)
            urow += 1
        # Broadcast information constraint (5b), per session transmitter.
        for node in g.transmitters():
            out = g.out_links(node)
            if not out:
                continue
            for link in out:
                ub_rows.append(urow)
                ub_cols.append(link_indexes[s][link])
                ub_vals.append(1.0)
            ub_rows.append(urow)
            ub_cols.append(node_indexes[s][node])
            ub_vals.append(-g.union_probability(node))
            ub_rhs.append(0.0)
            urow += 1
    # Shared MAC rows: for each node constrained in any session, sum the
    # neighborhood load over every session that includes it.
    constrained = sorted(
        {n for g in graphs for n in g.mac_constrained_nodes()}
    )
    for node in constrained:
        for s, g in enumerate(graphs):
            if node not in set(g.nodes):
                continue
            ub_rows.append(urow)
            ub_cols.append(node_indexes[s][node])
            ub_vals.append(1.0)
            for j in g.neighbors[node]:
                ub_rows.append(urow)
                ub_cols.append(node_indexes[s][j])
                ub_vals.append(1.0)
        ub_rhs.append(1.0)
        urow += 1

    cost = np.zeros(columns)
    for gamma_col in gamma_indexes:
        cost[gamma_col] = -1.0
    a_eq = csr_matrix((eq_vals, (eq_rows, eq_cols)), shape=(len(eq_rhs), columns))
    a_ub = csr_matrix((ub_vals, (ub_rows, ub_cols)), shape=(len(ub_rhs), columns))
    bounds = [(0.0, None)] * columns
    for s, g in enumerate(graphs):
        for node, col in node_indexes[s].items():
            bounds[col] = (0.0, 1.0)
    result = linprog(
        cost,
        A_ub=a_ub,
        b_ub=np.array(ub_rhs),
        A_eq=a_eq,
        b_eq=np.array(eq_rhs),
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        raise RuntimeError(f"multi-session LP failed: {result.message}")
    per_session = tuple(float(result.x[col]) for col in gamma_indexes)
    broadcast_rates = tuple(
        {node: float(result.x[col]) for node, col in node_indexes[s].items()}
        for s in range(len(graphs))
    )
    flows = tuple(
        {link: float(result.x[col]) for link, col in link_indexes[s].items()}
        for s in range(len(graphs))
    )
    return MultiSunicastSolution(
        total_throughput=float(sum(per_session)),
        throughputs=per_session,
        broadcast_rates=broadcast_rates,
        flows=flows,
    )
