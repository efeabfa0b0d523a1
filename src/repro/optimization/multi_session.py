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
from repro.optimization.rate_control import (
    RateControlConfig,
    RateControlLoop,
    net_source_flow,
)
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


class MultiSessionRateControl(RateControlLoop):
    """Jointly allocate rates to several sessions on one network:
    :class:`~repro.optimization.rate_control.RateControlLoop` over them.

    All session graphs must share the same capacity (they describe the
    same channel).  Node ids are global, so the shared congestion price
    beta_i is well defined across sessions.
    """

    def __init__(
        self,
        graphs: Sequence[SessionGraph],
        config: RateControlConfig | None = None,
    ) -> None:
        super().__init__(graphs, config)

    def run(self) -> MultiSessionResult:
        """Iterate to convergence of every session's recovered rates."""
        converged = self._converge()
        flows = [router.recovered_flow_vector() for router in self._routers]
        return MultiSessionResult(
            throughputs=tuple(
                net_source_flow(g, flow) for g, flow in zip(self._graphs, flows)
            ),
            broadcast_rates=tuple(
                dict(zip(g.nodes, self._recovered_rates(s)))
                for s, g in enumerate(self._graphs)
            ),
            flows=tuple(dict(zip(g.links, flow)) for g, flow in zip(self._graphs, flows)),
            iterations=self._iteration,
            converged=converged,
        )


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
