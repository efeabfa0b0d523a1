"""The sUnicast linear program (paper Sec. 3.2), over N >= 1 sessions.

    maximize   gamma                                               (1)
    subject to sum_j x_ij - sum_j x_ji = gamma * sigma(i)          (2)
               x_ij >= 0                                           (3)
               b_i + sum_{j in N(i)} b_j <= C   for i in V \\ S     (4)
               b_i * p_ij >= x_ij                                  (5)
               0 <= b_i <= C

(The explicit bound b_i <= C is the "loose lower and upper bounds" the
paper adds for boundedness; it is implied by (4) for any node with a
neighbor.)

One assembler builds the program for N sessions of one network: each
session s keeps its own [x^s | b^s | gamma_s] columns, flow conservation
(2), loss coupling (5) and the broadcast information constraint (5b); the
MAC rows (4) are shared and charge the total neighborhood load
``sum_s (b_i^s + sum_{j in N(i)} b_j^s)``, and the objective is
``sum_s gamma_s``.  A single session is N = 1: :func:`solve_sunicast` is
that face, :func:`solve_multi_sunicast_detailed` the N-session one (the
conclusion's multiple-unicast extension; its distributed counterpart is
:class:`~repro.optimization.rate_control.RateControlLoop`).

The LP is solved centrally with scipy's HiGHS backend, imported on first
use: no emulated session, campaign or re-plan solves an LP (the planner
runs Table 1, and oldMORE's min-cost routing,
:func:`solve_min_cost_routing`, is a shortest path), so importing this
module does not load scipy.  The LP is the reference optimum the
distributed algorithm must approach, and the throughput prediction the
paper compares emulated results against ("the actual emulated throughput
of OMNC tends to be lower than the optimized throughput computed by the
sUnicast framework", Sec. 5).

All rates are capacity-normalized (C = 1); see
:mod:`repro.optimization.problem`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.optimization.problem import SessionGraph, check_joint_sessions
from repro.routing.shortest_path import dijkstra
from repro.topology.graph import Link


@dataclass(frozen=True)
class SUnicastSolution:
    """A solved rate allocation.

    Attributes:
        throughput: optimal gamma (normalized; multiply by capacity for
            bytes/second).
        flows: information rate x_ij per link (normalized).
        broadcast_rates: broadcast rate b_i per node (normalized).
        objective: raw objective value (equals throughput for sUnicast;
            total transmission cost for min-cost routing).
    """

    throughput: float
    flows: Dict[Link, float]
    broadcast_rates: Dict[int, float]
    objective: float

    def active_links(self, threshold: float = 1e-6) -> Tuple[Link, ...]:
        """Links carrying more than ``threshold`` normalized flow."""
        return tuple(
            sorted(link for link, x in self.flows.items() if x > threshold)
        )

    def active_nodes(self, threshold: float = 1e-6) -> Tuple[int, ...]:
        """Nodes with broadcast rate above ``threshold``."""
        return tuple(
            sorted(n for n, b in self.broadcast_rates.items() if b > threshold)
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


class InfeasibleSessionError(RuntimeError):
    """Raised when a session cannot carry any flow: its destination is
    unreachable from its source over the session graph's links."""


def solve_sunicast(
    graph: SessionGraph,
    *,
    broadcast_information: bool = True,
    mac_constraint: bool = True,
) -> SUnicastSolution:
    """Solve the throughput-maximization LP for one session.

    Returns normalized rates; raises :class:`InfeasibleSessionError` if
    the destination is unreachable from the source in ``graph``.

    ``broadcast_information=False`` drops constraint (5b), recovering the
    paper's original formulation exactly — its optimum counts one
    broadcast as independent flow to several receivers, so it is an upper
    bound that real coded streams cannot always realize (the ablation
    benchmark quantifies the gap).

    ``mac_constraint=False`` drops constraint (4) — the congestion-blind
    planning the paper attributes to MORE/oldMORE; the MAC-constraint
    ablation emulates the resulting over-subscribed rates to show the
    queue blow-up OMNC's rate control avoids.

    scipy is imported on first use: the first LP solved in a process pays
    that import (a few hundred ms) once.
    """
    solution = _solve_lp(
        [graph],
        broadcast_information=broadcast_information,
        mac_constraint=mac_constraint,
    )
    (gamma,) = solution.throughputs
    return SUnicastSolution(
        throughput=gamma,
        flows=solution.flows[0],
        broadcast_rates=solution.broadcast_rates[0],
        objective=gamma,
    )


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

    The sessions must share one capacity (``ValueError`` otherwise, as
    for :class:`~repro.optimization.rate_control.RateControlLoop`); a
    session whose destination is unreachable raises
    :class:`InfeasibleSessionError`.  The sum-throughput optimum may still
    give a reachable session gamma = 0.
    """
    return _solve_lp(graphs, broadcast_information=True, mac_constraint=True)


def _solve_lp(
    graphs: Sequence[SessionGraph],
    *,
    broadcast_information: bool,
    mac_constraint: bool,
) -> MultiSunicastSolution:
    """Assemble and solve the LP over ``graphs``; the one solver call."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    check_joint_sessions(graphs)
    for s, graph in enumerate(graphs):
        hops = dict.fromkeys(graph.links, 1.0)
        if graph.destination not in dijkstra(graph.nodes, hops, graph.source).distance:
            raise InfeasibleSessionError(
                f"session {s}: destination {graph.destination} is unreachable "
                f"from source {graph.source} in the session graph"
            )
    # Column layout: per session [x per link | b per node | gamma].
    starts: List[int] = []
    columns = 0
    for graph in graphs:
        starts.append(columns)
        columns += len(graph.links) + len(graph.nodes) + 1
    eq_rows: List[int] = []
    eq_cols: List[int] = []
    eq_vals: List[float] = []
    eq_rhs: List[float] = []
    ub_rows: List[int] = []
    ub_cols: List[int] = []
    ub_vals: List[float] = []
    ub_rhs: List[float] = []

    def ub_row(entries: List[Tuple[int, float]], rhs: float) -> None:
        row = len(ub_rhs)
        for col, value in entries:
            ub_rows.append(row)
            ub_cols.append(col)
            ub_vals.append(value)
        ub_rhs.append(rhs)

    for graph, x in zip(graphs, starts):
        index = graph.index
        b = x + len(graph.links)
        gamma = b + len(graph.nodes)
        # Flow conservation (2): one row per node.
        for v in range(len(graph.nodes)):
            row = len(eq_rhs)
            for k in index.out_links[v]:
                eq_rows.append(row)
                eq_cols.append(x + k)
                eq_vals.append(1.0)
            for k in index.in_links[v]:
                eq_rows.append(row)
                eq_cols.append(x + k)
                eq_vals.append(-1.0)
            sigma = graph.supply(graph.nodes[v])
            if sigma != 0:
                eq_rows.append(row)
                eq_cols.append(gamma)
                eq_vals.append(-float(sigma))
            eq_rhs.append(0.0)
        # Loss coupling (5): x_ij - b_i * p_ij <= 0.
        for k, (tail, p) in enumerate(zip(index.tail, index.p)):
            ub_row([(x + k, 1.0), (b + tail, -p)], 0.0)
        # Broadcast information constraint (5b): sum_j x_ij <= b_i * q_i
        # with q_i = 1 - prod_j (1 - p_ij).  One transmission carries at
        # most one new information unit network-wide, so a node's total
        # outgoing *distinct* flow is capped by its rate times the
        # probability that at least one downstream node hears it — the
        # hyperarc capacity of Lun et al. [17].  The paper's per-link (5)
        # alone lets the LP count one broadcast as independent flow to
        # several receivers, which random linear coding cannot realize for
        # a single unicast; see DESIGN.md.
        if broadcast_information:
            for v in index.transmitters:
                entries = [(x + k, 1.0) for k in index.out_links[v]]
                ub_row(entries + [(b + v, -index.q[v])], 0.0)
    # Broadcast MAC (4), shared: for each node constrained in any session,
    # b_i + sum_{j in N(i)} b_j summed over every session that includes it.
    if mac_constraint:
        constrained = sorted({n for g in graphs for n in g.mac_constrained_nodes()})
        for node in constrained:
            load: List[Tuple[int, float]] = []
            for graph, x in zip(graphs, starts):
                v = graph.index.node_index.get(node)
                if v is None:
                    continue
                b = x + len(graph.links)
                load.append((b + v, 1.0))
                load.extend((b + j, 1.0) for j in graph.index.neighbors[v])
            ub_row(load, 1.0)

    cost = np.zeros(columns)
    bounds: List[Tuple[float, float | None]] = [(0.0, None)] * columns
    for graph, x in zip(graphs, starts):
        b = x + len(graph.links)
        bounds[b : b + len(graph.nodes)] = [(0.0, 1.0)] * len(graph.nodes)
        cost[b + len(graph.nodes)] = -1.0  # maximize sum_s gamma_s
    result = linprog(
        cost,
        A_ub=csr_matrix((ub_vals, (ub_rows, ub_cols)), shape=(len(ub_rhs), columns)),
        b_ub=np.array(ub_rhs),
        A_eq=csr_matrix((eq_vals, (eq_rows, eq_cols)), shape=(len(eq_rhs), columns)),
        b_eq=np.array(eq_rhs),
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        raise InfeasibleSessionError(f"sUnicast LP failed: {result.message}")
    values: List[float] = result.x.tolist()
    flows: List[Dict[Link, float]] = []
    rates: List[Dict[int, float]] = []
    throughputs: List[float] = []
    for graph, x in zip(graphs, starts):
        b = x + len(graph.links)
        gamma = b + len(graph.nodes)
        flows.append(dict(zip(graph.links, values[x:b])))
        rates.append(dict(zip(graph.nodes, values[b:gamma])))
        throughputs.append(values[gamma])
    return MultiSunicastSolution(
        total_throughput=float(sum(throughputs)),
        throughputs=tuple(throughputs),
        broadcast_rates=tuple(rates),
        flows=tuple(flows),
    )


def solve_min_cost_routing(
    graph: SessionGraph, *, throughput: float = 1e-3
) -> SUnicastSolution:
    """Min-cost with store-and-forward transmission-count semantics.

    Minimize ``sum_ij x_ij / p_ij`` — each unit of flow on link (i, j)
    pays its full expected transmission count, with no broadcast sharing
    between sibling links.  This is the compression of the Lun et al.
    min-cost formulation that the preliminary MORE applied in practice;
    its optimum concentrates on the cheapest (ETX-shortest) routes, which
    reproduces the paper's observation that oldMORE "tends to prune a
    large number of nodes associated with low quality links, and fails to
    explore path diversity" (Fig. 4).

    The only constraints are flow conservation and ``x >= 0``: an
    uncapacitated min-cost flow, whose optimum sends the whole flow down
    a shortest route at weight ``1 / p_ij``.  It is computed as that —
    one Dijkstra from the source, no LP (DESIGN.md, deviation 5).  Among
    equal-cost routes the one :func:`~repro.routing.shortest_path.dijkstra`
    settles first carries everything (``(distance, node id)`` pop order,
    strict ``<`` on relaxation); an LP solver could return any convex
    combination of them.  Unused links carry ``0.0``, never ``-0.0``.

    The returned ``broadcast_rates`` hold each node's transmission rate
    z_i = sum_j x_ij / p_ij (unnormalized by throughput); ``objective``
    is ``throughput`` times the destination's distance.  Raises
    :class:`InfeasibleSessionError` when the destination is unreachable.
    """
    if throughput <= 0:
        raise ValueError(f"throughput must be > 0, got {throughput}")
    tree = dijkstra(
        graph.nodes,
        {link: 1.0 / graph.probability[link] for link in graph.links},
        graph.source,
    )
    path = tree.path_to(graph.destination)
    if path is None:
        raise InfeasibleSessionError(
            f"destination {graph.destination} is unreachable from source "
            f"{graph.source} in the session graph"
        )
    route = set(zip(path, path[1:]))
    flows = {link: throughput if link in route else 0.0 for link in graph.links}
    rates: Dict[int, float] = {node: 0.0 for node in graph.nodes}
    for link, x in flows.items():
        rates[link[0]] += x / graph.probability[link]
    return SUnicastSolution(
        throughput=throughput,
        flows=flows,
        broadcast_rates=rates,
        objective=throughput * tree.distance[graph.destination],
    )


def verify_feasibility(
    graph: SessionGraph,
    solution: SUnicastSolution,
    *,
    tolerance: float = 1e-6,
) -> Dict[str, float]:
    """Measure constraint violations of a rate allocation.

    Returns the worst violation per constraint family (0 when satisfied);
    used by tests and by the primal-recovery convergence checks.
    """
    worst_flow = 0.0
    for node in graph.nodes:
        outflow = sum(solution.flows.get(l, 0.0) for l in graph.out_links(node))
        inflow = sum(solution.flows.get(l, 0.0) for l in graph.in_links(node))
        expected = graph.supply(node) * solution.throughput
        worst_flow = max(worst_flow, abs(outflow - inflow - expected))
    worst_loss = 0.0
    for link in graph.links:
        i, _ = link
        slack = (
            solution.broadcast_rates.get(i, 0.0) * graph.probability[link]
            - solution.flows.get(link, 0.0)
        )
        worst_loss = max(worst_loss, max(0.0, -slack))
    worst_union = 0.0
    for node in graph.transmitters():
        outflow = sum(
            solution.flows.get(link, 0.0) for link in graph.out_links(node)
        )
        slack = (
            solution.broadcast_rates.get(node, 0.0)
            * graph.union_probability(node)
            - outflow
        )
        worst_union = max(worst_union, max(0.0, -slack))
    worst_mac = 0.0
    for node in graph.mac_constrained_nodes():
        load = solution.broadcast_rates.get(node, 0.0) + sum(
            solution.broadcast_rates.get(j, 0.0) for j in graph.neighbors[node]
        )
        worst_mac = max(worst_mac, max(0.0, load - 1.0))
    return {
        "flow_conservation": worst_flow if worst_flow > tolerance else 0.0,
        "loss_coupling": worst_loss if worst_loss > tolerance else 0.0,
        "broadcast_information": worst_union if worst_union > tolerance else 0.0,
        "mac": worst_mac if worst_mac > tolerance else 0.0,
    }
