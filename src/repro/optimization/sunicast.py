"""The sUnicast linear program (paper Sec. 3.2) and its centralized solver.

    maximize   gamma                                               (1)
    subject to sum_j x_ij - sum_j x_ji = gamma * sigma(i)          (2)
               x_ij >= 0                                           (3)
               b_i + sum_{j in N(i)} b_j <= C   for i in V \\ S     (4)
               b_i * p_ij >= x_ij                                  (5)
               0 <= b_i <= C

(The explicit bound b_i <= C is the "loose lower and upper bounds" the
paper adds for boundedness; it is implied by (4) for any node with a
neighbor.)

The LP is solved centrally with scipy's HiGHS backend, imported by the
solver functions themselves: no emulated session, campaign or re-plan
solves an LP (the default planner is Table 1, and oldMORE's min-cost
routing, :func:`solve_min_cost_routing`, is a shortest path), so
importing this module does not load scipy.  It serves three
roles in this repository: the reference optimum that the distributed
algorithm must approach, the broadcast-shared min-cost ablation
(:func:`solve_min_cost`) reuses its matrix builder with a different
objective, and the throughput predictions the
paper compares emulated results against ("the actual emulated throughput
of OMNC tends to be lower than the optimized throughput computed by the
sUnicast framework", Sec. 5).

All rates are capacity-normalized (C = 1); see
:mod:`repro.optimization.problem`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from repro.optimization.problem import SessionGraph
from repro.routing.shortest_path import dijkstra
from repro.topology.graph import Link

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix


@dataclass(frozen=True)
class SUnicastSolution:
    """A solved rate allocation.

    Attributes:
        throughput: optimal gamma (normalized; multiply by capacity for
            bytes/second).
        flows: information rate x_ij per link (normalized).
        broadcast_rates: broadcast rate b_i per node (normalized).
        objective: raw objective value (equals throughput for sUnicast;
            total transmission cost for the min-cost variant).
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


class InfeasibleSessionError(RuntimeError):
    """Raised when the LP has no feasible rate allocation."""


def _index_variables(graph: SessionGraph) -> Tuple[Dict[Link, int], Dict[int, int], int]:
    """Column layout: [x per link | b per node | gamma]."""
    link_index = {link: k for k, link in enumerate(graph.links)}
    node_index = {
        node: len(link_index) + k for k, node in enumerate(graph.nodes)
    }
    gamma_index = len(link_index) + len(node_index)
    return link_index, node_index, gamma_index


def _build_constraints(
    graph: SessionGraph,
    link_index: Dict[Link, int],
    node_index: Dict[int, int],
    gamma_index: int,
    *,
    fixed_gamma: float | None = None,
    broadcast_information: bool = True,
    mac_constraint: bool = True,
) -> Tuple[csr_matrix, np.ndarray, csr_matrix, np.ndarray]:
    """Assemble (A_eq, b_eq, A_ub, b_ub) shared by both LP variants.

    With ``fixed_gamma`` the gamma column is removed from the equality
    system and moved to the right-hand side (min-cost mode).
    """
    from scipy.sparse import csr_matrix

    columns = gamma_index + 1
    eq_rows: List[int] = []
    eq_cols: List[int] = []
    eq_vals: List[float] = []
    eq_rhs: List[float] = []
    # Flow conservation (2): one row per node.
    for row, node in enumerate(graph.nodes):
        for link in graph.out_links(node):
            eq_rows.append(row)
            eq_cols.append(link_index[link])
            eq_vals.append(1.0)
        for link in graph.in_links(node):
            eq_rows.append(row)
            eq_cols.append(link_index[link])
            eq_vals.append(-1.0)
        sigma = graph.supply(node)
        if fixed_gamma is None:
            if sigma != 0:
                eq_rows.append(row)
                eq_cols.append(gamma_index)
                eq_vals.append(-float(sigma))
            eq_rhs.append(0.0)
        else:
            eq_rhs.append(float(sigma) * fixed_gamma)

    ub_rows: List[int] = []
    ub_cols: List[int] = []
    ub_vals: List[float] = []
    ub_rhs: List[float] = []
    row = 0
    # Loss coupling (5): x_ij - b_i * p_ij <= 0.
    for link in graph.links:
        i, _ = link
        ub_rows.append(row)
        ub_cols.append(link_index[link])
        ub_vals.append(1.0)
        ub_rows.append(row)
        ub_cols.append(node_index[i])
        ub_vals.append(-graph.probability[link])
        ub_rhs.append(0.0)
        row += 1
    # Broadcast information constraint (5b): sum_j x_ij <= b_i * q_i with
    # q_i = 1 - prod_j (1 - p_ij).  One transmission carries at most one
    # new information unit network-wide, so a node's total outgoing
    # *distinct* flow is capped by its rate times the probability that at
    # least one downstream node hears it — the hyperarc capacity of Lun
    # et al. [17].  The paper's per-link (5) alone lets the LP count one
    # broadcast as independent flow to several receivers, which random
    # linear coding cannot realize for a single unicast; see DESIGN.md.
    if broadcast_information:
        for node in graph.transmitters():
            out = graph.out_links(node)
            if not out:
                continue
            q = graph.union_probability(node)
            for link in out:
                ub_rows.append(row)
                ub_cols.append(link_index[link])
                ub_vals.append(1.0)
            ub_rows.append(row)
            ub_cols.append(node_index[node])
            ub_vals.append(-q)
            ub_rhs.append(0.0)
            row += 1
    # Broadcast MAC (4): b_i + sum_{j in N(i)} b_j <= 1 for i in V \ S.
    if mac_constraint:
        for node in graph.mac_constrained_nodes():
            ub_rows.append(row)
            ub_cols.append(node_index[node])
            ub_vals.append(1.0)
            for j in graph.neighbors[node]:
                ub_rows.append(row)
                ub_cols.append(node_index[j])
                ub_vals.append(1.0)
            ub_rhs.append(1.0)
            row += 1

    a_eq = csr_matrix(
        (eq_vals, (eq_rows, eq_cols)), shape=(len(eq_rhs), columns)
    )
    a_ub = csr_matrix(
        (ub_vals, (ub_rows, ub_cols)), shape=(len(ub_rhs), columns)
    )
    return a_eq, np.array(eq_rhs), a_ub, np.array(ub_rhs)


def solve_sunicast(
    graph: SessionGraph,
    *,
    broadcast_information: bool = True,
    mac_constraint: bool = True,
) -> SUnicastSolution:
    """Solve the throughput-maximization LP for one session.

    Returns normalized rates; raises :class:`InfeasibleSessionError` if no
    positive-throughput allocation exists (e.g. a disconnected session
    graph).

    ``broadcast_information=False`` drops constraint (5b), recovering the
    paper's original formulation exactly — its optimum counts one
    broadcast as independent flow to several receivers, so it is an upper
    bound that real coded streams cannot always realize (the ablation
    benchmark quantifies the gap).

    ``mac_constraint=False`` drops constraint (4) — the congestion-blind
    planning the paper attributes to MORE/oldMORE; the MAC-constraint
    ablation emulates the resulting over-subscribed rates to show the
    queue blow-up OMNC's rate control avoids.

    scipy is imported here, not with the module: the first LP solved in
    a process pays that import (a few hundred ms) once.
    """
    from scipy.optimize import linprog

    link_index, node_index, gamma_index = _index_variables(graph)
    a_eq, b_eq, a_ub, b_ub = _build_constraints(
        graph,
        link_index,
        node_index,
        gamma_index,
        broadcast_information=broadcast_information,
        mac_constraint=mac_constraint,
    )
    columns = gamma_index + 1
    cost = np.zeros(columns)
    cost[gamma_index] = -1.0  # maximize gamma
    bounds = [(0.0, None)] * len(link_index)
    bounds += [(0.0, 1.0)] * len(node_index)
    bounds += [(0.0, None)]
    result = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        raise InfeasibleSessionError(f"sUnicast LP failed: {result.message}")
    return _extract_solution(result.x, link_index, node_index, gamma_index)


def solve_min_cost(graph: SessionGraph, *, throughput: float = 1e-3) -> SUnicastSolution:
    """The oldMORE-style min-cost formulation (Lun et al. [17]).

    Minimize total broadcast rate sum_i b_i subject to delivering
    ``throughput`` units end-to-end under the same loss coupling (5) —
    but **without** the MAC constraint (4): the formulation "has no rate
    control mechanism and does not explore path diversity well" (Sec. 2).
    Because the objective charges every transmission, the optimum
    concentrates flow on the cheapest (highest-quality) paths, which is
    precisely the node/path-pruning behaviour Fig. 4 attributes to
    oldMORE.
    """
    from scipy.optimize import linprog

    if throughput <= 0:
        raise ValueError(f"throughput must be > 0, got {throughput}")
    link_index, node_index, gamma_index = _index_variables(graph)
    a_eq, b_eq, a_ub, b_ub = _build_constraints(
        graph, link_index, node_index, gamma_index, fixed_gamma=throughput
    )
    columns = gamma_index + 1
    # Drop the MAC rows: they are the last len(mac_constrained_nodes())
    # inequality rows appended by the builder.
    mac_rows = len(graph.mac_constrained_nodes())
    if mac_rows:
        a_ub = a_ub[: a_ub.shape[0] - mac_rows]
        b_ub = b_ub[: len(b_ub) - mac_rows]
    cost = np.zeros(columns)
    for node, col in node_index.items():
        cost[col] = 1.0  # minimize total broadcast rate
    bounds = [(0.0, None)] * len(link_index)
    bounds += [(0.0, None)] * len(node_index)  # no capacity cap either
    bounds += [(0.0, 0.0)]  # gamma column unused in min-cost mode
    result = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        raise InfeasibleSessionError(f"min-cost LP failed: {result.message}")
    solution = _extract_solution(result.x, link_index, node_index, gamma_index)
    return SUnicastSolution(
        throughput=throughput,
        flows=solution.flows,
        broadcast_rates=solution.broadcast_rates,
        objective=float(result.fun),
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
    explore path diversity" (Fig. 4).  Contrast with :func:`solve_min_cost`,
    whose per-link coupling shares one broadcast rate across sibling
    links and therefore spreads flow (the ablation benchmark compares the
    two).

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


def _extract_solution(
    x: np.ndarray,
    link_index: Dict[Link, int],
    node_index: Dict[int, int],
    gamma_index: int,
) -> SUnicastSolution:
    flows = {link: float(x[col]) for link, col in link_index.items()}
    rates = {node: float(x[col]) for node, col in node_index.items()}
    gamma = float(x[gamma_index])
    return SUnicastSolution(
        throughput=gamma, flows=flows, broadcast_rates=rates, objective=gamma
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
