"""The benchmark's reference mesh, a digest of a link table, replaced bodies.

Shared by the literal oracles of the topology-update path
(``test_pseudo_broadcast``, ``test_dynamics``, ``test_scenario``) and of
the routing layer (``test_node_selection``, ``test_protocols``): they pin
values on the very deployment ``adaptive_replan`` re-plans on.
:func:`min_cost_routing_lp` is what ``solve_min_cost_routing`` ran until
its closed form replaced it (``test_sunicast``, ``test_protocols``);
:func:`single_feasible_scaling` is what ``feasible_scaling`` ran before it
became ``multi_feasible_scaling`` over one graph (``test_rate_control``);
:func:`sunicast_lp` is what ``solve_sunicast`` ran before it became the
one-session case of the joint LP (``test_sunicast``).
:func:`etx_weights`, :func:`dijkstra_to_destination` and
:func:`select_forwarders_on_weights` are the weight-dict routing that
``etx_tree`` replaced (``test_shortest_path``, ``test_node_selection``,
``test_sunicast``).  :func:`canonical` is the structure whose ``repr``
``CampaignResult.digest`` hashed before it built that string directly
(``test_experiments``).
"""

import dataclasses
import hashlib
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.optimization.problem import SessionGraph
from repro.optimization.sunicast import InfeasibleSessionError, SUnicastSolution
from repro.routing.node_selection import (
    ForwarderSet,
    NodeSelectionError,
    _dag_links,
    _flood_decreasing,
    check_endpoints,
)
from repro.routing.shortest_path import ShortestPathResult, dijkstra
from repro.topology.graph import Link, WirelessNetwork
from repro.topology.phy import lossy_phy
from repro.topology.random_network import random_network
from repro.util.rng import RngFactory


# The endpoints the benchmark plans on the 120-node mesh: the ten
# ``adaptive_replan`` pairs, then both directions of the two
# ``exact_multisession`` exchanges.
PLANNED_PAIRS = (
    (93, 81), (98, 45), (114, 99), (13, 6), (50, 86),
    (21, 109), (118, 62), (92, 57), (92, 91), (67, 81),
    (78, 19), (19, 78), (88, 36), (36, 88),
)


def reference_mesh(nodes: int = 120) -> WirelessNetwork:
    """``nodes`` lossy nodes, as ``bench/inputs.py::reference_mesh`` builds them."""
    factory = RngFactory(2008)
    return random_network(
        nodes,
        phy=lossy_phy(rng=factory.derive("phy")),
        rng=factory.derive("topology"),
    )


def link_table_digest(network: WirelessNetwork) -> str:
    """SHA-256 over ``links()`` in iteration order, floats by ``repr``.

    Sensitive to link order (the drift draw order) and to the last bit
    of every probability.
    """
    digest = hashlib.sha256()
    for i, j, p in network.links():
        digest.update(f"{i},{j},{p!r};".encode())
    return digest.hexdigest()


def min_cost_routing_lp(
    graph: SessionGraph, *, throughput: float = 1e-3
) -> SUnicastSolution:
    """Minimize ``sum_ij x_ij / p_ij`` under flow conservation, on HiGHS.

    The body ``solve_min_cost_routing`` had before it became a shortest
    path, moved here unedited: the oracle of the closed form.  HiGHS may
    split the flow over equal-cost routes and leaves ``-0.0`` on unused
    links.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    if throughput <= 0:
        raise ValueError(f"throughput must be > 0, got {throughput}")
    link_index = {link: k for k, link in enumerate(graph.links)}
    columns = len(link_index)
    eq_rows: List[int] = []
    eq_cols: List[int] = []
    eq_vals: List[float] = []
    eq_rhs: List[float] = []
    for row, node in enumerate(graph.nodes):
        for link in graph.out_links(node):
            eq_rows.append(row)
            eq_cols.append(link_index[link])
            eq_vals.append(1.0)
        for link in graph.in_links(node):
            eq_rows.append(row)
            eq_cols.append(link_index[link])
            eq_vals.append(-1.0)
        eq_rhs.append(float(graph.supply(node)) * throughput)
    a_eq = csr_matrix(
        (eq_vals, (eq_rows, eq_cols)), shape=(len(eq_rhs), columns)
    )
    cost = np.zeros(columns)
    for link, col in link_index.items():
        cost[col] = 1.0 / graph.probability[link]
    result = linprog(
        cost,
        A_eq=a_eq,
        b_eq=np.array(eq_rhs),
        bounds=[(0.0, None)] * columns,
        method="highs",
    )
    if not result.success:
        raise InfeasibleSessionError(f"min-cost routing LP failed: {result.message}")
    flows = {link: float(result.x[col]) for link, col in link_index.items()}
    rates: Dict[int, float] = {node: 0.0 for node in graph.nodes}
    for link, x in flows.items():
        rates[link[0]] += x / graph.probability[link]
    return SUnicastSolution(
        throughput=throughput,
        flows=flows,
        broadcast_rates=rates,
        objective=float(result.fun),
    )


def single_feasible_scaling(
    graph: SessionGraph,
    rates: Dict[int, float],
    *,
    saturate: bool = False,
    max_scale_up: float = 2.0,
) -> Tuple[Dict[int, float], float]:
    """Rescale one session's rates against the MAC constraint (4).

    The body ``feasible_scaling`` had before it became
    ``multi_feasible_scaling`` over one graph, moved here unedited.
    """
    worst = 0.0
    for node in graph.mac_constrained_nodes():
        load = rates.get(node, 0.0) + sum(
            rates.get(j, 0.0) for j in graph.neighbors[node]
        )
        worst = max(worst, load)
    if worst <= 0.0:
        return dict(rates), 1.0
    if worst > 1.0:
        factor = worst
    elif saturate:
        factor = max(worst, 1.0 / max_scale_up)
    else:
        factor = 1.0
    if factor == 1.0:  # repro: ignore[RPR004] exact sentinel set above
        return dict(rates), 1.0
    return {n: min(1.0, b / factor) for n, b in rates.items()}, factor


def sunicast_lp(
    graph: SessionGraph,
    *,
    broadcast_information: bool = True,
    mac_constraint: bool = True,
) -> SUnicastSolution:
    """Maximize gamma for one session under (2)-(5), (5b) and (4), on HiGHS.

    The body ``solve_sunicast`` had before it became the one-session case
    of the N-session assembler, moved here with its column-layout and
    matrix helpers inlined (their min-cost mode, which it never used,
    left behind): the oracle of the joint LP's N = 1 face.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    # Column layout: [x per link | b per node | gamma].
    link_index = {link: k for k, link in enumerate(graph.links)}
    node_index = {node: len(link_index) + k for k, node in enumerate(graph.nodes)}
    gamma_index = len(link_index) + len(node_index)
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
        if sigma != 0:
            eq_rows.append(row)
            eq_cols.append(gamma_index)
            eq_vals.append(-float(sigma))
        eq_rhs.append(0.0)

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
    # Broadcast information constraint (5b): sum_j x_ij <= b_i * q_i.
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

    a_eq = csr_matrix((eq_vals, (eq_rows, eq_cols)), shape=(len(eq_rhs), columns))
    a_ub = csr_matrix((ub_vals, (ub_rows, ub_cols)), shape=(len(ub_rhs), columns))
    cost = np.zeros(columns)
    cost[gamma_index] = -1.0  # maximize gamma
    bounds = [(0.0, None)] * len(link_index)
    bounds += [(0.0, 1.0)] * len(node_index)
    bounds += [(0.0, None)]
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
        raise InfeasibleSessionError(f"sUnicast LP failed: {result.message}")
    gamma = float(result.x[gamma_index])
    return SUnicastSolution(
        throughput=gamma,
        flows={link: float(result.x[col]) for link, col in link_index.items()},
        broadcast_rates={node: float(result.x[col]) for node, col in node_index.items()},
        objective=gamma,
    )


def etx_weights(network: WirelessNetwork) -> Dict[Link, float]:
    """ETX weight ``1 / p_ij`` for every directed link of ``network``.

    The weight table routing ran on before ``etx_tree`` read the network
    directly: the input of the dict oracles below.
    """
    return {(i, j): 1.0 / p for i, j, p in network.links()}


def dijkstra_to_destination(
    nodes: Iterable[int],
    weights: Mapping[Link, float],
    destination: int,
) -> ShortestPathResult:
    """Shortest distance *to* ``destination`` from every node.

    Dijkstra on the reversed graph, moved here unedited: ``distance[v]``
    is the cost of v's best path toward the destination and
    ``predecessor[v]`` is v's next hop — the oracle of ``etx_tree(...,
    toward=True)``.
    """
    reversed_weights = {(j, i): w for (i, j), w in weights.items()}
    reversed_result = dijkstra(nodes, reversed_weights, destination)
    result = ShortestPathResult(source=destination)
    result.distance = reversed_result.distance
    result.predecessor = reversed_result.predecessor
    return result


def select_forwarders_on_weights(
    network: WirelessNetwork,
    source: int,
    destination: int,
    weights: Dict[Link, float],
    *,
    max_distance_factor: Optional[float] = None,
) -> ForwarderSet:
    """Node selection on the full dict Dijkstra over ``weights``.

    The weights path ``select_forwarders`` had, with its optional distance
    cap (prune candidates farther than ``factor * etx_distance[source]``),
    moved here: the oracle of the source-bounded ``etx_tree`` that node
    selection runs on.
    """
    check_endpoints(network, source, destination)
    to_destination = dijkstra_to_destination(network.nodes(), weights, destination)
    if source not in to_destination.distance:
        raise NodeSelectionError(
            f"destination {destination} unreachable from source {source}"
        )
    source_distance = to_destination.distance[source]
    candidates = {
        node
        for node, dist in to_destination.distance.items()
        if dist < source_distance
    }
    candidates.add(source)
    if max_distance_factor is not None:
        cap = max_distance_factor * source_distance
        candidates = {
            node
            for node in sorted(candidates)
            if to_destination.distance[node] <= cap or node == source
        }
    reached = _flood_decreasing(network, source, candidates, to_destination.distance)
    if destination not in reached:
        raise NodeSelectionError(
            f"no distance-decreasing route from {source} to {destination}"
        )
    selected = set(reached)
    while True:
        dag = _dag_links(network, selected, to_destination.distance)
        has_out = {i for (i, j) in dag}
        dead = {
            n for n in sorted(selected) if n != destination and n not in has_out
        }
        if not dead:
            break
        if source in dead:
            raise NodeSelectionError(
                f"source {source} lost all forwarding links during pruning"
            )
        selected -= dead
    distances = {n: to_destination.distance[n] for n in sorted(selected)}
    return ForwarderSet(
        source=source,
        destination=destination,
        nodes=frozenset(selected),
        etx_distance=distances,
        dag_links=tuple(dag),
    )


def canonical(value: object) -> object:
    """``value`` rebuilt in an order-independent form: sets and mapping
    items sorted by the repr of their canonical elements, dataclasses as
    (class name, field items), lists as tuples, numpy scalars as Python
    ones.  ``CampaignResult.digest`` hashed ``repr`` of this."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (spec.name, canonical(getattr(value, spec.name)))
                for spec in dataclasses.fields(value)
            ),
        )
    if isinstance(value, dict):
        items = [(canonical(k), canonical(v)) for k, v in value.items()]
        return ("mapping", tuple(sorted(items, key=repr)))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted((canonical(v) for v in value), key=repr)))
    if isinstance(value, (list, tuple)):
        return tuple(canonical(v) for v in value)
    if isinstance(value, np.generic):
        return value.item()
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    raise TypeError(
        f"cannot canonicalise {type(value).__name__} for a campaign digest"
    )
