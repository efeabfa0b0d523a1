"""The sUnicast LP and its variants."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import CampaignConfig, build_network, pick_sessions
from repro.optimization.problem import (
    SessionGraph,
    session_graph_from_network,
    session_graph_from_selection,
)
from repro.optimization.sunicast import (
    InfeasibleSessionError,
    solve_min_cost_routing,
    solve_multi_sunicast,
    solve_sunicast,
    verify_feasibility,
)
from repro.routing.node_selection import NodeSelectionError, select_forwarders
from repro.routing.shortest_path import dijkstra
from repro.topology.graph import WirelessNetwork
from repro.topology.random_network import (
    chain_topology,
    diamond_topology,
    fig1_sample_topology,
)
from tests.meshes import lossy_meshes
from tests.reference import (
    dijkstra_to_destination,
    min_cost_routing_lp,
    reference_mesh,
    sunicast_lp,
)


class TestSolveSunicast:
    def test_chain_throughput_analytic(self):
        # Chain 0-1-2-3, all p = 0.5, every node in one collision domain
        # apart from ends: throughput is limited by the MAC constraint.
        net = chain_topology((0.5, 0.5, 0.5))
        graph = session_graph_from_network(net, 0, 3)
        solution = solve_sunicast(graph)
        assert 0.0 < solution.throughput < 0.5

    def test_single_perfect_link(self):
        net = chain_topology((1.0,))
        graph = session_graph_from_network(net, 0, 1)
        solution = solve_sunicast(graph)
        # One hop at p=1: receiver constraint b_0 <= 1 gives gamma = 1.
        assert solution.throughput == pytest.approx(1.0, abs=1e-6)

    def test_diamond_uses_both_relays(self):
        solution = solve_sunicast(
            session_graph_from_network(diamond_topology(), 0, 3)
        )
        assert solution.flows[(0, 1)] > 1e-6
        assert solution.flows[(0, 2)] > 1e-6
        assert solution.broadcast_rates[3] == pytest.approx(0.0, abs=1e-9)

    def test_diamond_beats_best_single_path(self):
        # Multipath with broadcast must beat the best single path under
        # the same MAC constraints; compute the single-path optimum by
        # removing one relay.
        full = solve_sunicast(session_graph_from_network(diamond_topology(), 0, 3))
        single = solve_sunicast(
            session_graph_from_network(
                diamond_topology(p_sv=0.01, p_vt=0.01), 0, 3
            )
        )
        assert full.throughput > single.throughput

    def test_solution_is_feasible(self):
        graph = session_graph_from_network(fig1_sample_topology(), 0, 5)
        solution = solve_sunicast(graph)
        violations = verify_feasibility(graph, solution)
        assert all(v == 0.0 for v in violations.values()), violations

    def test_union_constraint_binds_on_funnel(self):
        # One relay fanning to two receivers: without (5b) the LP could
        # count one broadcast twice.  gamma through the funnel must not
        # exceed b_relay * union probability.
        net = chain_topology((0.9, 0.6, 0.9), overhearing={(1, 3): 0.5})
        graph = session_graph_from_network(net, 0, 3)
        solution = solve_sunicast(graph)
        outflow = solution.flows[(1, 2)] + solution.flows[(1, 3)]
        union = graph.union_probability(1)
        assert outflow <= solution.broadcast_rates[1] * union + 1e-6

    def test_active_helpers(self):
        solution = solve_sunicast(
            session_graph_from_network(diamond_topology(), 0, 3)
        )
        assert set(solution.active_nodes()) >= {0}
        assert all(x > 1e-6 for x in
                   (solution.flows[l] for l in solution.active_links()))


def _campaign_forwarder_graphs():
    """The forwarder graphs of 30 campaign sessions on each 120-node mesh
    (lossy, then high-quality), as the fig2 campaign plans them."""
    graphs = []
    for quality in ("lossy", "high"):
        config = CampaignConfig(node_count=120, sessions=30, quality=quality, seed=2008)
        _, net = build_network(config)
        for source, destination, _plan in pick_sessions(config, net):
            forwarders = select_forwarders(net, source, destination)
            graphs.append(session_graph_from_selection(net, forwarders))
    return graphs


def _solution_repr(solution):
    return repr(
        (
            solution.throughput,
            solution.flows,
            solution.broadcast_rates,
            solution.objective,
        )
    )


class TestSunicastEqualsLp:
    """``solve_sunicast`` is the N = 1 face of the joint assembler; the
    single-session LP it replaced (``tests/reference.py::sunicast_lp``) is
    its oracle, to the last bit."""

    @pytest.fixture(scope="class")
    def graphs(self):
        return _campaign_forwarder_graphs()

    @pytest.mark.parametrize("broadcast_information", [True, False])
    @pytest.mark.parametrize("mac_constraint", [True, False])
    def test_campaign_graphs_last_bit(
        self, graphs, broadcast_information, mac_constraint
    ):
        assert len(graphs) == 60
        flags = dict(
            broadcast_information=broadcast_information,
            mac_constraint=mac_constraint,
        )
        for graph in graphs:
            assert _solution_repr(solve_sunicast(graph, **flags)) == _solution_repr(
                sunicast_lp(graph, **flags)
            )


class TestUnreachableSession:
    """A destination the session graph cannot reach is an
    :class:`InfeasibleSessionError` naming the session, from both faces."""

    # Node 2 only transmits toward 1: nothing reaches it from 0.
    NET = WirelessNetwork(
        [[0.0, 0.0], [0.5, 0.0], [0.9, 0.0]],
        {(0, 1): 0.8, (1, 0): 0.8, (2, 1): 0.5},
        communication_range=1.0,
    )

    def test_single_session(self):
        with pytest.raises(InfeasibleSessionError, match="session 0"):
            solve_sunicast(session_graph_from_network(self.NET, 0, 2))

    def test_named_among_several(self):
        sessions = [
            session_graph_from_network(self.NET, 2, 0),
            session_graph_from_network(self.NET, 0, 2),
        ]
        with pytest.raises(InfeasibleSessionError, match="session 1"):
            solve_multi_sunicast(sessions)
        # Reachable on its own, session 0 is a legitimate optimum.
        assert solve_multi_sunicast(sessions[:1])[0] > 0.0


class TestMinCost:
    def test_min_cost_routing_concentrates_on_best_path(self):
        # Diamond with one clearly better path: routing-cost semantics
        # should leave the bad relay unused.
        net = diamond_topology(p_su=0.9, p_ut=0.9, p_sv=0.3, p_vt=0.3)
        graph = session_graph_from_network(net, 0, 3)
        solution = solve_min_cost_routing(graph)
        assert solution.flows[(0, 2)] == pytest.approx(0.0, abs=1e-9)
        assert solution.flows[(0, 1)] > 0

    def test_min_cost_routing_rates_are_transmission_counts(self):
        net = chain_topology((0.5, 0.5))
        graph = session_graph_from_network(net, 0, 2)
        gamma = 1e-3
        solution = solve_min_cost_routing(graph, throughput=gamma)
        # Each hop costs 1/0.5 = 2 transmissions per unit flow.
        assert solution.broadcast_rates[0] == pytest.approx(2 * gamma, rel=1e-6)
        assert solution.broadcast_rates[1] == pytest.approx(2 * gamma, rel=1e-6)

    def test_invalid_throughput(self):
        graph = session_graph_from_network(diamond_topology(), 0, 3)
        with pytest.raises(ValueError):
            solve_min_cost_routing(graph, throughput=-1)


def _outcome(solver, graph):
    try:
        return solver(graph)
    except InfeasibleSessionError:
        return None


def _assert_no_negative_zero(solution):
    # HiGHS leaves -0.0 on unused links; the closed form must never.
    for link, x in solution.flows.items():
        assert math.copysign(1.0, x) > 0, (link, x)


def _route_is_unique(graph, margin=1e-6):
    """No link off the shortest route lies on a route within ``margin`` of it.

    The margin keeps near-ties out as well: HiGHS prices columns to a
    1e-7 tolerance and may split flow over routes that close.
    """
    weights = {link: 1.0 / graph.probability[link] for link in graph.links}
    out = dijkstra(graph.nodes, weights, graph.source)
    back = dijkstra_to_destination(graph.nodes, weights, graph.destination)
    best = out.distance[graph.destination]
    tight = [
        (i, j)
        for (i, j), w in weights.items()
        if i in out.distance
        and j in back.distance
        and out.distance[i] + w + back.distance[j] <= best + margin
    ]
    return len(tight) == len(out.path_to(graph.destination)) - 1


class TestMinCostRoutingEqualsLp:
    """``solve_min_cost_routing`` is a shortest path; the LP it replaced
    (``tests/reference.py::min_cost_routing_lp``) is its oracle."""

    @given(lossy_meshes(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_property_on_adversarial_meshes(self, net, data):
        source = data.draw(st.integers(0, net.node_count - 1))
        destination = data.draw(
            st.integers(0, net.node_count - 2).map(
                lambda d: d if d < source else d + 1
            )
        )
        graph = session_graph_from_network(net, source, destination)
        closed = _outcome(solve_min_cost_routing, graph)
        if not graph.links:
            # linprog rejects a program without columns (a bare ValueError,
            # as solve_min_cost_routing used to leak); nothing to compare.
            assert closed is None
            return
        oracle = _outcome(min_cost_routing_lp, graph)
        assert (closed is None) == (oracle is None)
        if closed is None:
            return
        assert closed.objective == pytest.approx(oracle.objective, rel=1e-9)
        _assert_no_negative_zero(closed)
        for node in graph.nodes:
            outflow = sum(closed.flows[link] for link in graph.out_links(node))
            inflow = sum(closed.flows[link] for link in graph.in_links(node))
            assert outflow - inflow == graph.supply(node) * closed.throughput
        if _route_is_unique(graph):
            assert closed.flows == pytest.approx(oracle.flows, abs=1e-12)
            assert closed.broadcast_rates == pytest.approx(
                oracle.broadcast_rates, abs=1e-12
            )

    @staticmethod
    def _assert_equal_on_forwarder_graphs(net, pairs):
        compared = 0
        for source, destination in pairs:
            try:
                forwarders = select_forwarders(net, source, destination)
            except NodeSelectionError:
                continue
            graph = session_graph_from_selection(net, forwarders)
            closed = solve_min_cost_routing(graph)
            oracle = min_cost_routing_lp(graph)
            _assert_no_negative_zero(closed)
            assert closed.flows == oracle.flows  # -0.0 == 0.0 by value
            assert {n: repr(b) for n, b in closed.broadcast_rates.items()} == {
                n: repr(b) for n, b in oracle.broadcast_rates.items()
            }
            compared += 1
        return compared

    def test_campaign_pairs_last_bit(self):
        # What plan_oldmore feeds the solver on the benchmark's campaign:
        # z and the credits keep their last bit only if the rates do.
        net = reference_mesh()
        config = CampaignConfig(node_count=120, sessions=8, min_hops=4, seed=2008)
        pairs = [(s, d) for s, d, _plan in pick_sessions(config, net)]
        assert self._assert_equal_on_forwarder_graphs(net, pairs) == 8

    def test_random_pairs_on_the_reference_mesh_last_bit(self):
        net = reference_mesh()
        rng = random.Random(5)
        pairs = [tuple(rng.sample(range(net.node_count), 2)) for _ in range(300)]
        assert self._assert_equal_on_forwarder_graphs(net, pairs) >= 200

    def test_tie_goes_to_the_lower_id_relay(self):
        net = diamond_topology(p_su=0.5, p_sv=0.5, p_ut=0.5, p_vt=0.5)
        graph = session_graph_from_network(net, 0, 3)
        closed = solve_min_cost_routing(graph, throughput=1e-3)
        assert closed.flows == {(0, 1): 1e-3, (0, 2): 0.0, (1, 3): 1e-3, (2, 3): 0.0}
        assert closed.broadcast_rates == {0: 2e-3, 1: 2e-3, 2: 0.0, 3: 0.0}
        _assert_no_negative_zero(closed)
        oracle = min_cost_routing_lp(graph, throughput=1e-3)
        assert closed.objective == pytest.approx(oracle.objective, rel=1e-12)

    def test_unreachable_destination_is_infeasible(self):
        # Node 2 only transmits: nothing reaches it.
        graph = SessionGraph(
            source=0,
            destination=2,
            nodes=(0, 1, 2),
            links=((0, 1), (2, 1)),
            probability={(0, 1): 0.5, (2, 1): 0.5},
            neighbors={0: frozenset({1}), 1: frozenset({0, 2}), 2: frozenset({1})},
            capacity=1.0,
        )
        with pytest.raises(InfeasibleSessionError):
            solve_min_cost_routing(graph)
        with pytest.raises(InfeasibleSessionError):
            min_cost_routing_lp(graph)

    @pytest.mark.parametrize("throughput", [0.0, -1e-3])
    def test_non_positive_throughput_is_rejected(self, throughput):
        graph = session_graph_from_network(diamond_topology(), 0, 3)
        with pytest.raises(ValueError):
            solve_min_cost_routing(graph, throughput=throughput)


class TestVerifyFeasibility:
    def test_detects_flow_violation(self):
        graph = session_graph_from_network(diamond_topology(), 0, 3)
        solution = solve_sunicast(graph)
        broken = type(solution)(
            throughput=solution.throughput + 0.5,
            flows=solution.flows,
            broadcast_rates=solution.broadcast_rates,
            objective=0.0,
        )
        violations = verify_feasibility(graph, broken)
        assert violations["flow_conservation"] > 0

    def test_detects_mac_violation(self):
        graph = session_graph_from_network(diamond_topology(), 0, 3)
        solution = solve_sunicast(graph)
        broken = type(solution)(
            throughput=solution.throughput,
            flows=solution.flows,
            broadcast_rates={n: 1.0 for n in solution.broadcast_rates},
            objective=0.0,
        )
        violations = verify_feasibility(graph, broken)
        assert violations["mac"] > 0
