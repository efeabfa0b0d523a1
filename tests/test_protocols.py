"""Protocol control planes: OMNC, MORE, oldMORE, ETX routing."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulator.plan import (
    CodedBroadcastPlan,
    CreditBroadcastPlan,
    UnicastPathPlan,
)
from repro.protocols.etx_routing import plan_etx_route, predicted_etx_throughput
from repro.protocols.more import (
    compute_expected_transmissions,
    compute_tx_credits,
    effective_forwarders,
    plan_more,
    total_expected_transmissions,
)
from repro.protocols.oldmore import plan_oldmore
from repro.protocols.omnc import plan_omnc, plan_omnc_detailed, plan_omnc_multi
from repro.routing.node_selection import NodeSelectionError, select_forwarders
from repro.routing.shortest_path import dijkstra
from repro.topology.random_network import (
    chain_topology,
    diamond_topology,
    fig1_sample_topology,
    random_network,
)
from repro.util.rng import RngFactory
from tests.meshes import lossy_meshes
from tests.reference import PLANNED_PAIRS, reference_mesh


def routes_from_three_sources():
    """Every ETX route from three sources of the reference mesh; pinned on
    the commit before routing left the weight dicts."""
    net = reference_mesh()
    digest = hashlib.sha256()
    for source in (0, 57, 119):
        for destination in net.nodes():
            if destination == source:
                continue
            try:
                plan = plan_etx_route(net, source, destination)
            except NodeSelectionError:
                digest.update(f"{source}>{destination} unreachable;".encode())
            else:
                digest.update(f"{plan.path}|{plan.path_etx!r};".encode())
    return digest.hexdigest()


class TestEtxRouting:
    def test_best_path_on_diamond(self):
        net = diamond_topology(p_su=0.9, p_ut=0.9, p_sv=0.3, p_vt=0.3)
        plan = plan_etx_route(net, 0, 3)
        assert plan.path == (0, 1, 3)
        assert plan.path_etx == pytest.approx(2 / 0.9)

    def test_unreachable_raises_selection_error(self):
        net = chain_topology((0.5,))
        with pytest.raises(NodeSelectionError):
            plan_etx_route(net, 1, 0)

    def test_same_endpoints_rejected(self):
        net = diamond_topology()
        with pytest.raises(NodeSelectionError):
            plan_etx_route(net, 0, 0)

    @pytest.mark.parametrize("planner", [plan_etx_route, select_forwarders])
    @pytest.mark.parametrize("endpoints", [(999, 0), (0, 999), (-1, 5)])
    def test_endpoint_outside_the_network_is_a_selection_error(self, planner, endpoints):
        # pick_sessions and the bench endpoint searches filter candidates
        # by catching NodeSelectionError alone, from either planner.
        net = random_network(30, rng=RngFactory(5).derive("t"))
        with pytest.raises(NodeSelectionError, match="outside the network"):
            planner(net, *endpoints)

    def test_predicted_throughput_positive_and_bounded(self):
        net = chain_topology((0.8, 0.8, 0.8))
        plan = plan_etx_route(net, 0, 3)
        predicted = predicted_etx_throughput(net, plan)
        assert 0 < predicted <= net.capacity

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            UnicastPathPlan(path=(0,), path_etx=1.0)
        with pytest.raises(ValueError):
            UnicastPathPlan(path=(0, 1, 0), path_etx=3.0)
        with pytest.raises(ValueError):
            UnicastPathPlan(path=(0, 1), path_etx=0.5)


def _reference_expected_transmissions(network, forwarders):
    """The heuristic as first written: every p_ik read where it is used."""
    order = forwarders.ordered_by_distance()
    distance = forwarders.etx_distance
    z = {node: 0.0 for node in order}
    for j in reversed(order):
        if j == forwarders.destination:
            continue
        closer = [k for k in order if distance[k] < distance[j]]
        if j == forwarders.source:
            expected_forward = 1.0
        else:
            expected_forward = 0.0
            for i in order:
                if distance[i] <= distance[j] or z[i] == 0.0:
                    continue
                p_ij = network.probability(i, j)
                if p_ij == 0.0:
                    continue
                miss_closer = 1.0
                for k in closer:
                    miss_closer *= 1.0 - network.probability(i, k)
                expected_forward += z[i] * p_ij * miss_closer
        if expected_forward == 0.0:
            continue
        delivery = 1.0
        for k in closer:
            delivery *= 1.0 - network.probability(j, k)
        reach = 1.0 - delivery
        if reach <= 0.0:
            continue
        z[j] = expected_forward / reach
    return z


def _reference_tx_credits(network, forwarders, z):
    distance = forwarders.etx_distance
    credits = {}
    for j in forwarders.nodes:
        if j in (forwarders.source, forwarders.destination):
            continue
        if z.get(j, 0.0) == 0.0:
            continue
        heard = 0.0
        for i in forwarders.nodes:
            if distance[i] <= distance[j]:
                continue
            heard += z.get(i, 0.0) * network.probability(i, j)
        if heard <= 0.0:
            continue
        credits[j] = z[j] / heard
    return credits


def _reprs(values):
    return [(node, repr(value)) for node, value in values.items()]


def more_heuristic_of_the_benchmark_pairs():
    """Every z_i and credit, to the last bit and in dict order; pinned
    before the link table replaced the per-use reads."""
    net = reference_mesh()
    digest = hashlib.sha256()
    for source, destination in PLANNED_PAIRS:
        plan = plan_more(net, source, destination)
        digest.update(
            f"{_reprs(plan.expected_transmissions)}|{_reprs(plan.tx_credits)};".encode()
        )
    plan = plan_more(net, 78, 19)
    assert _reprs(plan.tx_credits)[:3] == [
        (71, "0.6832747618804013"),
        (59, "0.7481029017385592"),
        (17, "0.029758961851174593"),
    ]
    assert _reprs(plan.expected_transmissions)[-2:] == [
        (17, "0.028791326192317387"),
        (78, "1.0009923273516486"),
    ]
    return digest.hexdigest()


class TestMoreHeuristic:
    @given(lossy_meshes(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_link_table_equals_per_use_reads(self, net, data):
        destination = data.draw(st.integers(0, net.node_count - 1))
        source = data.draw(st.integers(0, net.node_count - 1))
        try:
            forwarders = select_forwarders(net, source, destination)
        except NodeSelectionError:
            return
        z = compute_expected_transmissions(net, forwarders)
        assert _reprs(z) == _reprs(_reference_expected_transmissions(net, forwarders))
        # Credits take any z (oldMORE feeds LP rates, some nodes missing).
        rates = {
            node: data.draw(st.sampled_from((0.0, 0.25, 1.0, 3.7)))
            for node in sorted(forwarders.nodes)
            if data.draw(st.booleans())
        }
        for vector in (z, rates):
            assert _reprs(compute_tx_credits(net, forwarders, vector)) == _reprs(
                _reference_tx_credits(net, forwarders, vector)
            )

    def test_source_z_on_chain_matches_formula(self):
        net = chain_topology((0.5, 1.0))
        forwarders = select_forwarders(net, 0, 2)
        z = compute_expected_transmissions(net, forwarders)
        # Source must transmit 1/p = 2 per delivered packet: only node 1
        # (p=0.5) is closer than the source... the direct 2-hop
        # overhearing link (0, 2) does not exist here.
        assert z[0] == pytest.approx(2.0)
        assert z[1] == pytest.approx(1.0)

    def test_destination_never_forwards(self):
        net = fig1_sample_topology()
        forwarders = select_forwarders(net, 0, 5)
        z = compute_expected_transmissions(net, forwarders)
        assert z[forwarders.destination] == 0.0

    def test_credits_positive_for_useful_forwarders(self):
        net = fig1_sample_topology()
        plan = plan_more(net, 0, 5)
        assert plan.tx_credits  # at least one forwarder earns credit
        assert all(c > 0 for c in plan.tx_credits.values())
        assert plan.forwarders.source not in plan.tx_credits

    def test_total_transmissions_reasonable(self):
        # On a 2-hop chain with p=0.5 each, total expected transmissions
        # per packet must be near 2 + 2 = 4 (less with overhearing).
        net = chain_topology((0.5, 0.5))
        forwarders = select_forwarders(net, 0, 2)
        z = compute_expected_transmissions(net, forwarders)
        assert 2.0 <= total_expected_transmissions(z) <= 4.5

    def test_overhearing_reduces_source_cost(self):
        plain = chain_topology((0.5, 0.5))
        shortcut = chain_topology((0.5, 0.5), overhearing={(0, 2): 0.4})
        z_plain = compute_expected_transmissions(
            plain, select_forwarders(plain, 0, 2)
        )
        z_shortcut = compute_expected_transmissions(
            shortcut, select_forwarders(shortcut, 0, 2)
        )
        assert z_shortcut[0] < z_plain[0]

    def test_effective_forwarders_sorted(self):
        net = fig1_sample_topology()
        plan = plan_more(net, 0, 5)
        forwarders = effective_forwarders(plan)
        assert list(forwarders) == sorted(forwarders)

    def test_plan_validation_rejects_unselected(self):
        net = diamond_topology()
        forwarders = select_forwarders(net, 0, 3)
        with pytest.raises(ValueError):
            CreditBroadcastPlan(
                forwarders=forwarders,
                tx_credits={99: 1.0},
                expected_transmissions={},
            )


class TestOldMore:
    def test_prunes_more_than_new_more(self):
        net = random_network(100, rng=RngFactory(4).derive("t"))
        source, destination = 3, 77
        more_plan = plan_more(net, source, destination)
        old_plan = plan_oldmore(net, source, destination)
        assert len(effective_forwarders(old_plan)) <= len(
            effective_forwarders(more_plan)
        )

    def test_single_good_path_gets_all_credits(self):
        net = diamond_topology(p_su=0.9, p_ut=0.9, p_sv=0.3, p_vt=0.3)
        plan = plan_oldmore(net, 0, 3)
        # Relay 2 (the bad path) earns no credit from the min-cost plan.
        assert plan.tx_credits.get(2, 0.0) == pytest.approx(0.0, abs=1e-9)


    def test_transmits_only_along_the_shortest_route_in_the_dag(self):
        # Fig. 4's pruning as an invariant: the min-cost optimum is the
        # ETX-shortest route of the forwarder DAG, each hop charged its
        # expected transmission count; every other forwarder is silent.
        net = reference_mesh()
        transmitting = silent = 0
        for source, destination in PLANNED_PAIRS:
            forwarders = select_forwarders(net, source, destination)
            weights = {
                (i, j): 1.0 / net.probability(i, j) for i, j in forwarders.dag_links
            }
            route = dijkstra(forwarders.nodes, weights, source).path_to(destination)
            expected = {node: 0.0 for node in forwarders.nodes}
            for i, j in zip(route, route[1:]):
                expected[i] = (1e-3 / net.probability(i, j)) / 1e-3
            plan = plan_oldmore(net, source, destination)
            assert plan.expected_transmissions == expected
            transmitting += len(route) - 1
            silent += len(forwarders.nodes) - len(route)
        # Over the fourteen pairs most relays the selection offered are pruned.
        assert (transmitting, silent) == (65, 95)


class TestOmncPlanning:
    def test_plan_structure(self):
        net = fig1_sample_topology()
        report = plan_omnc_detailed(net, 0, 5)
        plan = report.plan
        assert plan.kind == "rate"
        assert plan.rates[5] == 0.0  # destination silent
        assert plan.predicted_throughput > 0
        assert report.converged

    def test_rates_cover_recovered_flows(self):
        net = fig1_sample_topology()
        report = plan_omnc_detailed(net, 0, 5)
        graph = report.graph
        # After repair + rescale the plan must satisfy the loss coupling
        # for its own predicted flows direction: every transmitter with
        # positive planned rate is bounded by capacity.
        for node, rate in report.plan.rates.items():
            assert 0 <= rate <= graph.capacity + 1e-6

    def test_single_session_is_the_joint_pipeline_over_one(self):
        net = reference_mesh()
        for source, destination in PLANNED_PAIRS:
            single = plan_omnc_detailed(net, source, destination)
            joint = plan_omnc_multi(net, {7: (source, destination)})
            assert repr(single.plan) == repr(joint.plans[7])
            assert plan_omnc(net, source, destination) == single.plan

    def test_mac_feasibility_of_shipped_rates(self):
        net = fig1_sample_topology()
        report = plan_omnc_detailed(net, 0, 5)
        graph = report.graph
        normalized = {
            n: r / graph.capacity for n, r in report.plan.rates.items()
        }
        for node in graph.mac_constrained_nodes():
            load = normalized.get(node, 0.0) + sum(
                normalized.get(j, 0.0) for j in graph.neighbors[node]
            )
            assert load <= 1.0 + 1e-6

    def test_plan_validation(self):
        net = diamond_topology()
        forwarders = select_forwarders(net, 0, 3)
        with pytest.raises(ValueError):
            CodedBroadcastPlan(
                forwarders=forwarders,
                rates={0: -1.0},
                predicted_throughput=1.0,
            )
        with pytest.raises(ValueError):
            CodedBroadcastPlan(
                forwarders=forwarders,
                rates={99: 1.0},
                predicted_throughput=1.0,
            )

    def test_active_nodes_includes_destination(self):
        net = diamond_topology()
        plan = plan_omnc(net, 0, 3)
        assert plan.forwarders.destination in plan.active_nodes()
