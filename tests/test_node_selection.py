"""Node selection: distance-decreasing forwarder sets and their DAGs."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.etx_routing import plan_etx_route
from repro.routing.node_selection import (
    NodeSelectionError,
    select_forwarders,
)
from repro.topology.random_network import (
    chain_topology,
    diamond_topology,
    fig1_sample_topology,
    random_network,
)
from repro.util.rng import RngFactory
from tests.meshes import lossy_meshes
from tests.reference import (
    PLANNED_PAIRS,
    dijkstra_to_destination,
    etx_weights,
    reference_mesh,
    select_forwarders_on_weights,
)


class TestBasicSelection:
    def test_diamond_selects_both_relays(self):
        net = diamond_topology()
        result = select_forwarders(net, 0, 3)
        assert result.nodes == frozenset({0, 1, 2, 3})
        assert set(result.dag_links) == {(0, 1), (0, 2), (1, 3), (2, 3)}

    def test_chain_selects_whole_path(self):
        net = chain_topology((0.6, 0.6, 0.6))
        result = select_forwarders(net, 0, 3)
        assert result.nodes == frozenset({0, 1, 2, 3})

    def test_source_and_destination_always_included(self):
        net = fig1_sample_topology()
        result = select_forwarders(net, 0, 5)
        assert 0 in result.nodes and 5 in result.nodes
        assert result.relay_count == len(result.nodes) - 2

    def test_same_endpoints_rejected(self):
        net = diamond_topology()
        with pytest.raises(NodeSelectionError):
            select_forwarders(net, 1, 1)

    def test_unknown_node_rejected(self):
        net = diamond_topology()
        with pytest.raises(NodeSelectionError):
            select_forwarders(net, 0, 99)

    def test_unreachable_destination_rejected(self):
        net = chain_topology((0.5, 0.5))
        # Links only point forward; node 0 is unreachable from 2.
        with pytest.raises(NodeSelectionError):
            select_forwarders(net, 2, 0)

    def test_measured_qualities_enter_through_the_network(self):
        # Other qualities (measured ones, say) are planned on through a
        # network built from them: relay 2's last hop measured at 0.05
        # puts it farther from the destination than the source.
        net = diamond_topology()
        assert select_forwarders(net, 0, 3).nodes == frozenset({0, 1, 2, 3})
        measured = net.with_links({(i, j): p for i, j, p in net.links()} | {(2, 3): 0.05})
        result = select_forwarders(measured, 0, 3)
        assert result.nodes == frozenset({0, 1, 3})
        assert result.etx_distance[1] == pytest.approx(1 / 0.7)


class TestDagProperties:
    def test_links_strictly_decrease_distance(self):
        net = random_network(100, rng=RngFactory(4).derive("t"))
        result = select_forwarders(net, 3, 77)
        for i, j in result.dag_links:
            assert result.etx_distance[j] < result.etx_distance[i]

    def test_every_selected_node_reaches_destination(self):
        net = random_network(100, rng=RngFactory(4).derive("t"))
        result = select_forwarders(net, 3, 77)
        # Walk greedily downhill from each node; must reach destination.
        for node in result.nodes:
            current = node
            for _ in range(len(result.nodes)):
                if current == result.destination:
                    break
                downstream = result.downstream(current)
                assert downstream, f"node {current} has no way forward"
                current = min(downstream, key=lambda j: result.etx_distance[j])
            assert current == result.destination

    def test_forwarders_closer_than_source(self):
        net = random_network(100, rng=RngFactory(4).derive("t"))
        result = select_forwarders(net, 3, 77)
        source_distance = result.etx_distance[result.source]
        for node in result.nodes:
            if node != result.source:
                assert result.etx_distance[node] < source_distance

    def test_upstream_downstream_consistency(self):
        net = fig1_sample_topology()
        result = select_forwarders(net, 0, 5)
        for i, j in result.dag_links:
            assert j in result.downstream(i)
            assert i in result.upstream(j)

    def test_ordered_by_distance(self):
        net = fig1_sample_topology()
        result = select_forwarders(net, 0, 5)
        ordered = result.ordered_by_distance()
        assert ordered[0] == result.destination
        distances = [result.etx_distance[n] for n in ordered]
        assert distances == sorted(distances)

    def test_distance_matches_shortest_path(self):
        net = fig1_sample_topology()
        result = select_forwarders(net, 0, 5)
        # ETX distance of node 3 to destination 5: direct link 0.9.
        assert result.etx_distance[3] == pytest.approx(1 / 0.9)


def _reachable_pair(net):
    """Find a (source, destination) pair that node selection accepts."""
    for source in range(net.node_count):
        for destination in range(net.node_count - 1, 0, -1):
            if source == destination:
                continue
            try:
                select_forwarders(net, source, destination)
            except NodeSelectionError:
                continue
            return source, destination
    raise AssertionError("no reachable pair in test network")


class TestMaxDistanceFactor:
    """The distance cap lives on in the weights-path oracle."""

    def test_cap_prunes_far_forwarders(self):
        net = random_network(100, rng=RngFactory(8).derive("t"))
        source, destination = _reachable_pair(net)
        unrestricted = select_forwarders(net, source, destination)
        try:
            capped = select_forwarders_on_weights(
                net, source, destination, etx_weights(net), max_distance_factor=0.8
            )
        except NodeSelectionError:
            return  # aggressive caps may sever the route entirely
        assert capped.nodes <= unrestricted.nodes


def _fields(result):
    """Every field of a ForwarderSet, floats by ``repr``, orders kept."""
    return (
        result.source,
        result.destination,
        list(result.nodes),
        [(node, repr(dist)) for node, dist in result.etx_distance.items()],
        result.dag_links,
    )


def _selection(select, *args, **options):
    try:
        return _fields(select(*args, **options))
    except NodeSelectionError as error:
        return str(error)


class TestNativeTreeEqualsWeightsPath:
    """Node selection runs the source-bounded ``etx_tree``; the weights
    path it replaced (``tests/reference.py``) runs the full dict Dijkstra
    on the same qualities.  The two must never drift apart."""

    @given(lossy_meshes(), st.sampled_from((None, 0.6, 0.9, 1.5)), st.data())
    @settings(max_examples=150, deadline=None)
    def test_field_for_field(self, net, factor, data):
        destination = data.draw(st.integers(0, net.node_count - 1))
        weights = etx_weights(net)
        # Mostly sources that do reach the destination, farthest ones
        # included; one draw in five is any node, for the error paths.
        reaching = sorted(
            set(dijkstra_to_destination(net.nodes(), weights, destination).distance)
            - {destination}
        )
        if not reaching or data.draw(st.integers(0, 4)) == 0:
            reaching = list(net.nodes())
        source = data.draw(st.sampled_from(reaching))
        native = _selection(select_forwarders, net, source, destination)
        oracle = _selection(
            select_forwarders_on_weights, net, source, destination, weights,
            max_distance_factor=factor,
        )
        if factor is None or factor >= 1.0:
            # Every candidate is strictly closer than the source, so a cap
            # at or past the source's own distance prunes nothing.
            assert native == oracle
        elif not isinstance(oracle, str):
            # A tighter cap only prunes (or severs the route: an error),
            # and a node it keeps keeps its distance.
            _source, _destination, nodes, distances, _links = native
            _source, _destination, capped_nodes, capped_distances, _links = oracle
            assert set(capped_nodes) <= set(nodes)
            assert set(capped_distances) <= set(distances)


def forwarder_sets_of_the_benchmark_pairs():
    """Pinned on the commit before routing left the weight dicts."""
    net = reference_mesh()
    digest = hashlib.sha256()
    for source, destination in PLANNED_PAIRS:
        digest.update(repr(_fields(select_forwarders(net, source, destination))).encode())
    return digest.hexdigest()


class TestLiteralOracles:
    def test_bounded_trees_on_a_thousand_node_mesh(self):
        # 5 906 links: a session's ellipse is a small part of the mesh, so
        # both early exits cut the search well short of the full tree.
        net = reference_mesh(1000)
        assert net.link_count() == 5906
        rng = random.Random(1)
        hops, sizes = [], []
        while len(hops) < 40:
            source, destination = rng.sample(range(1000), 2)
            try:
                route = plan_etx_route(net, source, destination)
                selection = select_forwarders(net, source, destination)
            except NodeSelectionError:
                continue
            hops.append(route.hop_count)
            sizes.append(len(selection.nodes))
        assert hops == [
            38, 36, 17, 17, 28, 39, 18, 11, 16, 23, 19, 35, 42, 15, 25, 21, 36, 7, 22, 29,
            17, 5, 40, 34, 47, 26, 47, 37, 23, 23, 34, 28, 28, 28, 29, 31, 17, 19, 27, 16,
        ]
        assert sizes == [
            103, 105, 66, 37, 62, 146, 45, 20, 54, 78, 62, 186, 236, 77, 87, 56, 147, 23, 54, 77,
            47, 16, 176, 126, 127, 90, 249, 111, 134, 39, 164, 62, 106, 73, 129, 79, 42, 77, 111, 44,
        ]
