"""WirelessNetwork: links, neighborhoods, interference, views."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.graph import WirelessNetwork
from repro.topology.random_network import (
    chain_topology,
    diamond_topology,
    fig1_sample_topology,
    network_from_links,
    random_network,
)
from repro.util.rng import RngFactory


def simple_network():
    positions = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    links = {(0, 1): 0.8, (1, 0): 0.7, (1, 2): 0.5, (0, 3): 0.9}
    return WirelessNetwork(positions, links, 1.2, capacity=1e4)


class TestConstruction:
    def test_basic_accessors(self):
        net = simple_network()
        assert net.node_count == 4
        assert net.link_count() == 4
        assert net.capacity == 1e4
        assert net.communication_range == 1.2

    def test_probability_lookup(self):
        net = simple_network()
        assert net.probability(0, 1) == 0.8
        assert net.probability(1, 0) == 0.7
        assert net.probability(2, 0) == 0.0  # no such link
        assert net.has_link(1, 2)
        assert not net.has_link(2, 1)

    def test_link_beyond_range_rejected(self):
        positions = np.array([[0.0, 0.0], [5.0, 0.0]])
        with pytest.raises(ValueError, match="beyond"):
            WirelessNetwork(positions, {(0, 1): 0.5}, 1.0)

    def test_self_link_rejected(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="self-link"):
            WirelessNetwork(positions, {(0, 0): 0.5}, 2.0)

    def test_bad_probability_rejected(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            WirelessNetwork(positions, {(0, 1): 0.0}, 2.0)
        with pytest.raises(ValueError):
            WirelessNetwork(positions, {(0, 1): 1.5}, 2.0)

    def test_out_of_range_node_rejected(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            WirelessNetwork(positions, {(0, 5): 0.5}, 2.0)

    def test_positions_read_only(self):
        net = simple_network()
        with pytest.raises(ValueError):
            net.positions[0, 0] = 9.0


def assert_same_network(derived, fresh):
    """Every accessor a protocol or the emulator reads agrees."""
    assert list(derived.links()) == list(fresh.links())  # order is draw order
    assert derived.link_count() == fresh.link_count()
    assert derived.node_count == fresh.node_count
    assert derived.communication_range == fresh.communication_range
    assert derived.capacity == fresh.capacity
    assert np.array_equal(derived.positions, fresh.positions)
    for i in fresh.nodes():
        assert derived.out_neighbors(i) == fresh.out_neighbors(i)
        assert derived.in_neighbors(i) == fresh.in_neighbors(i)
        assert list(derived.neighbors(i)) == list(fresh.neighbors(i))
        assert list(derived.conflict_neighbors(i)) == list(fresh.conflict_neighbors(i))
        for j in fresh.nodes():
            assert derived.probability(i, j) == fresh.probability(i, j)
            assert derived.has_link(i, j) == fresh.has_link(i, j)
            assert derived.distance(i, j) == fresh.distance(i, j)


@st.composite
def deployments(draw):
    """Positions in a 3x3 square, range 1.5, and three link tables over
    the in-range pairs: the parent's, a re-valued permutation of it, and
    a subset."""
    n = draw(st.integers(min_value=2, max_value=7))
    coordinate = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
    positions = np.array(
        draw(st.lists(st.tuples(coordinate, coordinate), min_size=n, max_size=n))
    )
    reach = 1.5
    in_range = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and float(np.hypot(*(positions[i] - positions[j]))) < reach - 1e-6
    ]
    probability = st.floats(min_value=0.02, max_value=1.0)

    def table(links):
        return {link: draw(probability) for link in links}

    held = draw(st.lists(st.sampled_from(in_range), unique=True)) if in_range else []
    kept = [link for link in held if draw(st.booleans())]
    return positions, reach, table(held), table(draw(st.permutations(held))), table(kept)


class TestWithLinks:
    @settings(max_examples=60, deadline=None)
    @given(deployments())
    def test_equals_a_fresh_construction(self, deployment):
        positions, reach, held, revalued, subset = deployment

        def fresh(links):
            return WirelessNetwork(positions, links, reach, capacity=3e4)

        parent = fresh(held)
        before = pickle.dumps(parent)
        # Unchanged link set (a drift), in a different dict order.
        assert_same_network(parent.with_links(revalued), fresh(revalued))
        # Shrunk (a failure), then re-grown from the shrunk network (a
        # recovery: the returning links are new to it and span-checked).
        shrunk = parent.with_links(subset)
        assert_same_network(shrunk, fresh(subset))
        assert_same_network(shrunk.with_links(held), parent)
        assert pickle.dumps(parent) == before  # the parent is untouched
        # A derived network pickles on its own.
        assert_same_network(pickle.loads(pickle.dumps(shrunk)), shrunk)

    def test_geometry_is_shared_not_copied(self):
        net = simple_network()
        drifted = net.with_links({(0, 1): 0.4, (1, 0): 0.7, (1, 2): 0.5, (0, 3): 0.9})
        assert drifted.positions is net.positions
        assert drifted.neighbors(0) is net.neighbors(0)
        assert drifted.out_neighbors(0) is net.out_neighbors(0)
        assert net.probability(0, 1) == 0.8 and drifted.probability(0, 1) == 0.4

    def test_every_link_is_still_validated(self):
        net = simple_network()
        for bad in (0.0, 1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match="probability"):
                net.with_links({(0, 1): bad})  # a link the parent holds
        with pytest.raises(ValueError, match="outside"):
            net.with_links({(0, 4): 0.5})
        with pytest.raises(ValueError, match="self-link"):
            net.with_links({(1, 1): 0.5})
        with pytest.raises(ValueError, match="beyond"):
            net.with_links({(0, 2): 0.5})  # new link, two units apart
        assert net.with_links({(2, 1): 0.5}).has_link(2, 1)  # new, in range


class TestNeighborhoods:
    def test_neighbors_are_geometric(self):
        net = simple_network()
        # range 1.2: node 0 reaches 1 (d=1) and 3 (d=1), not 2 (d=2).
        assert net.neighbors(0) == frozenset({1, 3})
        assert net.neighbors(2) == frozenset({1})

    def test_in_out_neighbors_follow_links(self):
        net = simple_network()
        assert net.out_neighbors(0) == (1, 3)
        assert net.in_neighbors(0) == (1,)

    def test_conflict_neighbors_include_shared_receiver(self):
        net = simple_network()
        # Nodes 2 and 0 are out of range but share neighbor 1.
        assert 2 in net.conflict_neighbors(0)
        assert 0 in net.conflict_neighbors(2)

    def test_average_probability(self):
        net = simple_network()
        assert net.average_link_probability() == pytest.approx(
            (0.8 + 0.7 + 0.5 + 0.9) / 4
        )


class TestSubNetworkView:
    def test_restriction(self):
        net = simple_network()
        view = net.subnetwork(frozenset({0, 1, 2}))
        assert view.nodes() == (0, 1, 2)
        assert view.probability(0, 3) == 0.0
        assert view.probability(0, 1) == 0.8
        assert view.out_neighbors(0) == (1,)
        assert view.neighbors(0) == frozenset({1})

    def test_interferers_see_full_network(self):
        net = simple_network()
        view = net.subnetwork(frozenset({0, 1, 2}))
        assert view.interferers(0) == frozenset({1, 3})

    def test_invalid_node_rejected(self):
        net = simple_network()
        with pytest.raises(ValueError):
            net.subnetwork(frozenset({99}))

    def test_links_iterator(self):
        net = simple_network()
        view = net.subnetwork(frozenset({0, 1}))
        assert sorted(view.links()) == [(0, 1, 0.8), (1, 0, 0.7)]


class TestNetworkx:
    def test_export_with_etx(self):
        net = simple_network()
        graph = net.to_networkx(weight="etx")
        assert graph.number_of_edges() == 4
        assert graph[0][1]["etx"] == pytest.approx(1 / 0.8)
        assert graph[0][1]["probability"] == 0.8


class TestCanonicalTopologies:
    def test_diamond_relays_out_of_range(self):
        net = diamond_topology()
        assert 2 not in net.neighbors(1)  # u and v cannot hear each other
        assert 1 in net.neighbors(0) and 2 in net.neighbors(0)
        assert 1 in net.neighbors(3) and 2 in net.neighbors(3)

    def test_diamond_with_direct_link(self):
        net = diamond_topology(p_st=0.1)
        assert net.has_link(0, 3)

    def test_chain_structure(self):
        net = chain_topology((0.5, 0.6, 0.7))
        assert net.link_count() == 3
        assert net.probability(0, 1) == 0.5
        assert net.probability(2, 3) == 0.7

    def test_chain_overhearing_bounds(self):
        with pytest.raises(ValueError, match="two hops"):
            chain_topology((0.5, 0.5, 0.5), overhearing={(0, 3): 0.1})

    def test_chain_bad_probability(self):
        with pytest.raises(ValueError):
            chain_topology((0.0,))

    def test_fig1_sample(self):
        net = fig1_sample_topology()
        assert net.node_count == 6
        assert net.link_count() == 9
        assert net.capacity == 1e5

    def test_network_from_links_single_collision_domain(self):
        net = network_from_links({(0, 1): 0.5, (1, 2): 0.5})
        for i in net.nodes():
            others = set(net.nodes()) - {i}
            assert net.neighbors(i) == frozenset(others)

    def test_network_from_links_empty_rejected(self):
        with pytest.raises(ValueError):
            network_from_links({})


class TestRandomNetwork:
    def test_determinism(self):
        a = random_network(50, rng=RngFactory(5).derive("t"))
        b = random_network(50, rng=RngFactory(5).derive("t"))
        assert a.link_count() == b.link_count()
        assert sorted(a.links()) == sorted(b.links())

    def test_density_parameter(self):
        net = random_network(200, neighbors_per_node=5.0, rng=RngFactory(6).derive("t"))
        counts = [len(net.neighbors(i)) for i in net.nodes()]
        assert 2.5 <= np.mean(counts) <= 7.5

    def test_symmetric_mode(self):
        net = random_network(60, symmetric=True, rng=RngFactory(7).derive("t"))
        for i, j, p in net.links():
            if net.has_link(j, i):
                assert net.probability(j, i) == p
