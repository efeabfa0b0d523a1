"""Session graph construction and accessors."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.optimization.problem import (
    SessionGraph,
    session_graph_from_network,
    session_graph_from_selection,
)
from repro.routing.node_selection import NodeSelectionError, select_forwarders
from repro.topology.random_network import (
    diamond_topology,
    fig1_sample_topology,
    random_network,
)
from repro.util.rng import RngFactory


def diamond_graph():
    return session_graph_from_network(diamond_topology(), 0, 3)


class TestSessionGraph:
    def test_from_network(self):
        graph = diamond_graph()
        assert graph.node_count == 4
        assert graph.link_count == 4
        assert graph.source == 0
        assert graph.destination == 3

    def test_supply(self):
        graph = diamond_graph()
        assert graph.supply(0) == 1
        assert graph.supply(3) == -1
        assert graph.supply(1) == 0

    def test_out_in_links(self):
        graph = diamond_graph()
        assert graph.out_links(0) == ((0, 1), (0, 2))
        assert graph.in_links(3) == ((1, 3), (2, 3))

    def test_transmitters_exclude_sink_only_nodes(self):
        graph = diamond_graph()
        assert graph.transmitters() == (0, 1, 2)

    def test_mac_constrained_excludes_source(self):
        graph = diamond_graph()
        assert 0 not in graph.mac_constrained_nodes()
        assert set(graph.mac_constrained_nodes()) == {1, 2, 3}

    def test_union_probability(self):
        graph = diamond_graph()
        # S has links 0.6 and 0.5: q = 1 - 0.4*0.5 = 0.8.
        assert graph.union_probability(0) == pytest.approx(0.8)
        # Relay 1 has one link at 0.7.
        assert graph.union_probability(1) == pytest.approx(0.7)
        # Destination transmits nothing.
        assert graph.union_probability(3) == 0.0

    def test_denormalization(self):
        graph = diamond_graph()
        rates = graph.denormalize_rates({0: 0.5})
        assert rates[0] == pytest.approx(0.5 * graph.capacity)
        flows = graph.denormalize_flows({(0, 1): 0.25})
        assert flows[(0, 1)] == pytest.approx(0.25 * graph.capacity)

    def test_validation_same_endpoints(self):
        with pytest.raises(ValueError):
            SessionGraph(
                source=0,
                destination=0,
                nodes=(0,),
                links=(),
                probability={},
                neighbors={0: frozenset()},
                capacity=1.0,
            )

    def test_validation_unselected_link(self):
        with pytest.raises(ValueError):
            SessionGraph(
                source=0,
                destination=1,
                nodes=(0, 1),
                links=((0, 2),),
                probability={(0, 2): 0.5},
                neighbors={0: frozenset(), 1: frozenset()},
                capacity=1.0,
            )

    def test_validation_bad_probability(self):
        with pytest.raises(ValueError):
            SessionGraph(
                source=0,
                destination=1,
                nodes=(0, 1),
                links=((0, 1),),
                probability={(0, 1): 0.0},
                neighbors={0: frozenset(), 1: frozenset()},
                capacity=1.0,
            )


def two_node_graph(**overrides):
    fields = dict(
        source=0,
        destination=1,
        nodes=(0, 1),
        links=((0, 1),),
        probability={(0, 1): 0.5},
        neighbors={0: frozenset({1}), 1: frozenset({0})},
        capacity=1.0,
    )
    fields.update(overrides)
    return SessionGraph(**fields)


class TestIndexableInput:
    """What a positional index cannot tolerate is rejected by name."""

    def test_well_formed_graph_is_accepted(self):
        assert two_node_graph().index.q == (0.5, 0.0)

    def test_duplicate_node(self):
        with pytest.raises(ValueError, match="duplicate node 1"):
            two_node_graph(nodes=(0, 1, 1))

    def test_duplicate_link(self):
        with pytest.raises(ValueError, match=r"duplicate link \(0,1\)"):
            two_node_graph(links=((0, 1), (0, 1)))

    def test_neighbors_key_outside_nodes(self):
        neighbors = {0: frozenset({1}), 1: frozenset({0}), 7: frozenset()}
        with pytest.raises(ValueError, match="neighbors key 7"):
            two_node_graph(neighbors=neighbors)

    def test_neighbor_member_outside_nodes(self):
        neighbors = {0: frozenset({1, 9}), 1: frozenset({0})}
        with pytest.raises(ValueError, match="neighbor 9 of node 0"):
            two_node_graph(neighbors=neighbors)

    def test_node_without_neighbors_entry(self):
        with pytest.raises(ValueError, match="node 1 has no neighbors entry"):
            two_node_graph(neighbors={0: frozenset({1})})


class TestCompiledIndex:
    """Every table equals the scan of the dict-keyed fields it replaces."""

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=12, max_value=40),
    )
    @settings(max_examples=25, deadline=None)
    def test_tables_match_brute_force_scans(self, seed, node_count):
        network = random_network(node_count, rng=RngFactory(seed).derive("t"))
        graph = None
        for source in range(node_count):
            try:
                forwarders = select_forwarders(network, source, node_count - 1 - source)
            except (NodeSelectionError, ValueError):
                continue
            graph = session_graph_from_selection(network, forwarders)
            break
        assume(graph is not None)
        index = graph.index
        position = {node: v for v, node in enumerate(graph.nodes)}
        assert index.node_index == position
        assert index.source == position[graph.source]
        assert index.destination == position[graph.destination]
        for k, (i, j) in enumerate(graph.links):
            assert (index.tail[k], index.head[k]) == (position[i], position[j])
            assert index.p[k] == graph.probability[(i, j)]
        for v, node in enumerate(graph.nodes):
            leaving = tuple(l for l in graph.links if l[0] == node)
            entering = tuple(l for l in graph.links if l[1] == node)
            assert tuple(graph.links[k] for k in index.out_links[v]) == leaving
            assert tuple(graph.links[k] for k in index.in_links[v]) == entering
            assert graph.out_links(node) == leaving
            assert index.adjacency[v] == tuple(
                (j, position[j], graph.links.index((i, j))) for (i, j) in leaving
            )
            assert graph.in_links(node) == entering
            miss = 1.0
            for link in leaving:
                miss *= 1.0 - graph.probability[link]
            assert index.q[v] == 1.0 - miss == graph.union_probability(node)
            assert tuple(graph.nodes[j] for j in index.neighbors[v]) == tuple(
                graph.neighbors[node]
            )
        senders = tuple(sorted({i for (i, _) in graph.links}))
        assert tuple(graph.nodes[v] for v in index.transmitters) == senders
        assert graph.transmitters() == senders
        receivers = tuple(n for n in graph.nodes if n != graph.source)
        assert tuple(graph.nodes[v] for v in index.mac_constrained) == receivers
        assert graph.mac_constrained_nodes() == receivers

    def test_unsorted_nodes_and_links_keep_their_own_order(self):
        graph = SessionGraph(
            source=5,
            destination=2,
            nodes=(5, 9, 2),
            links=((9, 2), (5, 9), (5, 2)),
            probability={(9, 2): 0.5, (5, 9): 0.25, (5, 2): 0.75},
            neighbors={5: frozenset({9, 2}), 9: frozenset({5}), 2: frozenset()},
            capacity=1.0,
        )
        index = graph.index
        assert index.tail == (1, 0, 0)
        assert index.head == (2, 1, 2)
        assert index.out_links == ((1, 2), (0,), ())
        assert index.in_links == ((), (1,), (0, 2))
        assert graph.out_links(5) == ((5, 9), (5, 2))
        assert graph.transmitters() == (5, 9)
        assert index.transmitters == (0, 1)
        assert index.mac_constrained == (1, 2)
        assert index.q[0] == 1.0 - (1.0 - 0.25) * (1.0 - 0.75)

    def test_unknown_node_has_no_links(self):
        graph = diamond_graph()
        assert graph.out_links(99) == ()
        assert graph.in_links(99) == ()
        assert graph.union_probability(99) == 0.0


class TestFromSelection:
    def test_selection_graph_uses_dag_links(self):
        net = fig1_sample_topology()
        forwarders = select_forwarders(net, 0, 5)
        graph = session_graph_from_selection(net, forwarders)
        assert set(graph.links) == set(forwarders.dag_links)
        assert graph.capacity == net.capacity

    def test_neighbors_restricted_to_selection(self):
        net = fig1_sample_topology()
        forwarders = select_forwarders(net, 0, 5)
        graph = session_graph_from_selection(net, forwarders)
        for node in graph.nodes:
            assert graph.neighbors[node] <= forwarders.nodes

    def test_measured_probabilities_override(self):
        net = diamond_topology()
        forwarders = select_forwarders(net, 0, 3)
        measured = {link: 0.5 for link in forwarders.dag_links}
        graph = session_graph_from_selection(
            net, forwarders, probabilities=measured
        )
        for link in graph.links:
            assert graph.probability[link] == 0.5
