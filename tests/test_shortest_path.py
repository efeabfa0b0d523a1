"""Dijkstra and the distributed Bellman-Ford agree and behave; the
network-native ``etx_tree`` equals the dict Dijkstra bit for bit.  The
distributed Bellman-Ford is the message census's SUB1
(:class:`repro.optimization.messages.DistanceVectorRouter`)."""

import math
import pickle

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.optimization.messages import DistanceVectorRouter
from repro.optimization.problem import SessionGraph, session_graph_from_selection
from repro.optimization.rate_control import RateControlAlgorithm, RateControlConfig
from repro.optimization.sub1_routing import Sub1Router
from repro.routing.node_selection import NodeSelectionError, select_forwarders
from repro.routing.shortest_path import dijkstra, etx_tree
from repro.topology.dynamics import perturb_link_qualities
from repro.topology.random_network import random_network
from repro.util.rng import RngFactory
from tests.meshes import lossy_meshes
from tests.reference import dijkstra_to_destination, etx_weights


def small_weights():
    # 0 -> 1 -> 3 cheap; 0 -> 2 -> 3 expensive; 0 -> 3 direct medium.
    return {
        (0, 1): 1.0,
        (1, 3): 1.0,
        (0, 2): 2.0,
        (2, 3): 3.0,
        (0, 3): 2.5,
    }


class TestDijkstra:
    def test_shortest_path_found(self):
        result = dijkstra(range(4), small_weights(), 0)
        assert result.distance[3] == pytest.approx(2.0)
        assert result.path_to(3) == (0, 1, 3)
        assert result.hop_count(3) == 2

    def test_unreachable_node_absent(self):
        result = dijkstra(range(5), small_weights(), 0)
        assert 4 not in result.distance
        assert result.path_to(4) is None
        assert result.hop_count(4) is None

    def test_source_distance_zero(self):
        result = dijkstra(range(4), small_weights(), 0)
        assert result.distance[0] == 0.0
        assert result.path_to(0) == (0,)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            dijkstra(range(2), {(0, 1): -1.0}, 0)

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError):
            dijkstra(range(2), {}, 7)

    def test_zero_weights_allowed(self):
        result = dijkstra(range(3), {(0, 1): 0.0, (1, 2): 0.0}, 0)
        assert result.distance[2] == 0.0


class TestDijkstraToDestination:
    def test_distances_to_destination(self):
        result = dijkstra_to_destination(range(4), small_weights(), 3)
        assert result.distance[0] == pytest.approx(2.0)
        assert result.distance[1] == pytest.approx(1.0)
        assert result.distance[2] == pytest.approx(3.0)

    def test_predecessor_is_next_hop(self):
        result = dijkstra_to_destination(range(4), small_weights(), 3)
        assert result.predecessor[0] == 1  # 0's next hop toward 3


def _reprs(distance):
    return {node: repr(dist) for node, dist in distance.items()}


class TestEtxTree:
    """``etx_tree`` against its oracle, the dict Dijkstra on ``etx_weights``."""

    @given(lossy_meshes(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_full_tree_equals_dijkstra(self, net, data):
        root = data.draw(st.integers(0, net.node_count - 1))
        oracle = dijkstra(net.nodes(), etx_weights(net), root)
        tree = etx_tree(net, root)
        assert _reprs(tree.distance) == _reprs(oracle.distance)
        assert tree.predecessor == oracle.predecessor
        assert tree.source == root

    @given(lossy_meshes(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_toward_equals_dijkstra_to_destination(self, net, data):
        root = data.draw(st.integers(0, net.node_count - 1))
        oracle = dijkstra_to_destination(net.nodes(), etx_weights(net), root)
        tree = etx_tree(net, root, toward=True)
        assert _reprs(tree.distance) == _reprs(oracle.distance)
        assert tree.predecessor == oracle.predecessor

    @given(lossy_meshes(), st.booleans(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_until_settles_its_target_and_all_closer(self, net, toward, data):
        root = data.draw(st.integers(0, net.node_count - 1))
        target = data.draw(st.integers(0, net.node_count - 1))
        full = etx_tree(net, root, toward=toward)
        bounded = etx_tree(net, root, toward=toward, until=target)
        if target not in full.distance:
            # Unreachable: nothing stops the search, the target stays absent.
            assert target not in bounded.distance
            assert _reprs(bounded.distance) == _reprs(full.distance)
            return
        assert bounded.path_to(target) == full.path_to(target)
        assert repr(bounded.distance[target]) == repr(full.distance[target])
        reach = (full.distance[target], target)
        for node, dist in full.distance.items():
            if (dist, node) <= reach:
                # Popped no later than the target: final.
                assert repr(bounded.distance[node]) == repr(dist)
                assert bounded.path_to(node) == full.path_to(node)
            elif node in bounded.distance:
                # Not popped: an upper bound, never below the target's.
                assert bounded.distance[node] >= dist
                assert bounded.distance[node] >= full.distance[target]
        # Stopped *at* the pop: nothing past the target was relaxed from.
        for node, parent in bounded.predecessor.items():
            assert (full.distance[parent], parent) < reach

    @given(lossy_meshes(), st.booleans(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_until_root_returns_the_root_alone(self, net, toward, data):
        root = data.draw(st.integers(0, net.node_count - 1))
        tree = etx_tree(net, root, toward=toward, until=root)
        assert tree.distance == {root: 0.0}
        assert tree.predecessor == {}

    def test_unknown_root_rejected(self):
        net = random_network(10, rng=RngFactory(3).derive("t"))
        for root in (-1, 10):
            with pytest.raises(ValueError, match="not among nodes"):
                etx_tree(net, root)

    def test_unknown_until_rejected(self):
        # An ``until`` outside the network never pops; it is an error, not
        # a silent full tree.
        net = random_network(10, rng=RngFactory(3).derive("t"))
        for toward in (False, True):
            for until in (-1, 10, 99):
                with pytest.raises(ValueError, match=f"until {until} not among nodes"):
                    etx_tree(net, 0, toward=toward, until=until)


def _tree_reprs(tree):
    return _reprs(tree.distance), tree.predecessor


def _trees(net, root, target):
    """``root``'s full trees both ways and its bounded ones at ``target``."""
    return (
        _tree_reprs(etx_tree(net, root)),
        _tree_reprs(etx_tree(net, root, toward=True)),
        _tree_reprs(etx_tree(net, root, until=target)),
        _tree_reprs(etx_tree(net, root, toward=True, until=target)),
    )


def _assert_matches_oracle(net, root, target):
    weights = etx_weights(net)
    for toward, oracle in (
        (False, dijkstra(net.nodes(), weights, root)),
        (True, dijkstra_to_destination(net.nodes(), weights, root)),
    ):
        tree = etx_tree(net, root, toward=toward)
        assert _reprs(tree.distance) == _reprs(oracle.distance)
        assert tree.predecessor == oracle.predecessor
        bounded = etx_tree(net, root, toward=toward, until=target)
        assert bounded.path_to(target) == oracle.path_to(target)
        if target in oracle.distance:
            assert repr(bounded.distance[target]) == repr(oracle.distance[target])


class TestEtxRowsFollowTheirNetwork:
    """A network derived by ``with_links`` routes on its own ``p``, never on
    cost rows its parent built."""

    @given(lossy_meshes(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_derived_networks_route_on_their_own_links(self, net, data):
        root = data.draw(st.integers(0, net.node_count - 1))
        target = data.draw(st.integers(0, net.node_count - 1))
        down = data.draw(st.integers(0, net.node_count - 1))
        seed = data.draw(st.integers(0, 2**16))
        before = _trees(net, root, target)  # builds both of net's tables

        drifted = perturb_link_qualities(net, sigma=1.0, rng=RngFactory(seed).derive("t"))
        links = {(i, j): p for i, j, p in drifted.links()}
        failed = drifted.with_links(
            {link: p for link, p in links.items() if down not in link}
        )
        _trees(failed, root, target)  # builds the failed network's tables too
        recovered = failed.with_links(links)

        for derived in (drifted, failed, recovered):
            _assert_matches_oracle(derived, root, target)
        assert _trees(recovered, root, target) == _trees(drifted, root, target)
        assert _trees(net, root, target) == before
        _assert_matches_oracle(net, root, target)


class TestEtxRowsNeverTravel:
    """The cost rows stay out of the pickled state: a network crosses a
    pipe at the size it had before any route was computed on it."""

    @staticmethod
    def _networks():
        net = random_network(120, rng=RngFactory(2008).derive("t"))
        drifted = perturb_link_qualities(net, sigma=0.3, rng=RngFactory(7).derive("d"))
        return net, drifted

    def test_pickle_is_byte_identical_after_routing(self):
        for net in self._networks():
            cold = pickle.dumps(net)
            etx_tree(net, 0)
            etx_tree(net, 0, toward=True)
            assert net.etx_rows() is net.etx_rows()  # built once, kept
            assert net.etx_rows(True) is net.etx_rows(True)
            assert pickle.dumps(net) == cold

    def test_unpickled_network_rebuilds_equal_rows(self):
        for net in self._networks():
            rows = (net.etx_rows(), net.etx_rows(True))
            copy = pickle.loads(pickle.dumps(net))
            assert (copy.etx_rows(), copy.etx_rows(True)) == rows


def small_session(destination=3):
    """``small_weights`` as a session graph; ``destination=4`` adds an
    isolated node."""
    return SessionGraph(
        source=0,
        destination=destination,
        nodes=tuple(range(max(destination + 1, 4))),
        links=tuple(sorted(small_weights())),
        probability={link: 0.5 for link in small_weights()},
        neighbors={node: frozenset() for node in range(max(destination + 1, 4))},
        capacity=1.0,
    )


def selectable_session(net, source, destination):
    try:
        forwarders = select_forwarders(net, source, destination)
    except NodeSelectionError:
        return None
    return session_graph_from_selection(net, forwarders)


class _CheckedRouter(DistanceVectorRouter):
    """The census SUB1, held against Dijkstra SUB1 on every call."""

    def route(self, weights):
        flows = super().route(weights)
        oracle = Sub1Router(self._graph)
        oracle.route(weights)
        census, reference = self.last_iterate, oracle.last_iterate
        graph = self._graph
        assert census.path[0] == graph.source
        assert census.path[-1] == graph.destination
        assert len(set(census.path)) == len(census.path)
        assert set(zip(census.path, census.path[1:])) <= set(graph.links)
        assert math.isclose(census.path_cost, reference.path_cost, rel_tol=1e-12)
        return flows


class _CheckedLoop(RateControlAlgorithm):
    def _sub1(self, graph):
        self.router = _CheckedRouter(graph)
        return self.router


class TestDistributedBellmanFord:
    """The distance-vector exchange the message census runs as SUB1."""

    def test_matches_dijkstra_on_random_network(self):
        net = random_network(80, rng=RngFactory(1).derive("t"))
        graph = next(
            g
            for g in (selectable_session(net, 0, d) for d in range(79, 0, -1))
            if g is not None and len(g.nodes) > 4
        )
        loop = _CheckedLoop(graph)
        result = loop.run()
        assert loop.router.iterations == result.iterations

    def test_round_count_bounded_by_nodes(self):
        net = random_network(50, rng=RngFactory(2).derive("t"))
        graph = next(
            g
            for g in (selectable_session(net, 0, d) for d in range(49, 0, -1))
            if g is not None
        )
        router = DistanceVectorRouter(graph)
        iterate = router.step({link: 1.0 / p for link, p in graph.probability.items()})
        # At most |V| rounds, each at most one advertisement per node.
        count = len(graph.nodes)
        assert 0 < router.distance_advertisements <= count * count
        assert router.flow_setup_tokens == len(iterate.path) - 1

    def test_path_from_follows_next_hops(self):
        router = DistanceVectorRouter(small_session())
        iterate = router.step(small_weights())
        assert iterate.path == (0, 1, 3)
        assert iterate.path_cost == 2.0
        assert router.flow_setup_tokens == 2

    def test_unreachable_destination_rejected(self):
        # One error for both SUB1 solvers.
        graph = small_session(destination=4)
        for router in (DistanceVectorRouter(graph), Sub1Router(graph)):
            with pytest.raises(ValueError, match="destination unreachable"):
                router.step(small_weights())

    def test_negative_weight_rejected(self):
        weights = dict(small_weights())
        weights[(0, 1)] = -0.5
        for router in (DistanceVectorRouter(small_session()), Sub1Router(small_session())):
            with pytest.raises(ValueError, match=r"negative price on link \(0, 1\)"):
                router.step(weights)

    @given(lossy_meshes(), st.data())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    def test_agreement_property(self, net, data):
        # Every iteration's distance-vector path runs source -> destination
        # over graph links at Dijkstra SUB1's cost.
        source = data.draw(st.integers(0, net.node_count - 1))
        destination = data.draw(
            st.integers(0, net.node_count - 2).map(
                lambda d: d if d < source else d + 1
            )
        )
        graph = selectable_session(net, source, destination)
        assume(graph is not None)
        config = RateControlConfig(max_iterations=60, min_iterations=1)
        loop = _CheckedLoop(graph, config)
        result = loop.run()
        assert loop.router.iterations == result.iterations
