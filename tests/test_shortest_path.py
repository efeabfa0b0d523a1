"""Dijkstra and the distributed Bellman-Ford agree and behave; the
network-native ``etx_tree`` equals the dict Dijkstra bit for bit."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.etx import etx_weights
from repro.routing.shortest_path import (
    DistributedBellmanFord,
    dijkstra,
    dijkstra_to_destination,
    etx_tree,
)
from repro.topology.random_network import random_network
from repro.util.rng import RngFactory
from tests.meshes import lossy_meshes


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


class TestDistributedBellmanFord:
    def test_matches_dijkstra_on_random_network(self):
        net = random_network(80, rng=RngFactory(1).derive("t"))
        weights = etx_weights(net)
        destination = 10
        reference = dijkstra_to_destination(net.nodes(), weights, destination)
        bf = DistributedBellmanFord(net.nodes(), weights, destination).run()
        assert bf.converged
        for node, dist in reference.distance.items():
            assert bf.distance(node) == pytest.approx(dist)

    def test_round_count_bounded_by_nodes(self):
        net = random_network(50, rng=RngFactory(2).derive("t"))
        bf = DistributedBellmanFord(net.nodes(), etx_weights(net), 0).run()
        assert bf.rounds <= net.node_count

    def test_path_from_follows_next_hops(self):
        bf = DistributedBellmanFord(range(4), small_weights(), 3).run()
        assert bf.path_from(0) == (0, 1, 3)

    def test_unreachable_gives_none(self):
        bf = DistributedBellmanFord(range(5), small_weights(), 3).run()
        assert bf.path_from(4) is None
        assert bf.distance(4) == float("inf")

    def test_distances_dict_excludes_unreachable(self):
        bf = DistributedBellmanFord(range(5), small_weights(), 3).run()
        assert 4 not in bf.distances()

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            DistributedBellmanFord(range(2), {(0, 1): -0.5}, 1)

    def test_unknown_destination_rejected(self):
        with pytest.raises(ValueError):
            DistributedBellmanFord(range(2), {}, 9)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_agreement_property(self, seed):
        net = random_network(30, rng=RngFactory(seed).derive("t"))
        weights = etx_weights(net)
        reference = dijkstra_to_destination(net.nodes(), weights, 0)
        bf = DistributedBellmanFord(net.nodes(), weights, 0).run()
        for node, dist in reference.distance.items():
            assert bf.distance(node) == pytest.approx(dist)
