"""The ETX metric as routing computes it: ``1 / p_ij`` per link, summed
along a route, read from the network's own link qualities."""

import math

import pytest

from repro.protocols.etx_routing import plan_etx_route
from repro.routing.node_selection import NodeSelectionError
from repro.routing.shortest_path import etx_tree
from repro.topology.random_network import chain_topology
from tests.reference import etx_weights


class TestLinkEtx:
    def test_perfect_link(self):
        assert etx_tree(chain_topology((1.0,)), 0).distance[1] == 1.0

    def test_lossy_link(self):
        assert etx_tree(chain_topology((0.5,)), 0).distance[1] == pytest.approx(2.0)

    def test_dead_link_infinite(self):
        # A link that never delivers is no link: nothing is reached over it.
        dead = chain_topology((0.5,)).with_links({})
        assert etx_tree(dead, 0).distance.get(1, math.inf) == math.inf

    def test_out_of_range_rejected(self):
        net = chain_topology((0.5,))
        with pytest.raises(ValueError):
            net.with_links({(0, 1): 1.5})
        with pytest.raises(ValueError):
            net.with_links({(0, 1): -0.1})


class TestPathEtx:
    def test_sum_over_hops(self):
        net = chain_topology((0.5, 0.25))
        assert plan_etx_route(net, 0, 2).path_etx == pytest.approx(2.0 + 4.0)

    def test_missing_link_infinite(self):
        net = chain_topology((0.5,))
        assert etx_tree(net, 1).distance.get(0, math.inf) == math.inf
        with pytest.raises(NodeSelectionError):
            plan_etx_route(net, 1, 0)

    def test_trivial_path(self):
        tree = etx_tree(chain_topology((0.5,)), 0)
        assert tree.distance[0] == 0.0
        assert tree.path_to(0) == (0,)

    def test_etx_weights_cover_all_links(self):
        net = chain_topology((0.5, 0.8))
        weights = etx_weights(net)
        assert weights[(0, 1)] == pytest.approx(2.0)
        assert weights[(1, 2)] == pytest.approx(1.25)
        assert len(weights) == net.link_count()
