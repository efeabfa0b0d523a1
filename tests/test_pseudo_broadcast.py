"""Pseudo-broadcast cost model and reliable flood."""

import pytest

from repro.routing.pseudo_broadcast import (
    neighborhood_broadcast_cost,
    reliable_flood,
)
from repro.topology.random_network import (
    chain_topology,
    diamond_topology,
    network_from_links,
    random_network,
)
from repro.util.rng import RngFactory
from tests.reference import reference_mesh


class TestNeighborhoodCost:
    def test_single_perfect_neighbor_costs_one(self):
        net = chain_topology((1.0,))
        cost = neighborhood_broadcast_cost(net, 0)
        assert cost.transmissions == pytest.approx(1.0)
        assert cost.covered == frozenset({1})

    def test_lossy_neighbor_costs_expected_retries(self):
        net = chain_topology((0.5,))
        cost = neighborhood_broadcast_cost(net, 0)
        assert cost.transmissions == pytest.approx(2.0)

    def test_multiple_neighbors_benefit_from_overhearing(self):
        # Source with two neighbors: retransmissions for the first also
        # cover the second, so cost < sum of individual costs.
        net = diamond_topology(p_su=0.5, p_sv=0.5)
        cost = neighborhood_broadcast_cost(net, 0)
        assert cost.covered == frozenset({1, 2})
        # Never worse than unicasting to each neighbor separately.
        assert 2.0 <= cost.transmissions <= 4.0

    @pytest.mark.parametrize("sender", [-1, 120])
    def test_sender_outside_the_network_is_refused(self, sender):
        # -1 used to read node 119's out-links at p = 0 (a bare
        # ZeroDivisionError here), 120 to raise a bare IndexError.
        with pytest.raises(ValueError, match=f"sender {sender} outside 0..119"):
            neighborhood_broadcast_cost(reference_mesh(), sender)

    @pytest.mark.parametrize("threshold", [float("nan"), 1.0, 1.5, -0.1, float("inf")])
    def test_threshold_outside_the_unit_interval_is_refused(self, threshold):
        # At 1.0 this used to cost 0 transmissions and call node 1 covered.
        net = chain_topology((0.5, 0.9))
        with pytest.raises(ValueError, match=f"got {threshold}"):
            neighborhood_broadcast_cost(net, 0, residual_threshold=threshold)

    def test_no_neighbors(self):
        net = chain_topology((0.5,))
        cost = neighborhood_broadcast_cost(net, 1)  # node 1 has no out-links
        assert cost.transmissions == 0.0
        assert cost.covered == frozenset()

    def test_equal_best_links_target_the_lower_id_first(self):
        # 1 and 9 share a slot in an 8-entry set table, so which of the
        # two was targeted (= inserted) first shows in the iteration
        # order a flood forwards in.
        tied = network_from_links({(0, 1): 0.5, (0, 9): 0.5, (0, 5): 0.3})
        cost = neighborhood_broadcast_cost(tied, 0)
        assert repr(cost.transmissions) == "7.333333333333334"
        assert list(cost.covered) == [1, 5, 9]
        assert reliable_flood(tied, 0).forward_order == (0, 1, 5, 9)
        # Sensitivity: break the tie the other way and the order flips.
        untied = network_from_links({(0, 1): 0.4, (0, 9): 0.5, (0, 5): 0.3})
        assert list(neighborhood_broadcast_cost(untied, 0).covered) == [9, 5, 1]
        assert reliable_flood(untied, 0).forward_order == (0, 9, 5, 1)

    def test_overhearing_alone_covers_the_weakest_neighbor(self):
        # Five phases at 0.30 .. 0.26 run 17.9 transmissions; the 0.25
        # neighbor misses all of them with probability 0.75**17.9 < 0.01
        # and is covered without ever being a target.
        probabilities = (0.30, 0.29, 0.28, 0.27, 0.26, 0.25)
        net = network_from_links(
            {(0, j): p for j, p in enumerate(probabilities, start=1)}
        )
        cost = neighborhood_broadcast_cost(net, 0)
        targeted = 0.0
        for p in probabilities[:-1]:
            targeted += 1.0 / p
        assert cost.transmissions == targeted
        assert repr(cost.transmissions) == "17.90289531668842"
        assert cost.covered == frozenset(range(1, 7))


class TestReliableFlood:
    def test_flood_covers_connected_component(self):
        net = random_network(60, rng=RngFactory(5).derive("t"))
        result = reliable_flood(net, 0)
        # Every reached node heard the flood; origin always included.
        assert 0 in result.reached
        assert len(result.reached) > 1
        assert result.total_transmissions > 0

    def test_flood_restricted_to_eligible_forwarders(self):
        net = chain_topology((0.9, 0.9, 0.9))
        full = reliable_flood(net, 0)
        assert full.reached == frozenset({0, 1, 2, 3})
        # Only the origin forwards: the flood reaches what 0's own
        # pseudo-broadcast covers, and no further.
        limited = reliable_flood(net, 0, eligible=frozenset({0}))
        assert limited.forward_order == (0,)
        assert limited.reached == {0} | neighborhood_broadcast_cost(net, 0).covered

    def test_flood_origin_validated(self):
        net = chain_topology((0.5,))
        with pytest.raises(ValueError):
            reliable_flood(net, 9)

    def test_forward_order_starts_at_origin(self):
        net = chain_topology((0.9, 0.9))
        result = reliable_flood(net, 0)
        assert result.forward_order[0] == 0


class TestReferenceMeshOracle:
    """Literals recorded before the cost loop moved onto lists (PR 17).

    The 120-node lossy mesh the benchmark re-plans on.  Origins 0 and 57
    reach the same component at costs that differ in the last digit:
    ``total_transmissions`` is a float sum in ``forward_order``, and
    ``forward_order`` follows the iteration order of each ``covered``
    frozenset, so these pin target choice, set layout and summation
    order at once.
    """

    @pytest.fixture(scope="class")
    def mesh(self):
        return reference_mesh()

    COMPONENT = sorted(
        set(range(120))
        - {5, 9, 15, 16, 20, 23, 32, 38, 48, 55, 65, 77, 97, 105, 106, 112, 116, 119}
    )

    @pytest.mark.parametrize(
        "origin, transmissions, forward_order, reached",
        [
            (
                0,
                "1490.0070031831692",
                (0, 33, 34, 18, 58, 79, 40, 101, 63, 3, 59, 91, 94, 75, 76, 83,
                 19, 71, 78, 17, 90, 61, 109, 68, 92, 82, 108, 21, 24, 67, 80,
                 84, 118, 57, 10, 88, 1, 98, 99, 72, 11, 117, 54, 36, 73, 12,
                 45, 89, 52, 43, 47, 81, 113, 49, 115, 86, 26, 96, 4, 50, 7,
                 114, 25, 111, 13, 31, 60, 102, 39, 104, 110, 51, 27, 30, 56,
                 62, 107, 14, 103, 100, 93, 6, 29, 64, 2, 74, 69, 28, 41, 35,
                 8, 37, 66, 53, 85, 87, 44, 95, 70, 22, 42, 46),
                COMPONENT,
            ),
            (
                57,
                "1490.0070031831688",
                (57, 24, 89, 10, 52, 80, 84, 21, 118, 86, 7, 13, 31, 36, 12, 45,
                 60, 98, 99, 72, 11, 117, 54, 73, 67, 108, 81, 49, 113, 115,
                 26, 102, 114, 25, 47, 96, 4, 50, 88, 43, 111, 1, 82, 107, 39,
                 104, 110, 51, 27, 30, 56, 62, 92, 100, 93, 6, 29, 14, 103,
                 109, 61, 64, 2, 74, 69, 28, 41, 71, 35, 8, 37, 66, 53, 85, 87,
                 44, 95, 83, 19, 59, 70, 22, 42, 46, 3, 76, 78, 17, 90, 91, 94,
                 101, 75, 63, 68, 79, 0, 58, 33, 34, 18, 40),
                COMPONENT,
            ),
            (119, "19.852333384061073", (119, 16, 112, 32), [16, 32, 112, 119]),
        ],
    )
    def test_flood_literals(self, mesh, origin, transmissions, forward_order, reached):
        result = reliable_flood(mesh, origin)
        assert repr(result.total_transmissions) == transmissions
        assert result.forward_order == forward_order
        assert sorted(result.reached) == reached
