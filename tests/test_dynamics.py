"""Link-quality dynamics and re-planning cost."""

import numpy as np
import pytest

from repro.optimization.replanning import replan_cost
from repro.protocols import adaptive
from repro.protocols.omnc import plan_omnc_detailed
from repro.scenario import ScenarioTimeline, builtin_scenario
from repro.topology.dynamics import (
    perturb_link_qualities,
    quality_drift,
)
from repro.topology.graph import WirelessNetwork
from repro.topology.random_network import (
    diamond_topology,
    fig1_sample_topology,
    random_network,
)
from repro.util.rng import RngFactory
from tests.reference import link_table_digest, reference_mesh


def scalar_drift_reference(network, sigma, generator):
    """The per-link loop ``perturb_link_qualities`` ran before PR 17."""
    drifted = {}
    for i, j, p in network.links():
        logit = np.log(p / (1.0 - p))
        shifted = logit + generator.normal(0.0, sigma)
        value = 1.0 / (1.0 + np.exp(-shifted))
        drifted[(i, j)] = float(np.clip(value, 0.02, 0.995))
    return drifted


def builtin_drift_link_tables():
    """The reference mesh's link table before, during and after the
    built-in drift scenario; pinned on the per-link scalar implementation."""
    net = reference_mesh()
    tables = [link_table_digest(net)]
    timeline = ScenarioTimeline(
        net,
        builtin_scenario("drift", duration=120.0, epoch_seconds=10.0),
        rng=RngFactory(2008).derive("scenario"),
    )
    for time, applied in ((40.0, 1), (120.0, 2)):
        assert timeline.advance_to(time) and timeline.applied_events == applied
        tables.append(link_table_digest(timeline.network))
    return tuple(tables)


class TestPerturbation:
    def test_zero_sigma_is_identity(self):
        net = random_network(30, rng=RngFactory(1).derive("t"))
        same = perturb_link_qualities(net, sigma=0.0)
        assert sorted(same.links()) == sorted(net.links())

    def test_geometry_preserved(self):
        net = random_network(30, rng=RngFactory(2).derive("t"))
        drifted = perturb_link_qualities(net, sigma=0.5, rng=np.random.default_rng(0))
        assert np.array_equal(drifted.positions, net.positions)
        assert {(i, j) for i, j, _ in drifted.links()} == {
            (i, j) for i, j, _ in net.links()
        }

    def test_probabilities_stay_in_bounds(self):
        net = random_network(30, rng=RngFactory(3).derive("t"))
        drifted = perturb_link_qualities(net, sigma=3.0, rng=np.random.default_rng(1))
        for _, _, p in drifted.links():
            assert 0.02 <= p <= 0.995

    def test_larger_sigma_larger_drift(self):
        net = random_network(40, rng=RngFactory(4).derive("t"))
        small = perturb_link_qualities(net, sigma=0.1, rng=np.random.default_rng(2))
        large = perturb_link_qualities(net, sigma=1.0, rng=np.random.default_rng(2))
        assert quality_drift(net, large) > quality_drift(net, small)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            perturb_link_qualities(diamond_topology(), sigma=-0.1)

    def test_zero_sigma_consumes_no_draw(self):
        net = random_network(30, rng=RngFactory(1).derive("t"))
        used, untouched = np.random.default_rng(9), np.random.default_rng(9)
        same = perturb_link_qualities(net, sigma=0.0, rng=used)
        assert list(same.links()) == list(net.links())
        assert used.random() == untouched.random()

    @pytest.mark.parametrize("sigma", [0.3, 0.6])
    def test_array_drift_equals_the_scalar_loop(self, sigma):
        net = reference_mesh()
        array_rng, scalar_rng = np.random.default_rng(17), np.random.default_rng(17)
        drifted = perturb_link_qualities(net, sigma=sigma, rng=array_rng)
        expected = scalar_drift_reference(net, sigma, scalar_rng)
        # Same links in the same order, every value bit for bit ...
        assert [((i, j), p) for i, j, p in drifted.links()] == list(expected.items())
        # ... and the stream left where the scalar draws leave it.
        assert array_rng.random() == scalar_rng.random()

    def test_perfect_link_drifts_to_the_ceiling(self):
        # p == 1.0 is a legal link; its logit is +inf (the scalar loop
        # divided by zero here).  It still consumes its draw.
        positions = np.array([[0.0, 0.0], [1.0, 0.0]])
        net = WirelessNetwork(positions, {(0, 1): 1.0, (1, 0): 0.5}, 2.0)
        used, scalar = np.random.default_rng(4), np.random.default_rng(4)
        drifted = perturb_link_qualities(net, sigma=0.3, rng=used)
        assert drifted.probability(0, 1) == 0.995
        scalar.normal(0.0, 0.3)  # the perfect link's draw
        second = 1.0 / (1.0 + np.exp(-scalar.normal(0.0, 0.3)))
        assert drifted.probability(1, 0) == float(second)
        assert used.random() == scalar.random()


class TestDrift:
    def test_self_drift_zero(self):
        net = diamond_topology()
        assert quality_drift(net, net) == 0.0
        assert quality_drift(net, diamond_topology()) == 0.0  # equal, not identical

    def test_mismatched_link_sets_rejected(self):
        with pytest.raises(ValueError, match="different link sets"):
            quality_drift(diamond_topology(), diamond_topology(p_st=0.1))


class TestReplanCost:
    def test_cost_components_positive(self):
        net = random_network(50, rng=RngFactory(5).derive("t"))
        # Find a plannable pair.
        from repro.routing.node_selection import NodeSelectionError, select_forwarders

        pair = None
        for s in range(net.node_count):
            for t in range(net.node_count - 1, -1, -1):
                if s == t:
                    continue
                try:
                    select_forwarders(net, s, t)
                    pair = (s, t)
                    break
                except NodeSelectionError:
                    continue
            if pair:
                break
        assert pair is not None
        cost = replan_cost(net, *pair)
        assert cost.flood_transmissions > 0
        assert cost.rate_control_messages > 0
        assert cost.rate_control_iterations > 0
        assert cost.channel_seconds > 0

    def test_invalid_packet_size(self):
        net = diamond_topology()
        with pytest.raises(ValueError):
            replan_cost(net, 0, 3, control_packet_bytes=0)

    def test_prebuilt_graph_gives_the_same_cost(self):
        net = fig1_sample_topology()
        graph = plan_omnc_detailed(net, 0, 5).graph
        assert replan_cost(net, 0, 5, graph=graph) == replan_cost(net, 0, 5)

    def test_prebuilt_graph_must_match_the_endpoints(self):
        net = fig1_sample_topology()
        graph = plan_omnc_detailed(net, 0, 5).graph
        with pytest.raises(ValueError, match="0->5"):
            replan_cost(net, 0, 4, graph=graph)

    def test_planner_reuses_its_graph_only_on_the_planned_network(self, monkeypatch):
        net = fig1_sample_topology()
        drifted = perturb_link_qualities(net, sigma=0.4, rng=np.random.default_rng(3))
        handed = []

        def spy(network, source, destination, *, graph=None, **kwargs):
            handed.append(graph)
            return replan_cost(network, source, destination, graph=graph, **kwargs)

        monkeypatch.setattr(adaptive, "replan_cost", spy)
        planner = adaptive.AdaptiveOmncPlanner(0, 5)
        fresh = adaptive.AdaptiveOmncPlanner(0, 5)
        planner.plan(net)
        assert planner.control_cost_seconds(net) == fresh.control_cost_seconds(net)
        assert planner.control_cost_seconds(drifted) == fresh.control_cost_seconds(
            drifted
        )
        assert [graph is not None for graph in handed] == [True, False, False, False]

    def test_overhead_amortizes_over_long_sessions(self):
        # Paper Sec. 4: re-initiation overhead is acceptable "for long
        # lived unicast sessions" — the control airtime must be small
        # next to an 800 s session.
        net = diamond_topology(capacity=2e4)
        cost = replan_cost(net, 0, 3)
        assert cost.channel_seconds < 0.1 * 800.0
