"""The distributed rate control algorithm (paper Table 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimization.problem import session_graph_from_network
from repro.optimization.rate_control import (
    RateControlAlgorithm,
    RateControlConfig,
    feasible_scaling,
)
from repro.optimization.sub1_routing import Sub1Router
from repro.optimization.sub2_rates import Sub2RateAllocator
from repro.optimization.subgradient import ConstantStepSize
from repro.optimization.sunicast import solve_sunicast, verify_feasibility
from repro.topology.random_network import (
    diamond_topology,
    fig1_sample_topology,
)
from tests.meshes import lossy_meshes
from tests.reference import single_feasible_scaling


def fig1_graph():
    return session_graph_from_network(fig1_sample_topology(), 0, 5)


class TestSub1:
    def test_zero_prices_give_capped_gamma(self):
        graph = fig1_graph()
        router = Sub1Router(graph, gamma_cap=1.0)
        iterate = router.step({link: 0.0 for link in graph.links})
        assert iterate.gamma == 1.0
        assert iterate.path[0] == graph.source
        assert iterate.path[-1] == graph.destination

    def test_gamma_is_inverse_path_cost(self):
        graph = fig1_graph()
        router = Sub1Router(graph, gamma_cap=1.0)
        prices = {link: 2.0 for link in graph.links}
        iterate = router.step(prices)
        assert iterate.gamma == pytest.approx(1.0 / iterate.path_cost)

    def test_flows_live_on_path_only(self):
        graph = fig1_graph()
        router = Sub1Router(graph)
        iterate = router.step({link: 1.0 for link in graph.links})
        hops = set(zip(iterate.path, iterate.path[1:]))
        for link, value in iterate.flows.items():
            if link in hops:
                assert value == iterate.gamma
            else:
                assert value == 0.0

    def test_recovery_averages(self):
        graph = fig1_graph()
        router = Sub1Router(graph, recovery_tail=1.0)
        router.step({link: 0.0 for link in graph.links})
        router.step({link: 10.0 for link in graph.links})
        gamma_bar = router.recovered_gamma
        assert 0 < gamma_bar < 1.0

    def test_negative_price_rejected(self):
        graph = fig1_graph()
        router = Sub1Router(graph)
        bad = {link: 0.0 for link in graph.links}
        bad[graph.links[0]] = -1.0
        with pytest.raises(ValueError):
            router.step(bad)

    def test_no_recovery_mode_returns_last(self):
        graph = fig1_graph()
        router = Sub1Router(graph, primal_recovery=False)
        router.step({link: 0.0 for link in graph.links})
        assert router.recovered_gamma == router.last_iterate.gamma


class TestSub2:
    def test_rates_start_small_and_destination_zero(self):
        graph = fig1_graph()
        allocator = Sub2RateAllocator(graph, initial_rate=0.01)
        rates = allocator.rates
        assert rates[graph.destination] == 0.0
        assert all(r == 0.01 for n, r in rates.items() if n != graph.destination)

    def test_high_prices_push_rates_up(self):
        graph = fig1_graph()
        allocator = Sub2RateAllocator(graph)
        prices = {link: 5.0 for link in graph.links}
        for _ in range(5):
            allocator.step(prices, 0.1)
        transmitters = {i for (i, _) in graph.links}
        assert any(allocator.rates[n] > 0.01 for n in transmitters)

    def test_congestion_prices_react_to_overload(self):
        graph = fig1_graph()
        allocator = Sub2RateAllocator(graph, initial_rate=0.9)
        prices = {link: 0.0 for link in graph.links}
        iterate = allocator.step(prices, 0.5)
        # Everyone at 0.9 massively violates the MAC constraint.
        assert iterate.worst_violation > 0
        assert any(beta > 0 for beta in iterate.congestion_prices.values())

    def test_rates_bounded(self):
        graph = fig1_graph()
        allocator = Sub2RateAllocator(graph)
        prices = {link: 100.0 for link in graph.links}
        for _ in range(20):
            allocator.step(prices, 0.1)
        assert all(0.0 <= r <= 1.0 for r in allocator.rates.values())

    def test_invalid_step_size(self):
        graph = fig1_graph()
        allocator = Sub2RateAllocator(graph)
        with pytest.raises(ValueError):
            allocator.step({}, 0.0)

    def test_union_prices_enter_weights(self):
        graph = fig1_graph()
        a = Sub2RateAllocator(graph)
        b = Sub2RateAllocator(graph)
        prices = {link: 0.0 for link in graph.links}
        a.step(prices, 0.1)
        b.step(prices, 0.1, {graph.source: 5.0})
        assert b.rates[graph.source] > a.rates[graph.source]


class TestRateControl:
    def test_tracks_lp_optimum_on_fig1(self):
        graph = fig1_graph()
        lp = solve_sunicast(graph)
        result = RateControlAlgorithm(graph).run()
        assert result.converged
        assert result.throughput == pytest.approx(lp.throughput, rel=0.15)

    def test_tracks_lp_optimum_on_diamond(self):
        graph = session_graph_from_network(diamond_topology(), 0, 3)
        lp = solve_sunicast(graph)
        result = RateControlAlgorithm(graph).run()
        assert result.throughput == pytest.approx(lp.throughput, rel=0.2)

    def test_recovered_allocation_nearly_feasible(self):
        graph = fig1_graph()
        result = RateControlAlgorithm(graph).run()
        violations = verify_feasibility(
            graph, result.as_solution(), tolerance=0.05
        )
        assert violations["mac"] == 0.0
        assert violations["loss_coupling"] <= 0.05

    def test_history_lengths_match_iterations(self):
        graph = fig1_graph()
        result = RateControlAlgorithm(graph).run()
        assert len(result.rate_history) == result.iterations
        assert len(result.gamma_history) == result.iterations

    def test_denormalization_helpers(self):
        graph = fig1_graph()
        result = RateControlAlgorithm(graph).run()
        bps = result.rates_bytes_per_second()
        for node, rate in result.broadcast_rates.items():
            assert bps[node] == pytest.approx(rate * graph.capacity)
        assert result.throughput_bytes_per_second() == pytest.approx(
            result.throughput * graph.capacity
        )

    def test_max_iterations_respected(self):
        graph = fig1_graph()
        config = RateControlConfig(max_iterations=5, min_iterations=1)
        result = RateControlAlgorithm(graph, config).run()
        assert result.iterations == 5
        assert not result.converged

    def test_constant_step_size_supported(self):
        graph = fig1_graph()
        config = RateControlConfig(
            step_size=ConstantStepSize(0.05), max_iterations=50, min_iterations=1
        )
        result = RateControlAlgorithm(graph, config).run()
        assert result.iterations <= 50

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RateControlConfig(max_iterations=0)
        with pytest.raises(ValueError):
            RateControlConfig(min_iterations=100, max_iterations=10)
        with pytest.raises(ValueError):
            RateControlConfig(tolerance=0)
        with pytest.raises(ValueError):
            RateControlConfig(patience=0)
        with pytest.raises(ValueError):
            RateControlConfig(recovery_tail=0)

    def test_union_prices_exposed(self):
        graph = fig1_graph()
        algorithm = RateControlAlgorithm(graph)
        for _ in range(10):
            algorithm.step()
        assert set(algorithm.union_prices) == set(graph.transmitters())


class TestFeasibleScaling:
    def test_feasible_rates_untouched(self):
        graph = session_graph_from_network(diamond_topology(), 0, 3)
        rates = {n: 0.1 for n in graph.nodes}
        scaled, factor = feasible_scaling(graph, rates)
        assert factor == 1.0
        assert scaled == rates

    def test_overload_scaled_down(self):
        graph = session_graph_from_network(diamond_topology(), 0, 3)
        rates = {n: 0.9 for n in graph.nodes}
        scaled, factor = feasible_scaling(graph, rates)
        assert factor > 1.0
        for node in graph.mac_constrained_nodes():
            load = scaled.get(node, 0.0) + sum(
                scaled.get(j, 0.0) for j in graph.neighbors[node]
            )
            assert load <= 1.0 + 1e-9

    def test_saturate_scales_up(self):
        graph = session_graph_from_network(diamond_topology(), 0, 3)
        rates = {n: 0.05 for n in graph.nodes}
        scaled, factor = feasible_scaling(graph, rates, saturate=True)
        assert factor < 1.0
        assert all(scaled[n] >= rates[n] for n in rates)

    def test_saturate_respects_cap(self):
        graph = session_graph_from_network(diamond_topology(), 0, 3)
        rates = {n: 0.001 for n in graph.nodes}
        scaled, factor = feasible_scaling(
            graph, rates, saturate=True, max_scale_up=2.0
        )
        assert factor == pytest.approx(0.5)

    def test_zero_rates_pass_through(self):
        graph = session_graph_from_network(diamond_topology(), 0, 3)
        scaled, factor = feasible_scaling(graph, {n: 0.0 for n in graph.nodes})
        assert factor == 1.0

    @given(lossy_meshes(), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_single_session_body(self, net, saturate, data):
        # ``feasible_scaling`` is ``multi_feasible_scaling`` over one graph;
        # the body it replaced (tests/reference.py) is its oracle, to the bit.
        source = data.draw(st.integers(0, net.node_count - 1))
        destination = data.draw(
            st.integers(0, net.node_count - 2).map(
                lambda d: d if d < source else d + 1
            )
        )
        graph = session_graph_from_network(net, source, destination)
        rates = {
            node: data.draw(st.sampled_from((0.0, 0.25, 1.0)) | st.floats(0.0, 2.0))
            for node in graph.nodes
        }
        assert repr(feasible_scaling(graph, rates, saturate=saturate)) == repr(
            single_feasible_scaling(graph, rates, saturate=saturate)
        )
