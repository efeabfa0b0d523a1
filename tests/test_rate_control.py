"""The distributed rate control algorithm (paper Table 1)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimization.multi_session import MultiSessionRateControl
from repro.optimization.problem import session_graph_from_network
from repro.optimization.rate_control import (
    RateControlAlgorithm,
    RateControlConfig,
    RateControlDuals,
    feasible_scaling,
)
from repro.optimization.sub1_routing import Sub1Router
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


def _priced(graph, link_price=0.0, union_prices=None):
    """Warm-start duals pricing every link at ``link_price`` (and the
    given mu), everything else cold."""
    return RateControlDuals(
        link_prices={link: link_price for link in graph.links},
        congestion_prices={},
        union_prices=dict(union_prices or {}),
        rates={},
        iteration=0,
    )


class TestSub2:
    """SUB2 as the loop's ``step()`` runs it: (17), then (15)."""

    def test_rates_start_small_and_destination_zero(self):
        graph = fig1_graph()
        config = RateControlConfig(initial_rate=0.01)
        rates = RateControlAlgorithm(graph, config).duals.rates
        assert rates[graph.destination] == 0.0
        assert all(r == 0.01 for n, r in rates.items() if n != graph.destination)

    def test_high_prices_push_rates_up(self):
        graph = fig1_graph()
        algorithm = RateControlAlgorithm(graph, warm_start=_priced(graph, 5.0))
        algorithm.step()
        rates = algorithm.duals.rates
        assert any(rates[n] > 0.01 for n in graph.transmitters())

    def test_congestion_prices_react_to_overload(self):
        graph = fig1_graph()
        algorithm = RateControlAlgorithm(graph, RateControlConfig(initial_rate=0.9))
        algorithm.step()
        # Everyone at 0.9 massively violates the MAC constraint.
        assert any(beta > 0 for beta in algorithm.duals.congestion_prices.values())

    def test_rates_bounded(self):
        graph = fig1_graph()
        algorithm = RateControlAlgorithm(graph, warm_start=_priced(graph, 100.0))
        for _ in range(20):
            algorithm.step()
            assert all(0.0 <= r <= 1.0 for r in algorithm.duals.rates.values())

    def test_union_prices_enter_weights(self):
        graph = fig1_graph()
        a = RateControlAlgorithm(graph, warm_start=_priced(graph))
        b = RateControlAlgorithm(
            graph, warm_start=_priced(graph, union_prices={graph.source: 5.0})
        )
        a.step()
        b.step()
        assert b.duals.rates[graph.source] > a.duals.rates[graph.source]


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
        with pytest.raises(ValueError):
            RateControlConfig(proximal_c=0)
        with pytest.raises(ValueError):
            RateControlConfig(initial_rate=1.5)
        # Non-finite values used to pass: nan "converged" with every rate 0
        # or never converged, an infinite cap surfaced as an unreachable
        # destination and a nan cap as a ZeroDivisionError.
        for field_name, value in (
            ("proximal_c", math.nan),
            ("tolerance", math.nan),
            ("gamma_cap", math.inf),
            ("gamma_cap", math.nan),
        ):
            with pytest.raises(ValueError, match=f"^{field_name} must be finite"):
                RateControlConfig(**{field_name: value})

    @pytest.mark.parametrize("primal_recovery", [True, False])
    def test_one_session_multi_equals_single(self, primal_recovery):
        # One loop: over one session the multi-session face is the
        # single-session driver, ablations included.
        graph = fig1_graph()
        config = RateControlConfig(primal_recovery=primal_recovery)
        single = RateControlAlgorithm(graph, config).run()
        multi = MultiSessionRateControl([graph], config).run()
        assert multi.iterations == single.iterations
        assert multi.converged == single.converged
        assert repr(multi.broadcast_rates) == repr((single.broadcast_rates,))
        assert repr(multi.flows) == repr((single.flows,))
        assert repr(multi.throughputs) == repr((single.throughput,))

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
