"""Ablation — the ln-utility transformation in SUB1.

The paper replaces the linear throughput objective with U(gamma) =
ln(gamma) so that SUB1's injected rate self-regulates: gamma =
U'^{-1}(p_min) = 1/p_min shrinks as the path price rises (eq. 12).  The
ablation replaces it with *fixed-rate injection* (always push the cap),
which removes the self-regulation: the dual prices must then do all the
damping and the recovered throughput overshoots the feasible optimum.
"""

import pytest

from repro.optimization.problem import session_graph_from_network
from repro.optimization.rate_control import RateControlAlgorithm, RateControlConfig
from repro.optimization.sub1_routing import Sub1Router
from repro.optimization.sunicast import solve_sunicast, verify_feasibility
from repro.topology.random_network import fig1_sample_topology


class _FixedInjectionRouter(Sub1Router):
    """SUB1 without the utility transformation: always inject the cap."""

    def _gamma_from_cost(self, path_cost: float) -> float:
        return self._gamma_cap


class _FixedInjectionRateControl(RateControlAlgorithm):
    """Table 1 with :class:`_FixedInjectionRouter` as its SUB1."""

    def _sub1(self, graph):
        config = self._config
        return _FixedInjectionRouter(
            graph,
            gamma_cap=config.gamma_cap,
            primal_recovery=config.primal_recovery,
            recovery_tail=config.recovery_tail,
        )


def _run(fixed_injection: bool):
    graph = session_graph_from_network(fig1_sample_topology(), 0, 5)
    config = RateControlConfig(
        max_iterations=150, min_iterations=150, patience=10_000
    )
    driver = _FixedInjectionRateControl if fixed_injection else RateControlAlgorithm
    result = driver(graph, config).run()
    lp = solve_sunicast(graph)
    violations = verify_feasibility(graph, result.as_solution(), tolerance=1e-3)
    return result.throughput / lp.throughput, violations


def test_utility_transform_ablation(benchmark):
    def run_both():
        return _run(False), _run(True)

    (ln_ratio, ln_viol), (fixed_ratio, fixed_viol) = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    benchmark.extra_info["ln_utility_gamma_over_lp"] = round(ln_ratio, 3)
    benchmark.extra_info["fixed_injection_gamma_over_lp"] = round(fixed_ratio, 3)
    benchmark.extra_info["ln_loss_violation"] = round(
        ln_viol["loss_coupling"], 4
    )
    benchmark.extra_info["fixed_loss_violation"] = round(
        fixed_viol["loss_coupling"], 4
    )
    # ln-utility tracks the optimum...
    assert ln_ratio == pytest.approx(1.0, abs=0.15)
    # ...while fixed injection overshoots it (its recovered flows are
    # infeasible: they claim more than the network can carry).
    assert fixed_ratio > ln_ratio
    assert fixed_viol["loss_coupling"] >= ln_viol["loss_coupling"]
