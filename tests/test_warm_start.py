"""The public warm-start API: dual prices out, fewer iterations back in.

Sec. 4 of the paper concedes that drift forces the rate allocation to be
"re-initiated".  The :class:`RateControlDuals` surface makes that
re-initiation cheap: a re-plan seeded with the previous run's duals must
re-converge in measurably fewer subgradient iterations than a cold start.
"""

import numpy as np
import pytest

from repro.optimization.problem import session_graph_from_network
from repro.optimization.rate_control import (
    RateControlAlgorithm,
    RateControlDuals,
)
from repro.protocols.omnc import plan_omnc_detailed
from repro.topology.dynamics import perturb_link_qualities
from repro.topology.random_network import fig1_sample_topology


def fig1_graph():
    return session_graph_from_network(fig1_sample_topology(), 0, 5)


class TestDualsExposure:
    def test_result_carries_duals(self):
        graph = fig1_graph()
        result = RateControlAlgorithm(graph).run()
        duals = result.duals
        assert duals is not None
        assert duals.iteration == result.iterations
        assert set(duals.link_prices) == set(graph.links)
        assert all(v >= 0 for v in duals.link_prices.values())
        assert all(v >= 0 for v in duals.congestion_prices.values())
        assert all(v >= 0 for v in duals.union_prices.values())
        # The accessor views mirror the duals object.
        assert result.link_prices == duals.link_prices
        assert result.congestion_prices == duals.congestion_prices

    def test_negative_prices_rejected(self):
        with pytest.raises(ValueError, match="negative link price"):
            RateControlDuals(
                link_prices={(0, 1): -0.1},
                congestion_prices={},
                union_prices={},
                rates={},
                iteration=0,
            )
        with pytest.raises(ValueError, match="negative congestion price"):
            RateControlDuals(
                link_prices={},
                congestion_prices={2: -1.0},
                union_prices={},
                rates={},
                iteration=0,
            )
        with pytest.raises(ValueError, match="iteration"):
            RateControlDuals({}, {}, {}, {}, iteration=-1)

    def test_plan_report_exposes_duals(self):
        report = plan_omnc_detailed(fig1_sample_topology(), 0, 5)
        assert report.duals is not None
        assert report.duals.iteration == report.plan.iterations


class TestWarmStartConvergence:
    def test_warm_restart_is_faster_after_drift(self):
        network = fig1_sample_topology()
        cold = plan_omnc_detailed(network, 0, 5)
        drifted = perturb_link_qualities(
            network, sigma=0.2, rng=np.random.default_rng(1)
        )
        recold = plan_omnc_detailed(drifted, 0, 5)
        warm = plan_omnc_detailed(drifted, 0, 5, warm_start=cold.duals)
        assert warm.converged
        assert warm.plan.iterations < recold.plan.iterations

    def test_same_topology_restart_converges_immediately(self):
        graph = fig1_graph()
        cold = RateControlAlgorithm(graph).run()
        warm = RateControlAlgorithm(graph, warm_start=cold.duals).run()
        assert warm.converged
        assert warm.iterations < cold.iterations

    def test_step_schedule_continues_across_restarts(self):
        graph = fig1_graph()
        cold = RateControlAlgorithm(graph).run()
        warm = RateControlAlgorithm(graph, warm_start=cold.duals).run()
        # The diminishing theta(t) schedule resumes where the producing
        # run stopped, so the accumulated offset is additive.
        assert warm.duals.iteration == cold.duals.iteration + warm.iterations

    def test_warm_rates_stay_feasible(self):
        network = fig1_sample_topology()
        cold = plan_omnc_detailed(network, 0, 5)
        drifted = perturb_link_qualities(
            network, sigma=0.3, rng=np.random.default_rng(2)
        )
        warm = plan_omnc_detailed(drifted, 0, 5, warm_start=cold.duals)
        assert all(rate >= 0 for rate in warm.plan.rates.values())
        assert warm.plan.predicted_throughput > 0
