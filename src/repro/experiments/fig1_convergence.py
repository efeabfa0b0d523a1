"""Figure 1 — convergence of the distributed rate control algorithm.

The paper plots the per-node broadcast rate (bytes/second) against the
iteration index on a small sample topology with channel capacity
10^5 bytes/second and tagged link qualities, observing convergence
"within a few rounds of iterations".

This experiment runs Table 1 on :func:`repro.topology.random_network.
fig1_sample_topology`, records the recovered rate trajectory of every
transmitting node, and reports the iteration at which each trajectory
settles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.optimization.problem import session_graph_from_network
from repro.optimization.rate_control import (
    RateControlAlgorithm,
    RateControlConfig,
    RateControlResult,
)
from repro.optimization.sunicast import solve_sunicast
from repro.topology.random_network import fig1_sample_topology

FIG1_CAPACITY = 1e5  # paper: 10^5 bytes/second


@dataclass(frozen=True)
class ConvergenceSeries:
    """One figure-1 curve set.

    Attributes:
        iterations: x-axis (1-based iteration indices).
        rates_bps: per-node broadcast-rate series in bytes/second.
        settled_iteration: first iteration after which every rate stays
            within ``settle_tolerance`` (relative) of its final value.
        lp_throughput_bps: the centralized optimum for reference.
        recovered_throughput_bps: the distributed algorithm's gamma_bar.
    """

    iterations: Tuple[int, ...]
    rates_bps: Dict[int, Tuple[float, ...]]
    settled_iteration: int
    lp_throughput_bps: float
    recovered_throughput_bps: float


def run_fig1(
    config: Optional[RateControlConfig] = None,
    *,
    settle_tolerance: float = 0.05,
    tracer: Optional[obs.EventTracer] = None,
) -> ConvergenceSeries:
    """Produce the Fig. 1 convergence series.

    An ``EventTracer`` additionally captures the full dual-price
    trajectory (``rate_control.iteration`` records) behind the plotted
    primal rates.
    """
    network = fig1_sample_topology(capacity=FIG1_CAPACITY)
    graph = session_graph_from_network(network, 0, 5)
    lp = solve_sunicast(graph)
    result = RateControlAlgorithm(graph, config, tracer=tracer).run()
    return _series_from_result(graph.capacity, lp.throughput, result, settle_tolerance)


def _series_from_result(
    capacity: float,
    lp_throughput: float,
    result: RateControlResult,
    settle_tolerance: float,
) -> ConvergenceSeries:
    nodes = [
        n
        for n, final_rate in result.broadcast_rates.items()
        if final_rate > 1e-6 or any(h[n] > 1e-6 for h in result.rate_history)
    ]
    series: Dict[int, List[float]] = {n: [] for n in nodes}
    for snapshot in result.rate_history:
        for n in nodes:
            series[n].append(snapshot[n] * capacity)
    settled = _settled_iteration(series, settle_tolerance)
    return ConvergenceSeries(
        iterations=tuple(range(1, len(result.rate_history) + 1)),
        rates_bps={n: tuple(values) for n, values in series.items()},
        settled_iteration=settled,
        lp_throughput_bps=lp_throughput * capacity,
        recovered_throughput_bps=result.throughput * capacity,
    )


def _settled_iteration(
    series: Dict[int, List[float]], tolerance: float
) -> int:
    """First iteration from which every curve stays near its final value."""
    length = max((len(v) for v in series.values()), default=0)
    if length == 0:
        return 0
    settled = length
    for values in series.values():
        final = values[-1]
        scale = max(abs(final), 1e-9)
        index = length
        for k in range(length - 1, -1, -1):
            if abs(values[k] - final) / scale > tolerance:
                break
            index = k
        settled = max(settled if settled != length else 0, index + 1)
    return settled


def report(series: ConvergenceSeries) -> None:
    """Print the Fig. 1 table: iteration vs per-node rate."""
    nodes = sorted(series.rates_bps)
    print("Figure 1 — distributed rate control convergence")
    print(
        f"sample topology, capacity {FIG1_CAPACITY:.0f} B/s, "
        "step size theta(t) = 1/(0.5 + 0.1 t)"
    )
    header = "iter " + " ".join(f"b[{n}] (B/s)" for n in nodes)
    print(header)
    total = len(series.iterations)
    shown = sorted(set([0, 1, 2, 4, 9, 19, 39, 59, total - 1]) & set(range(total)))
    for k in shown:
        row = f"{series.iterations[k]:4d} " + " ".join(
            f"{series.rates_bps[n][k]:11.0f}" for n in nodes
        )
        print(row)
    print(f"settled (5% band) at iteration {series.settled_iteration} of {total}")
    print(
        f"LP optimum {series.lp_throughput_bps:.0f} B/s, "
        f"recovered {series.recovered_throughput_bps:.0f} B/s"
    )
