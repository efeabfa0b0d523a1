"""The distributed rate control algorithm — paper Table 1.

    1. Initialize parameters.  Set elements in b, x to small positive
       numbers.  Initialize the dual variables to 0.
    2. Repeat until convergence:
    3.   Solve SUB1: shortest path with link cost lambda_ij; update the
         information rate x_ij by (12)(13).
    4.   Solve SUB2: update b_i with (17)(18); update the congestion
         price beta_i with (15); send beta_i, b_i to neighbors.
    5.   Update the Lagrange multiplier lambda_ij with (8):
         lambda_ij(t+1) = [lambda_ij(t) - theta(t)(b_i p_ij - x_ij)]^+

:class:`RateControlAlgorithm` composes :class:`~repro.optimization.
sub1_routing.Sub1Router` and :class:`~repro.optimization.sub2_rates.
Sub2RateAllocator` exactly this way and records per-iteration history so
the Fig. 1 convergence plot can be regenerated.

The result's rates are capacity-normalized; use
:meth:`RateControlResult.rates_bytes_per_second` for engineering units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro import obs
from repro.optimization.problem import SessionGraph
from repro.optimization.sub1_routing import Sub1Router
from repro.optimization.sub2_rates import Sub2RateAllocator
from repro.optimization.subgradient import (
    DiminishingStepSize,
    StepSizeSchedule,
    project_nonnegative,
)
from repro.optimization.sunicast import SUnicastSolution
from repro.topology.graph import Link


@dataclass(frozen=True)
class RateControlConfig:
    """Tuning knobs of the distributed algorithm.

    Defaults follow the paper where it is explicit (step-size constants
    from Fig. 1) and sensible engineering choices elsewhere.

    Attributes:
        step_size: theta(t) schedule for both multiplier updates.  The
            default is theta(t) = 1 / (0.5 + 0.1 t): the paper's A=1 and
            B=0.5 with a gentler decay constant.  The paper's Fig. 1 uses
            C=10 with *unnormalized* rates (10^5 B/s scale); in our
            capacity-normalized units (subgradients of order 1) that
            literal constant would freeze the multipliers after a handful
            of iterations, so the decay is rescaled to preserve the same
            total multiplier travel.
        proximal_c: the "arbitrarily small positive constant" c of the
            proximal term in (17); smaller tracks the optimum closer but
            oscillates more.
        initial_rate: the "small positive numbers" b starts from.
        gamma_cap: upper bound on per-iteration injected flow (normalized
            capacity units).
        max_iterations: hard stop.
        min_iterations: do not test convergence before this many steps.
        tolerance: relative-change threshold on the recovered rates.
        patience: consecutive below-tolerance iterations required to
            declare convergence.
        primal_recovery: disable to ablate eqs. (13)/(18).
        recovery_tail: fraction of recent iterates entering the primal
            recovery average (1.0 = paper-literal full average; see
            :mod:`repro.optimization.recovery`).
    """

    step_size: StepSizeSchedule = field(
        default_factory=lambda: DiminishingStepSize(a=1.0, b=0.5, c=0.1)
    )
    proximal_c: float = 0.5
    initial_rate: float = 0.01
    gamma_cap: float = 1.0
    max_iterations: int = 400
    min_iterations: int = 20
    tolerance: float = 8e-3
    patience: int = 4
    primal_recovery: bool = True
    recovery_tail: float = 0.5

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.min_iterations < 1 or self.min_iterations > self.max_iterations:
            raise ValueError("min_iterations must be in [1, max_iterations]")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not 0.0 < self.recovery_tail <= 1.0:
            raise ValueError("recovery_tail must be in (0, 1]")


@dataclass(frozen=True)
class RateControlDuals:
    """Final optimizer state a re-plan can warm-start from.

    The paper concedes (Sec. 4) that when link qualities drift "the node
    selection and rate allocation have to be re-initiated".  After mild
    drift the optimum moves little, so restarting the subgradient method
    from the previous dual prices — instead of Table 1 step 1's zeros —
    re-converges in far fewer iterations.  This is the *public* warm-start
    surface: everything here is read off :class:`RateControlResult`, never
    out of solver internals.

    Attributes:
        link_prices: final Lagrange multipliers lambda_ij of the
            loss-coupling constraint (5).
        congestion_prices: final congestion prices beta_i of the MAC
            constraint (4).
        union_prices: final multipliers mu_i of the broadcast information
            constraint (5b).
        rates: final instantaneous broadcast rates b(t) (primal
            warm start for the proximal update (17)).
        iteration: outer iterations the producing run had executed —
            continuing the diminishing step-size schedule theta(t) from
            here keeps the warm duals from being kicked away by the large
            early steps.
    """

    link_prices: Dict[Link, float]
    congestion_prices: Dict[int, float]
    union_prices: Dict[int, float]
    rates: Dict[int, float]
    iteration: int

    def __post_init__(self) -> None:
        for label, prices in (
            ("link", self.link_prices),
            ("congestion", self.congestion_prices),
            ("union", self.union_prices),
        ):
            for key, value in prices.items():
                if value < 0:
                    raise ValueError(f"negative {label} price on {key}: {value}")
        if self.iteration < 0:
            raise ValueError(f"iteration must be >= 0, got {self.iteration}")


@dataclass(frozen=True)
class RateControlResult:
    """Outcome of one rate-control run.

    Attributes:
        broadcast_rates: recovered b_bar per node (normalized).
        flows: recovered x_bar per link (normalized).
        throughput: recovered end-to-end rate gamma_bar (normalized) —
            measured as net recovered flow out of the source.
        iterations: outer iterations executed.
        converged: whether the stopping rule fired before the cap.
        rate_history: per-iteration recovered b_bar snapshots (Fig. 1).
        gamma_history: per-iteration recovered throughput.
        capacity: channel capacity for denormalization.
        duals: final dual prices (lambda, beta, mu) and primal iterate —
            pass as ``warm_start`` to a later run on a drifted topology.
    """

    broadcast_rates: Dict[int, float]
    flows: Dict[Link, float]
    throughput: float
    iterations: int
    converged: bool
    rate_history: Tuple[Dict[int, float], ...]
    gamma_history: Tuple[float, ...]
    capacity: float
    duals: RateControlDuals | None = None

    @property
    def link_prices(self) -> Dict[Link, float]:
        """Final lambda_ij (empty when the run recorded no duals)."""
        return dict(self.duals.link_prices) if self.duals else {}

    @property
    def congestion_prices(self) -> Dict[int, float]:
        """Final beta_i (empty when the run recorded no duals)."""
        return dict(self.duals.congestion_prices) if self.duals else {}

    def rates_bytes_per_second(self) -> Dict[int, float]:
        """Broadcast rates in bytes/second."""
        return {n: b * self.capacity for n, b in self.broadcast_rates.items()}

    def throughput_bytes_per_second(self) -> float:
        """End-to-end rate in bytes/second."""
        return self.throughput * self.capacity

    def as_solution(self) -> SUnicastSolution:
        """View the recovered allocation as a solver solution (for the
        shared feasibility checker)."""
        return SUnicastSolution(
            throughput=self.throughput,
            flows=dict(self.flows),
            broadcast_rates=dict(self.broadcast_rates),
            objective=self.throughput,
        )


class RateControlAlgorithm:
    """Run Table 1 on one session graph.

    With observability on, each outer iteration is exposed twice over:
    aggregates under the ``optimizer.`` namespace (iteration counter,
    step-size gauge, dual-price gauges, primal-residual histogram) and a
    full ``rate_control.iteration`` trace record carrying the lambda /
    beta / mu trajectories — the machine-readable form of Fig. 1.
    """

    def __init__(
        self,
        graph: SessionGraph,
        config: RateControlConfig | None = None,
        *,
        warm_start: RateControlDuals | None = None,
        registry: obs.MetricsRegistry | None = None,
        tracer: obs.EventTracer | None = None,
    ) -> None:
        self._graph = graph
        self._config = config or RateControlConfig()
        self._sub1 = Sub1Router(
            graph,
            gamma_cap=self._config.gamma_cap,
            primal_recovery=self._config.primal_recovery,
            recovery_tail=self._config.recovery_tail,
        )
        self._sub2 = Sub2RateAllocator(
            graph,
            proximal_c=self._config.proximal_c,
            initial_rate=self._config.initial_rate,
            primal_recovery=self._config.primal_recovery,
            recovery_tail=self._config.recovery_tail,
            initial_rates=warm_start.rates if warm_start else None,
            initial_beta=warm_start.congestion_prices if warm_start else None,
        )
        # Warm start (re-planning after drift): seed the duals from the
        # previous run's final prices instead of Table 1 step 1's zeros.
        # Keys are matched by .get() — drift preserves the link set, but a
        # changed forwarder DAG simply leaves the new links at 0.
        warm_links = warm_start.link_prices if warm_start else {}
        warm_union = warm_start.union_prices if warm_start else {}
        # lambda_ij per link index.
        self._prices: List[float] = [
            warm_links.get(link, 0.0) for link in graph.links
        ]
        # Multipliers of the broadcast information constraint (5b):
        # sum_j x_ij <= b_i * q_i (see repro.optimization.sunicast).  One
        # slot per node index; only transmitters' slots ever leave 0.0.
        self._union_prices: List[float] = [0.0] * len(graph.nodes)
        for v in graph.index.transmitters:
            self._union_prices[v] = warm_union.get(graph.nodes[v], 0.0)
        # Continue the diminishing step-size schedule where the previous
        # run stopped: replaying the large early theta(t) would throw the
        # warm duals right back to a cold trajectory.
        self._step_offset = warm_start.iteration if warm_start else 0
        self._iteration = 0
        scope = obs.resolve(registry).attach("optimizer")
        self._tracer = obs.resolve_tracer(tracer)
        self._observing = scope.enabled or self._tracer.enabled
        self._m_iterations = scope.counter(
            "iterations", "outer subgradient iterations executed"
        )
        self._m_theta = scope.gauge("step_size", "current step size theta(t)")
        self._m_lambda_max = scope.gauge(
            "lambda_max", "largest link price lambda_ij"
        )
        self._m_beta_max = scope.gauge(
            "beta_max", "largest congestion price beta_i"
        )
        self._m_residual = scope.histogram(
            "primal_residual",
            "worst violation of x_ij <= b_i p_ij at the recovered primal point",
        )

    @property
    def prices(self) -> Dict[Link, float]:
        """Current Lagrange multipliers lambda_ij."""
        return dict(zip(self._graph.links, self._prices))

    @property
    def union_prices(self) -> Dict[int, float]:
        """Current broadcast-information multipliers mu_i (transmitters)."""
        nodes = self._graph.nodes
        return {
            nodes[v]: self._union_prices[v] for v in self._graph.index.transmitters
        }

    @property
    def iteration(self) -> int:
        """Outer iterations executed so far."""
        return self._iteration

    def step(self) -> None:
        """One outer iteration: SUB1, SUB2, multiplier update (steps 3-5)."""
        theta = self._config.step_size(self._iteration + self._step_offset)
        index = self._graph.index
        tail, p = index.tail, index.p
        prices, union_prices = self._prices, self._union_prices
        # SUB1 sees the total price of routing one unit over link (i, j):
        # the per-link price lambda_ij plus the transmitter's aggregate
        # broadcast-information price mu_i.
        flows = self._sub1.route(
            [prices[k] + union_prices[tail[k]] for k in range(len(prices))]
        )
        self._sub2.update(prices, theta, union_prices)
        rates = self._sub2.rate_vector
        # (8): the subgradient of the relaxed constraint (5) at the
        # instantaneous primal solution.
        for k, flow in enumerate(flows):
            surplus = rates[tail[k]] * p[k] - flow
            prices[k] = project_nonnegative(prices[k] - theta * surplus)
        # Same subgradient form for (5b): surplus = b_i q_i - sum_j x_ij.
        for v in index.transmitters:
            outflow = 0.0
            for k in index.out_links[v]:
                outflow += flows[k]
            surplus = rates[v] * index.q[v] - outflow
            union_prices[v] = project_nonnegative(union_prices[v] - theta * surplus)
        self._iteration += 1
        if self._observing:
            self._observe_iteration(theta)

    def run(self) -> RateControlResult:
        """Iterate to convergence and return the recovered allocation."""
        config = self._config
        nodes = self._graph.nodes
        rate_history: List[Dict[int, float]] = []
        gamma_history: List[float] = []
        stable_iterations = 0
        converged = False
        previous: List[float] | None = None

        while self._iteration < config.max_iterations:
            self.step()
            recovered = self._sub2.recovered_rate_vector()
            rate_history.append(dict(zip(nodes, recovered)))
            gamma_history.append(self._recovered_throughput())
            if previous is not None:
                delta = max(abs(b - a) for b, a in zip(recovered, previous))
                scale = max(max(recovered), 1e-9)
                if delta / scale < config.tolerance:
                    stable_iterations += 1
                else:
                    stable_iterations = 0
                if (
                    self._iteration >= config.min_iterations
                    and stable_iterations >= config.patience
                ):
                    converged = True
                    break
            previous = recovered

        return RateControlResult(
            broadcast_rates=self._sub2.recovered_rates,
            flows=self._sub1.recovered_flows,
            throughput=self._recovered_throughput(),
            iterations=self._iteration,
            converged=converged,
            rate_history=tuple(rate_history),
            gamma_history=tuple(gamma_history),
            capacity=self._graph.capacity,
            duals=RateControlDuals(
                link_prices=self.prices,
                congestion_prices=self._sub2.congestion_prices,
                union_prices=self.union_prices,
                rates=self._sub2.rates,
                iteration=self._iteration + self._step_offset,
            ),
        )

    def _observe_iteration(self, theta: float) -> None:
        """Publish one iteration's dual state and primal-recovery residual."""
        index = self._graph.index
        flows = self._sub1.recovered_flow_vector()
        rates = self._sub2.recovered_rate_vector()
        residual = 0.0
        for k, flow in enumerate(flows):
            slack = flow - rates[index.tail[k]] * index.p[k]
            if slack > residual:
                residual = slack
        beta = self._sub2.beta_vector
        lambda_mean, lambda_max = _mean_and_max(self._prices)
        beta_mean, beta_max = _mean_and_max(
            [beta[v] for v in index.mac_constrained]
        )
        mu_max = max(
            (self._union_prices[v] for v in index.transmitters), default=0.0
        )
        self._m_iterations.inc()
        self._m_theta.set(theta)
        self._m_lambda_max.set(lambda_max)
        self._m_beta_max.set(beta_max)
        self._m_residual.observe(residual)
        self._tracer.emit(
            "rate_control.iteration",
            t=self._iteration,
            theta=theta,
            lambda_mean=lambda_mean,
            lambda_max=lambda_max,
            beta_mean=beta_mean,
            beta_max=beta_max,
            mu_max=mu_max,
            residual=residual,
        )

    def _recovered_throughput(self) -> float:
        """Net recovered flow out of the source — the usable gamma_bar."""
        return net_source_flow(self._graph, self._sub1.recovered_flow_vector())


def net_source_flow(graph: SessionGraph, flows: Sequence[float]) -> float:
    """Flow leaving the source minus flow entering it, over link indices."""
    index = graph.index
    out = 0.0
    for k in index.out_links[index.source]:
        out += flows[k]
    back = 0.0
    for k in index.in_links[index.source]:
        back += flows[k]
    return out - back


def _mean_and_max(values: Sequence[float]) -> Tuple[float, float]:
    """Left-to-right mean and the maximum of ``values`` (0.0, 0.0 if empty)."""
    if not values:
        return 0.0, 0.0
    total = 0.0
    for value in values:
        total += value
    return total / len(values), max(values)


def feasible_scaling(
    graph: SessionGraph,
    rates: Dict[int, float],
    *,
    saturate: bool = False,
    max_scale_up: float = 2.0,
) -> Tuple[Dict[int, float], float]:
    """Rescale rates against the MAC constraint (4).

    "Feasible schedules can be generated by rescaling the broadcast rate"
    (Sec. 3.2): if any receiver's neighborhood load exceeds the capacity,
    divide every rate by the worst overload factor.

    With ``saturate=True`` the vector is also scaled *up* (bounded by
    ``max_scale_up``) until the tightest neighborhood reaches the
    capacity.  The paper frames the allocation's value as the rate
    *vector* ("rather than to compute the absolute optimal throughput
    value", Sec. 3.2); when the binding constraint was informational
    (5b) rather than the MAC, saturating preserves the optimized
    proportions while using the airtime the schedule actually has —
    headroom that covers the redundancy real coded streams incur.

    Returns the scaled rates and the divisor applied (< 1 means the
    vector was scaled up).  This is :func:`multi_feasible_scaling` over
    one session.
    """
    (scaled,), factor = multi_feasible_scaling(
        [graph], [rates], saturate=saturate, max_scale_up=max_scale_up
    )
    return scaled, factor


def multi_feasible_scaling(
    graphs: Sequence[SessionGraph],
    rates_list: Sequence[Dict[int, float]],
    *,
    saturate: bool = False,
    max_scale_up: float = 2.0,
) -> Tuple[List[Dict[int, float]], float]:
    """Jointly rescale several sessions against the *shared* MAC.

    The multi-session MAC constraint charges each receiver's
    neighborhood with the summed load of every session
    (:mod:`repro.optimization.multi_session`), so feasibility repair
    must use one common divisor: scaling sessions independently would
    re-break the coupling and skew the optimizer's inter-session
    proportions.  Scale down by the worst overload; with
    ``saturate=True`` scale up to fill the tightest neighborhood, bounded
    by ``max_scale_up`` (see :func:`feasible_scaling`).

    Returns the scaled per-session rates and the common divisor.
    """
    if len(graphs) != len(rates_list):
        raise ValueError(
            f"got {len(graphs)} graphs but {len(rates_list)} rate vectors"
        )
    constrained = sorted(
        {node for graph in graphs for node in graph.mac_constrained_nodes()}
    )
    worst = 0.0
    for node in constrained:
        load = 0.0
        for graph, rates in zip(graphs, rates_list):
            if node not in graph.nodes:
                continue
            load += rates.get(node, 0.0) + sum(
                rates.get(j, 0.0) for j in graph.neighbors[node]
            )
        worst = max(worst, load)
    if worst <= 0.0:
        return [dict(rates) for rates in rates_list], 1.0
    if worst > 1.0:
        factor = worst
    elif saturate:
        factor = max(worst, 1.0 / max_scale_up)
    else:
        factor = 1.0
    if factor == 1.0:  # repro: ignore[RPR004] exact sentinel set above
        return [dict(rates) for rates in rates_list], 1.0
    return [
        {n: min(1.0, b / factor) for n, b in rates.items()}
        for rates in rates_list
    ], factor
