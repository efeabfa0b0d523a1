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

:class:`RateControlLoop` is the one implementation, written over N >= 1
sessions that share the broadcast MAC; the only thing that varies is
how each session's SUB1 finds its path (:meth:`RateControlLoop._sub1`),
and :meth:`RateControlLoop.solve` reads every session out (the OMNC
planner's joint pipeline calls it directly).  Its faces:

* :class:`RateControlAlgorithm` — one session: the planner's driver
  (warm-started on a re-plan) and the Fig. 1 history;
* :class:`~repro.optimization.multi_session.MultiSessionRateControl` —
  several sessions, the multiple-unicast extension;
* :class:`~repro.optimization.messages.MessagePassingRateControl` — one
  session whose SUB1 is a distance-vector exchange, with a message
  census.

A solve runs compiled wherever :func:`compiled_kernel` has a kernel
(:mod:`repro.optimization.native`), bit for bit the Python loop.  The
result's rates are capacity-normalized; use
:meth:`RateControlResult.rates_bytes_per_second` for engineering units.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np
from numpy.typing import ArrayLike

from repro import obs
from repro.optimization import native
from repro.optimization.problem import (
    SessionGraph,
    check_joint_sessions,
    session_graph_from_network,
)
from repro.optimization.recovery import IterateAverager
from repro.optimization.sub1_routing import DistanceVectorRouter, Sub1Router
from repro.optimization.subgradient import (
    DiminishingStepSize,
    StepSizeSchedule,
    project_nonnegative,
)
from repro.optimization.sunicast import SUnicastSolution
from repro.routing.pseudo_broadcast import (
    PseudoBroadcastCost,
    neighborhood_broadcast_cost,
    reliable_flood,
)
from repro.topology.graph import Link
from repro.topology.random_network import fig1_sample_topology, network_from_links


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
        primal_recovery: disable to ablate eqs. (13)/(18): results,
            histories and the stopping rule then read the latest
            instantaneous rates and flows instead of their averages.
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
        for name in ("proximal_c", "gamma_cap", "tolerance"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not 0 <= self.initial_rate <= 1:
            raise ValueError(f"initial_rate must be in [0, 1], got {self.initial_rate}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.min_iterations < 1 or self.min_iterations > self.max_iterations:
            raise ValueError("min_iterations must be in [1, max_iterations]")
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
    duals: RateControlDuals

    @property
    def link_prices(self) -> Dict[Link, float]:
        """Final lambda_ij."""
        return dict(self.duals.link_prices)

    @property
    def congestion_prices(self) -> Dict[int, float]:
        """Final beta_i."""
        return dict(self.duals.congestion_prices)

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


class RateControlLoop:
    """Table 1 over N >= 1 sessions coupled by the broadcast MAC.

    Each session s keeps lambda^s per link index, mu^s and b^s per node
    index (``graph.index`` order), its SUB1 router and the average of
    its b^s iterates (eq. 18).  The congestion price beta_i is shared: one
    vector over the sorted union of the sessions' nodes, reached through
    a per-session node-index -> shared-slot table, moved only where the
    node is MAC-constrained in at least one session.  It prices the total
    load ``sum_s (b_i^s + sum_{j in N(i)} b_j^s)``; with one session that
    is ``(0.0 + b_i) + sum_j b_j``, the single-session constraint (4).

    ``warm_start`` seeds every session by key — node ids and links are
    global: lambda by link, mu, b (clipped into [0, 1]) and beta by node;
    an absent key cold-starts, so a changed forwarder DAG simply leaves
    its new links at 0.  The step-size schedule continues from its
    ``iteration``.

    With observability on, each outer iteration is exposed twice over:
    aggregates under the ``optimizer.`` namespace (iteration counter,
    step-size gauge, dual-price gauges, primal-residual histogram) when
    the loop is built inside an :func:`repro.obs.collecting` scope, and a
    full ``rate_control.iteration`` trace record carrying the lambda /
    beta / mu trajectories to a ``tracer`` — the machine-readable form of
    Fig. 1.
    """

    #: Whether iterations publish ``optimizer.*`` metrics; the message
    #: census, a measurement rather than a plan, does not.
    _publishes_metrics = True

    def __init__(
        self,
        graphs: Sequence[SessionGraph],
        config: RateControlConfig | None = None,
        *,
        warm_start: RateControlDuals | None = None,
        tracer: obs.EventTracer | None = None,
    ) -> None:
        check_joint_sessions(graphs)
        self._graphs = list(graphs)
        self._config = config = config or RateControlConfig()
        self._routers = [self._sub1(g) for g in self._graphs]
        # "Set elements in b ... to small positive numbers.  Initialize the
        # dual variables to 0." (Table 1, step 1), unless warm-started.
        link_seed = warm_start.link_prices if warm_start else {}
        union_seed = warm_start.union_prices if warm_start else {}
        rate_seed = warm_start.rates if warm_start else {}
        beta_seed = warm_start.congestion_prices if warm_start else {}
        self._prices: List[List[float]] = []
        self._union_prices: List[List[float]] = []
        self._rates: List[List[float]] = []
        for g in self._graphs:
            index = g.index
            self._prices.append([link_seed.get(link, 0.0) for link in g.links])
            # Multipliers of the broadcast information constraint (5b):
            # sum_j x_ij <= b_i * q_i (see repro.optimization.sunicast);
            # only transmitters' slots ever leave 0.0.
            mus = [0.0] * len(g.nodes)
            for v in index.transmitters:
                mus[v] = union_seed.get(g.nodes[v], 0.0)
            self._union_prices.append(mus)
            rates = [
                min(1.0, max(0.0, rate_seed.get(node, config.initial_rate)))
                for node in g.nodes
            ]
            rates[index.destination] = 0.0  # the destination never broadcasts
            self._rates.append(rates)
        shared = sorted({node for g in self._graphs for node in g.nodes})
        slot_of = {node: slot for slot, node in enumerate(shared)}
        self._beta: List[float] = [0.0] * len(shared)
        self._slots = [[slot_of[node] for node in g.nodes] for g in self._graphs]
        # Per session and node index: the shared slots of N(i), in order.
        self._neighbor_slots = [
            [tuple(slots[j] for j in members) for members in g.index.neighbors]
            for g, slots in zip(self._graphs, self._slots)
        ]
        # Per constrained node: its shared slot and, for every session that
        # includes it (in session order), its index and neighbors there.
        self._constrained: List[Tuple[int, List[Tuple[int, int, Tuple[int, ...]]]]] = []
        constrained = {node for g in self._graphs for node in g.mac_constrained_nodes()}
        for node in sorted(constrained):
            members = []
            for s, g in enumerate(self._graphs):
                v = g.index.node_index.get(node)
                if v is not None:
                    members.append((s, v, g.index.neighbors[v]))
            slot = slot_of[node]
            self._beta[slot] = max(0.0, beta_seed.get(node, 0.0))
            self._constrained.append((slot, members))
        self._averagers = [
            IterateAverager(len(g.nodes), tail=config.recovery_tail)
            for g in self._graphs
        ]
        self._rate_history: List[List[Dict[int, float]]] = [[] for _ in self._graphs]
        self._gamma_history: List[List[float]] = [[] for _ in self._graphs]
        # Continue the diminishing step-size schedule where the previous
        # run stopped: replaying the large early theta(t) would throw the
        # warm duals right back to a cold trajectory.
        self._step_offset = warm_start.iteration if warm_start else 0
        self._iteration = 0
        self._kernel_tables: (
            Tuple[native.Loop, ctypes.Array[native.Session], List[np.ndarray]] | None
        ) = None
        registry = (
            obs.get_registry()
            if self._publishes_metrics
            else obs.MetricsRegistry(enabled=False)
        )
        scope = registry.attach("optimizer")
        self._tracer = tracer
        self._observing = scope.enabled or tracer is not None
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

    def _sub1(self, graph: SessionGraph) -> Sub1Router:
        """SUB1 for one session — the one place a subclass swaps it.

        Called once per session graph while the loop is built.
        """
        config = self._config
        return Sub1Router(
            graph,
            gamma_cap=config.gamma_cap,
            primal_recovery=config.primal_recovery,
            recovery_tail=config.recovery_tail,
        )

    @property
    def iteration(self) -> int:
        """Outer iterations executed so far."""
        return self._iteration

    def step(self) -> None:
        """One outer iteration over every session (Table 1 steps 3-5).

        SUB1 routes each session on the total price of sending one unit
        over link (i, j): lambda_ij plus the transmitter's mu_i.  SUB2
        moves each session's rates by the proximal update (17),

            b_i <- clip(b_i + (w_i - beta_i - sum_{j in N(i)} beta_j) / 2c, 0, 1)
            w_i  = sum_j lambda_ij p_ij + mu_i q_i,

        then the shared prices by (15) from the new rates' total load,

            beta_i <- [beta_i - theta(t) (1 - load_i)]^+,

        and last the multipliers at the instantaneous primal point: (8)
        and its (5b) twin, mu_i <- [mu_i - theta(t) (b_i q_i - sum_j x_ij)]^+.
        """
        config = self._config
        theta = config.step_size(self._iteration + self._step_offset)
        beta = self._beta
        scale = 2.0 * config.proximal_c
        session_flows = []
        for g, router, prices, mus in zip(
            self._graphs, self._routers, self._prices, self._union_prices
        ):
            tail = g.index.tail
            session_flows.append(
                router.route([prices[k] + mus[tail[k]] for k in range(len(prices))])
            )
        for s, g in enumerate(self._graphs):
            index = g.index
            p, q = index.p, index.q
            prices, mus = self._prices[s], self._union_prices[s]
            slots, neighbor_slots = self._slots[s], self._neighbor_slots[s]
            old = self._rates[s]
            rates = list(old)
            for v, out in enumerate(index.out_links):
                if v == index.destination:
                    continue
                weight = 0.0
                for k in out:
                    weight += prices[k] * p[k]
                if mus[v]:
                    weight += mus[v] * q[v]
                charge = 0.0
                for slot in neighbor_slots[v]:
                    charge += beta[slot]
                updated = old[v] + (weight - (beta[slots[v]] + charge)) / scale
                rates[v] = min(1.0, max(0.0, updated))
            self._rates[s] = rates
        session_rates = self._rates
        for slot, members in self._constrained:
            load = 0.0
            for s, v, node_neighbors in members:
                rates = session_rates[s]
                load += rates[v]
                heard = 0.0
                for j in node_neighbors:
                    heard += rates[j]
                load += heard
            beta[slot] = project_nonnegative(beta[slot] - theta * (1.0 - load))
        for g, rates, prices, mus, flows, averager in zip(
            self._graphs,
            self._rates,
            self._prices,
            self._union_prices,
            session_flows,
            self._averagers,
        ):
            index = g.index
            tail, p = index.tail, index.p
            for k, flow in enumerate(flows):
                surplus = rates[tail[k]] * p[k] - flow
                prices[k] = project_nonnegative(prices[k] - theta * surplus)
            for v in index.transmitters:
                outflow = 0.0
                for k in index.out_links[v]:
                    outflow += flows[k]
                surplus = rates[v] * index.q[v] - outflow
                mus[v] = project_nonnegative(mus[v] - theta * surplus)
            averager.push(np.array(rates))
        self._iteration += 1
        if self._observing:
            self._observe_iteration(theta)

    def _converge(self) -> bool:
        """Step until every session's recovered rates settle (True) or the
        iteration cap; records each iteration's b_bar and gamma_bar.

        The compiled loop (:mod:`repro.optimization.native`) runs it
        wherever it loads and this loop is one it knows: unobserved, with
        this class's :meth:`step` and routers that declare a compiled
        route.  It is exact, so nothing but speed tells the paths apart.
        """
        kernel = compiled_kernel() if self._compilable() else None
        converged = None if kernel is None else self._converge_compiled(kernel.run)
        return self._converge_python() if converged is None else converged

    def _compilable(self) -> bool:
        return (
            not self._observing
            and type(self).step is RateControlLoop.step
            and all(vars(type(router)).get("compiled_route") for router in self._routers)
        )

    def _converge_python(self) -> bool:
        """:meth:`_converge` in Python — the reference the kernel matches."""
        config = self._config
        sessions = range(len(self._graphs))
        stable = 0
        previous: List[List[float]] | None = None
        while self._iteration < config.max_iterations:
            self.step()
            recovered = [self._recovered_rates(s) for s in sessions]
            for s in sessions:
                graph = self._graphs[s]
                self._rate_history[s].append(dict(zip(graph.nodes, recovered[s])))
                self._gamma_history[s].append(
                    net_source_flow(graph, self._routers[s].recovered_flow_vector())
                )
            if previous is not None:
                delta = 0.0
                scale = 1e-9
                for rec, prev in zip(recovered, previous):
                    delta = max(delta, max(abs(b - a) for b, a in zip(rec, prev)))
                    scale = max(scale, max(rec))
                if delta / scale < config.tolerance:
                    stable += 1
                else:
                    stable = 0
                if self._iteration >= config.min_iterations and stable >= config.patience:
                    return True
            previous = recovered
        return False

    def _converge_compiled(self, run: Callable[..., int]) -> bool | None:
        """:meth:`_converge_python` as calls of ``run``, then the state
        written back; ``None``, with nothing changed, where Python raises.

        Each call gets the step sizes theta(t) of up to a chunk of
        iterations from the schedule itself (64, doubling).
        """
        if self._kernel_tables is None:
            self._kernel_tables = self._pack()
        loop, sessions, _ = self._kernel_tables
        state = [
            (
                np.array(prices, dtype=float),
                np.array(mus, dtype=float),
                np.array(rates, dtype=float),
                np.empty(len(rates)),
                np.empty(len(rates), dtype=np.int64),
            )
            for prices, mus, rates in zip(self._prices, self._union_prices, self._rates)
        ]
        beta = np.array(self._beta, dtype=float)
        loop.beta = beta.ctypes.data
        loop.iteration = self._iteration
        loop.stable = loop.has_previous = 0
        for session, arrays, averager, router in zip(
            sessions, state, self._averagers, self._routers
        ):
            for name, array in zip(("prices", "mus", "rates", "prev", "path"), arrays):
                setattr(session, name, array.ctypes.data)
            session.rate_count = averager.count
            session.flow_count = router.iterations
            session.advertisements = session.tokens = 0
        histories = []
        schedule, chunk, status = self._config.step_size, 64, native.MORE
        while status == native.MORE:
            first = loop.iteration + self._step_offset
            count = max(0, min(chunk, self._config.max_iterations - loop.iteration))
            theta = np.array([schedule(t) for t in range(first, first + count)], dtype=float)
            chunk_history = []
            for session, averager, router in zip(sessions, self._averagers, self._routers):
                rates = averager.reserve(session.rate_count - averager.count + count)
                flows, gammas = router.reserve(session.flow_count - router.iterations + count)
                hist_rates, hist_gamma = np.empty((count, session.nodes)), np.empty(count)
                for name, array in (
                    ("rate_prefix", rates),
                    ("flow_prefix", flows),
                    ("gamma_prefix", gammas),
                    ("hist_rates", hist_rates),
                    ("hist_gamma", hist_gamma),
                ):
                    setattr(session, name, array.ctypes.data)
                chunk_history.append((hist_rates, hist_gamma))
            status = run(ctypes.byref(loop), theta.ctypes.data, count)
            if status == native.FAILED:
                return None
            histories.append((loop.done, chunk_history))
            chunk *= 2
        for s, (graph, session, arrays) in enumerate(zip(self._graphs, sessions, state)):
            prices, mus, rates, _, path = arrays
            self._prices[s] = prices.tolist()
            self._union_prices[s] = mus.tolist()
            self._rates[s] = rates.tolist()
            self._averagers[s].advance(session.rate_count - self._averagers[s].count)
            router = self._routers[s]
            router.advance(
                session.flow_count - router.iterations,
                path[: session.path_len].tolist(),
                session.path_cost,
                session.gamma,
            )
            if isinstance(router, DistanceVectorRouter):
                router.distance_advertisements += session.advertisements
                router.flow_setup_tokens += session.tokens
            for done, chunk_history in histories:
                hist_rates, hist_gamma = chunk_history[s]
                self._rate_history[s].extend(
                    dict(zip(graph.nodes, row)) for row in hist_rates[:done].tolist()
                )
                self._gamma_history[s].extend(hist_gamma[:done].tolist())
        self._beta = beta.tolist()
        self._iteration = loop.iteration
        return status == native.CONVERGED

    def _pack(self) -> Tuple[native.Loop, ctypes.Array[native.Session], List[np.ndarray]]:
        """The kernel's view of this loop's static tables, and the arrays
        it points into (kept alive with it)."""
        config = self._config
        keep: List[np.ndarray] = []

        def address(values: ArrayLike, dtype: type = np.int64) -> int:
            keep.append(np.array(values, dtype=dtype))
            return int(keep[-1].ctypes.data)

        def csr(rows: Sequence[Sequence[int]]) -> Tuple[int, int]:
            flat = [item for row in rows for item in row]
            return address(np.cumsum([0, *map(len, rows)])), address(flat)

        sessions = (native.Session * len(self._graphs))()
        for session, graph, router, slots in zip(
            sessions, self._graphs, self._routers, self._slots
        ):
            index = graph.index
            session.nodes, session.links = len(graph.nodes), len(graph.links)
            session.source, session.destination = index.source, index.destination
            session.distance_vector = vars(type(router))["compiled_route"] == "distance_vector"
            session.gamma_cap = router.gamma_cap
            session.flow_recovery = router.primal_recovery
            session.flow_tail = router.recovery_tail
            session.tx_count = len(index.transmitters)
            session.src_in_count = len(index.in_links[index.source])
            session.out_ptr, session.out = csr(index.out_links)
            session.nbr_ptr, session.nbr = csr(index.neighbors)
            for name, values in (
                ("tail", index.tail),
                ("head", index.head),
                ("slot", slots),
                ("node_id", graph.nodes),
                ("tx", index.transmitters),
                ("src_in", index.in_links[index.source]),
            ):
                setattr(session, name, address(values))
            session.p, session.q = address(index.p, float), address(index.q, float)
        members = [members for _, members in self._constrained]
        loop = native.Loop(
            sessions=len(self._graphs),
            constrained=len(self._constrained),
            max_iterations=config.max_iterations,
            min_iterations=config.min_iterations,
            patience=config.patience,
            recovery=config.primal_recovery,
            scale=2.0 * config.proximal_c,
            tolerance=config.tolerance,
            tail=config.recovery_tail,
            session=ctypes.addressof(sessions),
            con_slot=address([slot for slot, _ in self._constrained]),
            con_ptr=address(np.cumsum([0, *map(len, members)])),
            con_session=address([s for group in members for s, _, _ in group]),
            con_node=address([v for group in members for _, v, _ in group]),
        )
        return loop, sessions, keep

    def _results(self, converged: bool) -> Tuple[RateControlResult, ...]:
        results = []
        for s, (graph, router) in enumerate(zip(self._graphs, self._routers)):
            flows = router.recovered_flow_vector()
            results.append(
                RateControlResult(
                    broadcast_rates=dict(zip(graph.nodes, self._recovered_rates(s))),
                    flows=dict(zip(graph.links, flows)),
                    throughput=net_source_flow(graph, flows),
                    iterations=self._iteration,
                    converged=converged,
                    rate_history=tuple(self._rate_history[s]),
                    gamma_history=tuple(self._gamma_history[s]),
                    capacity=graph.capacity,
                    duals=self._duals(s),
                )
            )
        return tuple(results)

    def solve(self) -> Tuple[RateControlResult, ...]:
        """Iterate to convergence; the recovered allocation, histories and
        duals of every session, in session order."""
        return self._results(self._converge())

    def _recovered_rates(self, s: int) -> List[float]:
        """b_bar per node index of session ``s``: the averaged rates
        (eq. 18), or the latest ones when primal recovery is off."""
        averager = self._averagers[s]
        if averager.count == 0 or not self._config.primal_recovery:
            return list(self._rates[s])
        return averager.average().tolist()

    def _duals(self, s: int) -> RateControlDuals:
        """Session ``s``'s current prices and instantaneous rates."""
        graph = self._graphs[s]
        nodes, index = graph.nodes, graph.index
        slots, mus = self._slots[s], self._union_prices[s]
        return RateControlDuals(
            link_prices=dict(zip(graph.links, self._prices[s])),
            congestion_prices={
                nodes[v]: self._beta[slots[v]] for v in index.mac_constrained
            },
            union_prices={nodes[v]: mus[v] for v in index.transmitters},
            rates=dict(zip(nodes, self._rates[s])),
            iteration=self._iteration + self._step_offset,
        )

    def _observe_iteration(self, theta: float) -> None:
        """Publish one iteration's dual state and primal-recovery residual."""
        residual = 0.0
        for s, (graph, router) in enumerate(zip(self._graphs, self._routers)):
            tail, p = graph.index.tail, graph.index.p
            rates = self._recovered_rates(s)
            for k, flow in enumerate(router.recovered_flow_vector()):
                slack = flow - rates[tail[k]] * p[k]
                if slack > residual:
                    residual = slack
        lambda_mean, lambda_max = _mean_and_max(
            [price for prices in self._prices for price in prices]
        )
        beta_mean, beta_max = _mean_and_max(
            [self._beta[slot] for slot, _ in self._constrained]
        )
        mu_max = max(
            (
                mus[v]
                for graph, mus in zip(self._graphs, self._union_prices)
                for v in graph.index.transmitters
            ),
            default=0.0,
        )
        self._m_iterations.inc()
        self._m_theta.set(theta)
        self._m_lambda_max.set(lambda_max)
        self._m_beta_max.set(beta_max)
        self._m_residual.observe(residual)
        if self._tracer is not None:
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


class RateControlAlgorithm(RateControlLoop):
    """Run Table 1 on one session graph: :class:`RateControlLoop` over
    one session."""

    def __init__(
        self,
        graph: SessionGraph,
        config: RateControlConfig | None = None,
        *,
        warm_start: RateControlDuals | None = None,
        tracer: obs.EventTracer | None = None,
    ) -> None:
        super().__init__([graph], config, warm_start=warm_start, tracer=tracer)

    @property
    def duals(self) -> RateControlDuals:
        """Current prices and instantaneous rates b(t)."""
        return self._duals(0)

    @property
    def union_prices(self) -> Dict[int, float]:
        """Current broadcast-information multipliers mu_i (transmitters)."""
        return self._duals(0).union_prices

    def run(self) -> RateControlResult:
        """Iterate to convergence and return the recovered allocation."""
        (result,) = self.solve()
        return result


@functools.cache
def compiled_kernel() -> native.Kernel | None:
    """The compiled Table 1 loop, or ``None`` where it cannot build, load
    or pass :func:`_self_test` (one logged warning; the verdict holds for
    the process)."""
    kernel = native.load()
    if kernel is None or not _self_test(kernel):
        logging.getLogger(__name__).warning(
            "the compiled Table 1 loop is unavailable here; rate control runs in Python"
        )
        return None
    return kernel


def _self_test(kernel: native.Kernel) -> bool:
    """Solve on Fig. 1's topology in Python and on ``kernel``, equal by
    ``repr``: two sessions sharing relays, and the distance-vector census
    with its message counts; each loop is stepped once by hand first.
    Then flood a mesh with a tied best link and a p = 1 link both ways,
    equal in total, forward order and each node's covered order."""

    class Census(RateControlLoop):
        def _sub1(self, graph: SessionGraph) -> Sub1Router:
            return DistanceVectorRouter(graph)

    def outcome(loop: RateControlLoop, converged: bool | None) -> str:
        messages = [
            (router.distance_advertisements, router.flow_setup_tokens)
            for router in loop._routers
            if isinstance(router, DistanceVectorRouter)
        ]
        return "" if converged is None else repr((loop._results(converged), messages))

    network = fig1_sample_topology()
    graphs = [session_graph_from_network(network, 0, destination) for destination in (5, 4)]
    config = RateControlConfig(max_iterations=40, min_iterations=5, tolerance=0.05)
    for make in (lambda: RateControlLoop(graphs, config), lambda: Census(graphs[:1], config)):
        reference, candidate = make(), make()
        reference.step()
        candidate.step()
        expected = outcome(reference, reference._converge_python())
        if outcome(candidate, candidate._converge_compiled(kernel.run)) != expected:
            return False
    mesh = network_from_links(
        {(0, 1): 0.5, (0, 9): 0.5, (0, 5): 0.3, (1, 2): 1.0, (5, 2): 0.7, (2, 1): 0.9}
    )

    def flood(costs: List[PseudoBroadcastCost]) -> str:
        result = reliable_flood(mesh, 0, costs=costs)
        covered = [list(cost.covered) for cost in costs]
        return repr((result.total_transmissions, result.forward_order, covered))

    python = [neighborhood_broadcast_cost(mesh, node) for node in mesh.nodes()]
    return flood(python) == flood(native.broadcast_costs(kernel, mesh))


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
