"""Bit-exact oracle for the Table 1 loop's three faces.

The producers below compute the ``table1.*`` pins of ``tests/pins.py``,
recorded on the dict-iterating implementation (before ``SessionGraph``
grew its compiled index view); they must hold for any later
implementation: every float goes through ``repr`` and every dict through
its insertion order, so a reordered accumulation, a numpy scalar leaking
into a result or a reshuffled result dict all show.  ``table1.messages``
hashes the census duals with the loop's key sets (beta on
MAC-constrained nodes, mu on transmitters); every value and its order is
the census's as first recorded.

The deployment is the 120-node campaign mesh; the endpoint pairs are the
first ten draws of a fixed stream whose ETX route has at least five hops
and whose forwarder set is selectable.
"""

import dataclasses
import functools
import hashlib
import random

from repro import obs
from repro.experiments.common import CampaignConfig, build_network
from repro.optimization.messages import DistanceVectorRouter, MessagePassingRateControl
from repro.optimization.multi_session import MultiSessionRateControl
from repro.optimization.problem import (
    SessionGraph,
    session_graph_from_network,
    session_graph_from_selection,
)
from repro.optimization.rate_control import RateControlAlgorithm, RateControlDuals
from repro.optimization.replanning import replan_cost
from repro.protocols.etx_routing import plan_etx_route
from repro.routing.node_selection import NodeSelectionError, select_forwarders
from repro.topology.random_network import fig1_sample_topology

PAIR_COUNT = 10
MIN_HOPS = 5

PAIRS = (
    (113, 18),
    (69, 111),
    (49, 14),
    (95, 50),
    (102, 19),
    (42, 115),
    (70, 100),
    (21, 34),
    (19, 54),
    (89, 78),
)


def canonical(value):
    """A ``repr``-stable rendering: dataclasses by field, dicts in order."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ", ".join(
            f"{f.name}={canonical(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({fields})"
    if isinstance(value, dict):
        items = ", ".join(
            f"{canonical(k)}: {canonical(v)}" for k, v in value.items()
        )
        return "{" + items + "}"
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(canonical(v) for v in value) + "]"
    # Exact types only: np.float64 / np.int64 repr differently from the
    # builtins on purpose, so a leaked numpy scalar changes the digest.
    return repr(value)


def digest(values) -> str:
    sha = hashlib.sha256()
    for value in values:
        sha.update(canonical(value).encode())
        sha.update(b"\n")
    return sha.hexdigest()


@functools.cache
def mesh():
    _, network = build_network(CampaignConfig(node_count=120, seed=2008))
    return network


@functools.cache
def graphs():
    return [
        session_graph_from_selection(mesh(), select_forwarders(mesh(), s, d))
        for s, d in PAIRS
    ]


def test_pairs_are_the_first_ten_long_plannable_draws():
    rng = random.Random(2008)
    pairs = []
    while len(pairs) < PAIR_COUNT:
        source, destination = rng.sample(range(mesh().node_count), 2)
        try:
            if plan_etx_route(mesh(), source, destination).hop_count < MIN_HOPS:
                continue
            select_forwarders(mesh(), source, destination)
        except NodeSelectionError:
            continue
        pairs.append((source, destination))
    assert tuple(pairs) == PAIRS


def cold_and_warm():
    cold = [RateControlAlgorithm(graph).run() for graph in graphs()]
    warm = [
        RateControlAlgorithm(graph, warm_start=result.duals).run()
        for graph, result in zip(graphs(), cold)
    ]
    return digest(cold), digest(warm)


def message_passing():
    """Results and census of the message-passing face."""
    outcomes = []
    for graph in graphs():
        controller = MessagePassingRateControl(graph)
        outcomes.append((controller.run(), controller.stats))
    return digest(outcomes)


def four_opposing_sessions():
    endpoints = []
    for source, destination in PAIRS:
        try:
            select_forwarders(mesh(), destination, source)
        except NodeSelectionError:
            continue
        endpoints += [(source, destination), (destination, source)]
        if len(endpoints) == 4:
            break
    assert len(endpoints) == 4
    session_graphs = [
        session_graph_from_selection(mesh(), select_forwarders(mesh(), s, d))
        for s, d in endpoints
    ]
    result = MultiSessionRateControl(session_graphs).run()
    return digest([endpoints, result])


def replan_costs():
    return digest([replan_cost(mesh(), s, d) for s, d in PAIRS[:4]])


class WarmCensus(RateControlAlgorithm):
    """The census loop, warm-started."""

    def _sub1(self, graph):
        return DistanceVectorRouter(graph)


def near_tie_loop():
    """A census whose first exchange hears a route one ulp cheaper than the
    one it holds: 0.1 + (0.2 + 0.3) = 0.6 against (0.1 + 0.2) + 0.3 =
    0.6000000000000001.  Under the 1e-15 threshold the source keeps the
    two-hop route it heard first, and no extra round runs."""
    prices = {(0, 1): 0.1, (1, 2): 0.2, (2, 4): 0.3, (0, 3): 0.1 + 0.2, (3, 4): 0.3}
    nodes = tuple(range(5))
    graph = SessionGraph(
        0, 4, nodes, tuple(prices), dict.fromkeys(prices, 0.9),
        {node: frozenset(nodes) - {node} for node in nodes}, 1.0,
    )
    return WarmCensus(graph, warm_start=RateControlDuals(prices, {}, {}, {}, 0))


def near_tie_census():
    loop = near_tie_loop()
    result = loop.run()
    router = loop._routers[0]
    return digest([result, router.distance_advertisements, router.flow_setup_tokens])


def fig1_observed_iterations():
    """The obs-on path: counters, residual samples and trace records."""
    graph = session_graph_from_network(fig1_sample_topology(), 0, 5)
    tracer = obs.EventTracer()
    with obs.collecting() as registry:
        result = RateControlAlgorithm(graph, tracer=tracer).run()
    records = [
        record.as_dict() for record in tracer.records(kind="rate_control.iteration")
    ]
    assert len(records) == result.iterations
    observed = [
        registry.value("optimizer.iterations"),
        registry.get("optimizer.primal_residual").samples(),
        registry.value("optimizer.step_size"),
        registry.value("optimizer.lambda_max"),
        registry.value("optimizer.beta_max"),
        records,
        result,
    ]
    return digest(observed)
