"""Bit-exact oracle for the Table 1 loop's three faces.

The digests below were recorded on the dict-iterating implementation
(before ``SessionGraph`` grew its compiled index view) and must hold
for any later implementation: every float goes through ``repr`` and
every dict through its insertion order, so a reordered accumulation, a
numpy scalar leaking into a result or a reshuffled result dict all show.

The deployment is the 120-node campaign mesh; the endpoint pairs are the
first ten draws of a fixed stream whose ETX route has at least five hops
and whose forwarder set is selectable.
"""

import dataclasses
import hashlib
import random

import pytest

from repro import obs
from repro.experiments.common import CampaignConfig, build_network
from repro.optimization.messages import MessagePassingRateControl
from repro.optimization.multi_session import MultiSessionRateControl
from repro.optimization.problem import (
    session_graph_from_network,
    session_graph_from_selection,
)
from repro.optimization.rate_control import RateControlAlgorithm
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

COLD = "42a640356f5cb21665b0b576d7af28692a75f23dc7a601d6ddf146261647dcdf"
WARM = "2201f31dcd66eb1bb875d27785d169d7e17652161d46eba090899f7c6b6bab29"
# The census duals carry the loop's key sets (beta on MAC-constrained
# nodes, mu on transmitters); every value and its order is the census's
# as first recorded.
MESSAGES = "292ac313a4cdd4733602b24ccc078509d1bc39bfe00620c0a4140dd5266e9481"
MULTI = "fda32c5965e5c56500d09db64ee1d6dfbe5d6cf1ee371785b3ba0e8bc66a6eb1"
REPLAN = "9c76799b43753317a948bf8f5394836cbd3b4617ccb8d55081555a0a0a569ea1"
FIG1_OBS = "5e8c45d4af01d018fb8fef6798e9a96b06fc436b4a2366eebba878e875d37d5d"


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


@pytest.fixture(scope="module")
def mesh():
    _, network = build_network(CampaignConfig(node_count=120, seed=2008))
    return network


@pytest.fixture(scope="module")
def graphs(mesh):
    return [
        session_graph_from_selection(mesh, select_forwarders(mesh, s, d))
        for s, d in PAIRS
    ]


def test_pairs_are_the_first_ten_long_plannable_draws(mesh):
    rng = random.Random(2008)
    pairs = []
    while len(pairs) < PAIR_COUNT:
        source, destination = rng.sample(range(mesh.node_count), 2)
        try:
            if plan_etx_route(mesh, source, destination).hop_count < MIN_HOPS:
                continue
            select_forwarders(mesh, source, destination)
        except NodeSelectionError:
            continue
        pairs.append((source, destination))
    assert tuple(pairs) == PAIRS


def test_rate_control_cold_and_warm(graphs):
    cold = [RateControlAlgorithm(graph).run() for graph in graphs]
    assert digest(cold) == COLD
    warm = [
        RateControlAlgorithm(graph, warm_start=result.duals).run()
        for graph, result in zip(graphs, cold)
    ]
    assert digest(warm) == WARM


def test_message_passing_results_and_census(graphs):
    outcomes = []
    for graph in graphs:
        controller = MessagePassingRateControl(graph)
        outcomes.append((controller.run(), controller.stats))
    assert digest(outcomes) == MESSAGES


def test_multi_session_on_four_opposing_sessions(mesh):
    endpoints = []
    for source, destination in PAIRS:
        try:
            select_forwarders(mesh, destination, source)
        except NodeSelectionError:
            continue
        endpoints += [(source, destination), (destination, source)]
        if len(endpoints) == 4:
            break
    assert len(endpoints) == 4
    session_graphs = [
        session_graph_from_selection(mesh, select_forwarders(mesh, s, d))
        for s, d in endpoints
    ]
    result = MultiSessionRateControl(session_graphs).run()
    assert digest([endpoints, result]) == MULTI


def test_replan_cost(mesh):
    costs = [replan_cost(mesh, s, d) for s, d in PAIRS[:4]]
    assert digest(costs) == REPLAN


def test_fig1_observed_iterations():
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
    assert digest(observed) == FIG1_OBS
