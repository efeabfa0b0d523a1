"""The compiled Table 1 loop equals the Python loop, and falls back to it.

The property runs the same solve on both paths (:func:`tests.pins.table1_loop`
forces and checks the path) over random lossy meshes and compares every
field: iterations, ``converged``, recovered rates and flows, throughput,
both histories, the duals, each router's last iterate and recovered
gamma, and the census's message counts.  The fallback tests take the
compiler away, or fail the load-time self-test, and expect the Python
loop with one logged warning.  The kernel's flood greedy is held to the
Python flood the same way: a property over every origin of random
meshes, and the Python flood's literal oracles run on it.
"""

import dataclasses
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimization import native, rate_control
from repro.optimization.messages import DistanceVectorRouter, MessagePassingRateControl
from repro.optimization.multi_session import MultiSessionRateControl
from repro.optimization.problem import session_graph_from_network
from repro.optimization.rate_control import (
    RateControlAlgorithm,
    RateControlConfig,
    RateControlDuals,
    RateControlResult,
    compiled_kernel,
)
from repro.optimization.subgradient import ConstantStepSize, DiminishingStepSize
from repro.routing.pseudo_broadcast import neighborhood_broadcast_cost, reliable_flood
from repro.routing.shortest_path import etx_tree
from repro.topology.random_network import fig1_sample_topology
from tests import test_pseudo_broadcast as pseudo
from tests.meshes import lossy_meshes
from tests.pins import table1_loop
from tests.test_table1_oracle import WarmCensus, near_tie_loop

#: Link prices for a warm census: a route priced (0.0, 0.3) costs one ulp
#: less than one priced (0.1 + 0.2,), and 1.0 keeps other routes away.
NEAR_TIES = (0.0, 0.3, 0.1 + 0.2, 1.0)

needs_kernel = pytest.mark.skipif(
    compiled_kernel() is None, reason="no compiled Table 1 loop here"
)


def test_a_kernel_that_builds_passes_its_self_test():
    # Else every test that needs the kernel skips, and a regression the
    # self-test catches (in the loop or the flood) would pass unseen.
    if native.load() is None:
        pytest.skip("the compiled Table 1 kernel does not build here")
    assert compiled_kernel() is not None, "the Table 1 kernel builds but fails its self-test"


def outcome(make, steps):
    """Everything a caller can read off a loop built by ``make``, stepped
    ``steps`` times by hand, then solved (or the error it raised)."""
    try:
        loop = make()
        for _ in range(steps):
            loop.step()
        results = loop.solve()
    except (ValueError, AssertionError) as error:
        return repr(error)
    fields = [
        {f.name: repr(getattr(result, f.name)) for f in dataclasses.fields(RateControlResult)}
        for result in results
    ]
    routers = [
        (repr(router.last_iterate), repr(router.recovered_gamma), router.iterations)
        for router in loop._routers
    ]
    census = [
        (router.distance_advertisements, router.flow_setup_tokens)
        for router in loop._routers
        if isinstance(router, DistanceVectorRouter)
    ]
    return fields, routers, census, loop.iteration


def on_both_loops(make, steps=0):
    """``outcome`` on the Python loop and on the compiled one."""
    outcomes = []
    for loop in ("python", "compiled"):
        with table1_loop(loop):
            outcomes.append(outcome(make, steps))
    return outcomes


def draw_problem(net, data, sessions):
    """Endpoints on ``net`` (a source and up to ``sessions`` reachable
    destinations; an unreachable one where there are none), their graphs,
    a config and a number of steps to take by hand."""
    source = data.draw(st.integers(0, net.node_count - 1), label="source")
    targets = sorted(set(etx_tree(net, source).distance) - {source})
    if targets:
        count = data.draw(st.integers(1, sessions), label="sessions")
        destinations = [data.draw(st.sampled_from(targets)) for _ in range(count)]
    else:  # both loops must raise the same error
        destinations = [(source + 1) % net.node_count]
    graphs = [session_graph_from_network(net, source, d) for d in destinations]
    config = RateControlConfig(
        step_size=data.draw(
            st.sampled_from((DiminishingStepSize(a=1.0, b=0.5, c=0.1), ConstantStepSize(0.05)))
        ),
        primal_recovery=data.draw(st.booleans(), label="primal_recovery"),
        recovery_tail=data.draw(st.sampled_from((0.5, 1.0)), label="recovery_tail"),
        max_iterations=data.draw(st.sampled_from((30, 64, 65, 400)), label="max_iterations"),
        min_iterations=data.draw(st.sampled_from((1, 20)), label="min_iterations"),
    )
    steps = data.draw(st.integers(0, 3), label="steps by hand") if targets else 0
    return graphs, config, steps


@needs_kernel
@given(lossy_meshes(), st.data())
@settings(max_examples=60, deadline=None)
def test_compiled_loop_equals_the_python_loop(net, data):
    graphs, config, steps = draw_problem(net, data, sessions=3)
    if data.draw(st.booleans(), label="census"):
        graph = graphs[0]
        cold = on_both_loops(lambda: MessagePassingRateControl(graph, config), steps)
    else:
        cold = on_both_loops(lambda: MultiSessionRateControl(graphs, config), steps)
    assert cold[0] == cold[1]
    if isinstance(cold[0], str) or len(graphs) > 1:
        return
    duals = RateControlAlgorithm(graphs[0], config).run().duals
    warm = on_both_loops(lambda: RateControlAlgorithm(graphs[0], config, warm_start=duals), steps)
    assert warm[0] == warm[1]


@needs_kernel
@given(lossy_meshes(), st.data())
@settings(max_examples=150, deadline=None)
def test_a_warm_census_equals_the_python_loop(net, data):
    # Warm link prices from NEAR_TIES make the distance-vector exchange
    # meet routes one ulp apart (its 1e-15 threshold decides them) in
    # about one run in ten; cold runs almost never do.
    graphs, config, steps = draw_problem(net, data, sessions=1)
    prices = {link: data.draw(st.sampled_from(NEAR_TIES)) for link in graphs[0].links}
    duals = RateControlDuals(prices, {}, {}, {}, 0)
    python, compiled = on_both_loops(
        lambda: WarmCensus(graphs[0], config, warm_start=duals), steps
    )
    assert python == compiled


@needs_kernel
def test_a_route_one_ulp_cheaper_does_not_displace_the_held_one():
    # Random meshes almost never meet the distance-vector's 1e-15
    # threshold; this census meets it in its first exchange.
    python, compiled = on_both_loops(near_tie_loop)
    assert python == compiled


@pytest.fixture
def fresh_kernel(monkeypatch, tmp_path):
    """No verdict on the kernel yet, and an empty compiled-kernel cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    compiled_kernel.cache_clear()
    yield
    compiled_kernel.cache_clear()


def fig1_results():
    graph = session_graph_from_network(fig1_sample_topology(), 0, 5)
    return repr(MultiSessionRateControl([graph, graph]).solve())


@pytest.mark.parametrize("fault", ["no compiler", "failed self-test", "no kernel source"])
def test_without_the_kernel_the_python_loop_runs(
    fault, fresh_kernel, monkeypatch, caplog, tmp_path
):
    with table1_loop("python"):
        expected = fig1_results()
    compiled_kernel.cache_clear()
    if fault == "no compiler":
        monkeypatch.setenv("CC", "/nonexistent")
    elif fault == "no kernel source":
        monkeypatch.setattr(native, "SOURCE", tmp_path / "table1.c")
    else:
        monkeypatch.setattr(rate_control, "_self_test", lambda run: False)
    with caplog.at_level(logging.WARNING, logger=rate_control.__name__):
        assert compiled_kernel() is None
        assert fig1_results() == expected
        assert fig1_results() == expected
    (record,) = [r for r in caplog.records if r.name == rate_control.__name__]
    assert "compiled Table 1 loop is unavailable here" in record.getMessage()
    if fault != "failed self-test":
        assert native.load() is None


@needs_kernel
def test_the_self_test_refuses_a_wrong_kernel():
    kernel = compiled_kernel()

    def stops_short(loop, theta, count):
        kernel.run(loop, theta, max(count - 1, 0))
        return native.EXHAUSTED

    assert rate_control._self_test(kernel)
    assert not rate_control._self_test(kernel._replace(run=stops_short))


def flood_outcome(net, origin, costs=None):
    """What a caller reads off a flood, down to summation order."""
    result = reliable_flood(net, origin, costs=costs)
    return result.reached, result.forward_order, repr(result.total_transmissions)


@needs_kernel
@given(lossy_meshes())
@settings(max_examples=100, deadline=None)
def test_compiled_flood_equals_the_python_flood(net):
    costs = native.broadcast_costs(compiled_kernel(), net)
    python = [neighborhood_broadcast_cost(net, node) for node in net.nodes()]
    assert [(repr(c.transmissions), list(c.covered)) for c in costs] == [
        (repr(c.transmissions), list(c.covered)) for c in python
    ]
    for origin in net.nodes():
        assert flood_outcome(net, origin, costs) == flood_outcome(net, origin)


@pytest.fixture
def compiled_flood(monkeypatch):
    """``tests.test_pseudo_broadcast``'s cost and flood, on the kernel."""
    kernel = compiled_kernel()
    monkeypatch.setattr(
        pseudo, "neighborhood_broadcast_cost",
        lambda net, sender: native.broadcast_costs(kernel, net)[sender],
    )
    monkeypatch.setattr(
        pseudo, "reliable_flood",
        lambda net, origin: reliable_flood(net, origin, costs=native.broadcast_costs(kernel, net)),
    )


@needs_kernel
@pytest.mark.usefixtures("compiled_flood")
class TestCompiledFloodLiterals(pseudo.TestReferenceMeshOracle):
    """The Python flood's literal oracles, at their literals, on the kernel."""

    test_equal_best_links_target_the_lower_id_first = (
        pseudo.TestNeighborhoodCost.test_equal_best_links_target_the_lower_id_first
    )
    test_overhearing_alone_covers_the_weakest_neighbor = (
        pseudo.TestNeighborhoodCost.test_overhearing_alone_covers_the_weakest_neighbor
    )


@needs_kernel
def test_the_self_test_refuses_a_flood_that_breaks_ties_upward(
    fresh_kernel, monkeypatch, tmp_path
):
    tie, source = "p[k] > p[target]", native.SOURCE.read_text()
    assert source.count(tie) == 1
    mutant = tmp_path / "table1.c"
    mutant.write_text(source.replace(tie, "p[k] >= p[target]"))
    monkeypatch.setattr(native, "SOURCE", mutant)
    assert native.load() is not None
    assert compiled_kernel() is None
