"""Every decoded generation had a network min cut of its size behind it.

Network coding's limit, checked on traced exact sessions: a destination's
rank is at most the max-flow of the time-expanded graph of what the
network actually delivered while the generation was live.  Per ACKed
generation the ``delivery`` records since the session's previous ``ack``
become that graph — each broadcast a unit-capacity hyperarc from its
sender to every receiver that kept it, each node's memory an arc of
unbounded capacity forward in time — and its source-to-destination
max-flow (``networkx``) must reach the generation size.  In a
multi-session run the graph holds every session's deliveries (a
delivery record does not name its session), which only adds capacity:
the bound still holds.

Traced runs are scalar; the compiled slot loop's property tests
(``test_compiled_slots``) carry the invariant over to the kernel.
"""

from bisect import bisect_left
from collections import defaultdict

import networkx as nx
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.emulator.multisession import run_multi_session
from repro.emulator.session import SessionConfig, run_coded_session
from repro.obs import EventTracer, TraceRecord
from repro.optimization.sunicast import InfeasibleSessionError
from repro.protocols.intersession import plan_intersession_pairs
from repro.protocols.more import plan_more
from repro.protocols.omnc import plan_omnc
from repro.routing.node_selection import NodeSelectionError
from repro.util.rng import RngFactory
from tests.meshes import lossy_meshes
from tests.test_active_set import chain_network

BLOCKS = 4
PLANNERS = {"more": plan_more, "omnc": plan_omnc}


def max_flow(deliveries, source, destination):
    """Source-to-destination max-flow over ``deliveries`` (trace records):
    a layer per slot that delivered, a unit hyperarc per broadcast."""
    broadcasts = defaultdict(list)
    for record in deliveries:
        broadcasts[record.fields["slot"], record.fields["node"]].append(record.fields["peer"])
    layers = {slot: at for at, slot in enumerate(sorted({slot for slot, _node in broadcasts}))}
    graph = nx.DiGraph()
    graph.add_nodes_from([(source, 0), (destination, len(layers))])
    nodes = {source, destination}
    for (slot, sender), receivers in broadcasts.items():
        at = layers[slot]
        hub = ("broadcast", slot, sender)
        graph.add_edge((sender, at), hub, capacity=1)
        for receiver in receivers:
            graph.add_edge(hub, (receiver, at + 1))  # no capacity: unbounded
        nodes.update((sender, *receivers))
    for node in nodes:  # memory: what a node holds, it keeps
        for at in range(len(layers)):
            graph.add_edge((node, at), (node, at + 1))
    return nx.maximum_flow_value(graph, (source, 0), (destination, len(layers)))


def generation_flows(tracer, source, destination, session=None):
    """``(generation, max-flow)`` per ACKed generation of a session (one
    bound to ``session`` in a multi-session run)."""
    acks = [
        record for record in tracer.records(kind="ack")
        if session is None or record.fields.get("peer") == session
    ]
    deliveries = list(tracer.records(kind="delivery"))  # in slot order
    slots = [record.fields["slot"] for record in deliveries]
    start, flows = 0, []
    for ack in acks:
        end = ack.fields["slot"]
        window = deliveries[bisect_left(slots, start) : bisect_left(slots, end)]
        flows.append((ack.fields["detail"] - 1, max_flow(window, source, destination)))
        start = end
    return flows


@st.composite
def planned_sessions(draw):
    """A lossy mesh and one to three sessions planned on it."""
    network = draw(lossy_meshes())
    count = network.node_count
    wanted = draw(st.integers(1, 3))
    pairs = draw(st.permutations([(s, d) for s in range(count) for d in range(count) if s != d]))
    plans = {}
    for source, destination in pairs[:40]:
        protocol = draw(st.sampled_from(sorted(PLANNERS)))
        try:
            plans[len(plans) + 1] = PLANNERS[protocol](network, source, destination)
        except (NodeSelectionError, InfeasibleSessionError):
            continue
        if len(plans) == wanted:
            break
    assume(plans)
    return network, plans, draw(st.integers(0, 2**16))


def _config():
    return SessionConfig(
        blocks=BLOCKS, block_size=64, max_seconds=3.0, coding_fidelity="exact",
        systematic=False,
    )


def test_a_line_needs_every_generation_carried_across_each_hop():
    # One generation over a three-node line: flow is limited by the hop
    # transmissions that delivered, never above them.
    def record(slot, node, peer):
        return TraceRecord(0, "delivery", {"slot": slot, "node": node, "peer": peer})

    deliveries = [record(0, 0, 1), record(1, 0, 1), record(2, 1, 2), record(3, 0, 1)]
    assert max_flow(deliveries, 0, 2) == 1
    deliveries.append(record(4, 1, 2))
    assert max_flow(deliveries, 0, 2) == 2
    assert max_flow([record(0, 0, 1), record(0, 0, 2)], 0, 2) == 1  # one broadcast, one unit


@given(recipe=planned_sessions())
@settings(deadline=None, max_examples=20, suppress_health_check=[HealthCheck.too_slow,
                                                                 HealthCheck.filter_too_much])
def test_every_decoded_generation_had_its_min_cut(recipe):
    network, plans, seed = recipe
    tracer = EventTracer(capacity=1_000_000)
    if len(plans) == 1:
        (plan,) = plans.values()
        run_coded_session(network, plan, config=_config(), rng=RngFactory(seed), tracer=tracer)
        checks = [(plan, None)]
    else:
        run_multi_session(
            network, plans, config=_config(), rng=RngFactory(seed),
            xor_pairs=plan_intersession_pairs(plans), tracer=tracer,
        )
        checks = [(plan, sid) for sid, plan in plans.items()]
    assert tracer.dropped == 0
    for plan, session in checks:
        for generation, flow in generation_flows(
            tracer, plan.source, plan.destination, session
        ):
            assert flow >= BLOCKS, f"session {session}: generation {generation} decoded over {flow}"


@pytest.mark.parametrize("sessions", [1, 2])
def test_the_oracle_sees_decodes_on_the_reference_chain(sessions):
    # Not vacuous: a chain where every session decodes several generations.
    network = chain_network()
    endpoints = [(0, 2), (2, 0)][:sessions]
    plans = {sid: plan_omnc(network, *pair) for sid, pair in enumerate(endpoints, 1)}
    tracer = EventTracer(capacity=1_000_000)
    if sessions == 1:
        run_coded_session(network, plans[1], config=_config(), rng=RngFactory(2), tracer=tracer)
        flows = generation_flows(tracer, 0, 2)
    else:
        run_multi_session(
            network, plans, config=_config(), rng=RngFactory(2),
            xor_pairs=plan_intersession_pairs(plans), tracer=tracer,
        )
        flows = [flow for sid, (s, d) in enumerate(endpoints, 1)
                 for flow in generation_flows(tracer, s, d, sid)]
    assert len(flows) >= 2 and all(flow >= BLOCKS for _generation, flow in flows)
