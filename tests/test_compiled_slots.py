"""The compiled slot loop equals the scalar form, and falls back.

The properties run the same epochs on a scalar core and on one that runs
them compiled, over random lossy meshes, and compare each epoch's reply
and, after it, every runtime's fields (a compiled core's rows stored into
their objects), the parked nodes, the queue-time integrals, the
transmissions and the delivered links — and at the end ``finalize`` and
the next values of every draw stream.  Some slots go a phase at a time,
as a shard worker's do.  The fallback tests take the compiler away, or
fail the load-time self-test, and expect scalar cores with one logged
warning.

A failing property here replays whole epochs per shrink step, so the
shrink phase is bounded (:data:`SHRINK_SECONDS`): a kernel regression
fails in seconds, with an example that may be less than minimal.
"""

import ctypes
import functools
import logging
import math
import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.internal.conjecture import engine as conjecture

from repro import obs
from repro.coding.encoder import SourceEncoder
from repro.coding.generation import Generation
from repro.emulator import engine, native
from repro.emulator.engine import (
    CoreInit,
    EngineCore,
    _DecodeLog,
    _forced,
    _next_draws,
    compiled_kernel,
)
from repro.emulator.engine import _fields as runtime_fields
from repro.emulator.native import StreamBank
from repro.emulator.node import (
    CodedDestinationRuntime,
    CodedRelayRuntime,
    CodedSourceRuntime,
    FlowDestinationRuntime,
    FlowRelayRuntime,
    FlowSourceRuntime,
    InterSessionXorRelay,
    MultiSessionNodeRuntime,
    RuntimeTerms,
    UnicastRuntime,
    install_runtimes,
)
from repro.emulator.plan import CodingParams
from repro.emulator.session import (
    SessionConfig,
    build_plan_runtimes,
    run_coded_session,
    session_result,
)
from repro.emulator.awake import AwakeSet
from repro.emulator.multisession import multi_session_digest
from repro.emulator.shard import ShardedSession, session_digest
from repro.protocols.etx_routing import plan_etx_route
from repro.protocols.more import plan_more
from repro.routing.node_selection import NodeSelectionError
from repro.topology.graph import WirelessNetwork
from repro.util.rng import DrawBuffers, RngFactory
from tests.dormancy import parked_contract_monitor
from tests.meshes import lossy_meshes
from tests.pins import PINS, bench_smoke, core_form
from tests.test_exec_campaign import fig2_campaign
from tests.test_plan_install import unicast_driver
from tests.test_active_set import PACKET_BYTES as MESH_PACKET_BYTES
from tests.test_active_set import (
    advance_by_hand,
    churn_xor_run,
    line_network,
    line_runtimes,
    line_session,
    plan_session,
    planned_mesh,
    stats_digest,
)

KERNEL = compiled_kernel()
PINS_BY_NAME = {pin.name: pin for pin in PINS}
needs_kernel = pytest.mark.skipif(KERNEL is None, reason="the compiled slot loop is unavailable")

#: Seconds a failing property may spend shrinking its example (Hypothesis
#: allows five minutes, and one shrink step here runs both forms' epochs).
SHRINK_SECONDS = 15


PACKET_BYTES = 1000


@pytest.fixture(autouse=True)
def bounded_shrink(monkeypatch):
    monkeypatch.setattr(conjecture, "MAX_SHRINKING_SECONDS", SHRINK_SECONDS)


def test_a_kernel_that_builds_passes_its_self_test():
    # Else every test that needs the kernel skips, and a regression the
    # self-test catches would pass for a machine without a compiler.
    if native.load() is None:
        pytest.skip("the compiled slot loop does not build here")
    assert KERNEL is not None, "the compiled slot loop builds but fails its self-test"


@st.composite
def recipes(draw):
    """A flow-only core to build twice: the mesh, one runtime recipe per
    node, the hosted nodes, the interference model, seed and bank block."""
    network = draw(lossy_meshes())
    count = network.node_count
    capacity = network.capacity
    runtimes = {}
    for node in range(count):
        kinds = ("source", "rate", "credit", "destination")
        kind = "source" if node == 0 else draw(st.sampled_from(kinds))
        blocks = draw(st.integers(1, 5))
        generation = draw(st.integers(0, 2))
        if kind == "destination":
            terms = {"session": draw(st.sampled_from((1, 2)))}
        else:
            terms = {
                "rate": capacity * draw(st.sampled_from((0.0, 0.1, 0.5, 1.0, 2.5))),
                "limit": draw(st.sampled_from((1, 3, 50))),
            }
            if kind == "credit":
                terms["tx_credit"] = draw(st.sampled_from((0.4, 1.0, 1.7)))
                terms["upstream"] = tuple(
                    draw(st.lists(st.integers(0, count - 1), max_size=4, unique=True))
                )
        runtimes[node] = (kind, blocks, generation, terms)
    hosted = draw(st.one_of(
        st.just(tuple(range(count))),
        st.lists(st.integers(0, count - 1), min_size=1, unique=True).map(sorted).map(tuple),
    ))
    return {
        "network": network,
        "runtimes": runtimes,
        "hosted": hosted,
        "interference": draw(st.sampled_from(("blanking", "conflict_free"))),
        "seed": draw(st.integers(0, 2**16)),
        "block": draw(st.sampled_from((1, 2, 32, StreamBank.BLOCK))),
        "ties": draw(st.booleans()),
    }


def _tie_first_blocks(core, nodes, block):
    """Floor the first block of each of ``nodes``' lottery keys to halves,
    in the buffers or the bank the core draws them from: keys that tie,
    which real draws never do, so the (key, position) order is exercised.
    Both forms hold the same block, and draw the real stream after it."""
    if core._kernel is None:
        for node in nodes:
            keys = core._mac_draws.refill(node, block)
            keys[:] = [math.floor(key * 2.0) * 0.5 for key in keys]
        return
    bank = core._mac
    rows = bank.rows_for(nodes)
    keys = bank.take(rows, np.full(len(rows), block)).reshape(len(rows), block)
    bank._values[rows] = np.floor(keys * 2.0) * 0.5
    bank._cursor[rows] = 0


def _build(recipe, kernel):
    log = _DecodeLog()
    runtimes = {}
    for node in recipe["hosted"]:
        kind, blocks, generation, terms = recipe["runtimes"][node]
        if kind == "source":
            runtime = FlowSourceRuntime(
                node, 1, blocks, terms["rate"], PACKET_BYTES, queue_limit=terms["limit"]
            )
        elif kind == "destination":
            runtime = FlowDestinationRuntime(node, terms["session"], blocks, on_decoded=log)
        else:
            runtime = FlowRelayRuntime(
                node, 1, blocks, PACKET_BYTES, mode=kind, rate_bps=terms["rate"],
                tx_credit=terms.get("tx_credit", 0.0), upstream=terms.get("upstream", ()),
                queue_limit=terms["limit"],
            )
        runtime.advance_generation(generation)
        runtimes[node] = runtime
    network = recipe["network"]
    init = CoreInit(
        network, runtimes, tuple(range(network.node_count)), PACKET_BYTES / network.capacity,
        recipe["interference"], recipe["seed"], has_unicast=False, decode_log=log,
    )
    with (
        mock.patch.object(StreamBank, "BLOCK", recipe["block"]),
        mock.patch.object(DrawBuffers, "BLOCK", recipe["block"]),
    ):
        core = _forced(kernel)(init)
    if recipe["ties"]:
        _tie_first_blocks(core, recipe["hosted"], recipe["block"])
    return core


def _fields(core):
    """Every hosted runtime's fields, a compiled core's rows stored first."""
    if core._columns is not None:
        core._columns.store(np.arange(len(core._owned)))
    return {
        node: sorted((k, repr(v)) for k, v in vars(runtime).items() if not k.startswith("_on"))
        for node, runtime in core._runtimes.items()
    }


def state(core):
    """What a slot touches, whatever the form, as plain values."""
    core._flush()
    return {
        "runtimes": _fields(core),
        "parked": core.parked_nodes(),
        "queue_time": sorted(core._queue_time_sum.items()),
        "links": sorted(core._delivered_links),
        "transmissions": sorted(core._transmissions.items()),
    }


def _finish_slot(core, contention):
    """Grant a slot over its hosted contenders, then finish it as a shard
    worker is driven: ``fire_resolve`` where no granted node is on the
    cut, else ``fire`` and ``resolve`` with arrivals at other cores
    dropped.  Returns the grant, the awake count and what happened."""
    _awake, keys, nodes = contention  # every node participates: position = id
    ordered = [core._positions[node] for _key, node in sorted(zip(keys, nodes))]
    granted = core._scheduler.grant_from_keyed(ordered)
    if core._cut.isdisjoint(core._positions[node] for node in granted):
        return granted, *core.fire_resolve(granted)
    _awake, fired, entries = core.fire(granted)
    hosted = [(receiver, arrivals) for receiver, arrivals in entries if receiver in core._positions]
    awake, resolved = core.resolve(hosted)
    return granted, awake, fired + resolved


def run_epochs(recipe, schedule, kernel):
    """The epochs of ``schedule`` on a fresh core: ``(budget, action,
    named, phased, decodes)`` each, the action a generation advance, a
    generation-size switch on the hosted nodes with one, one deferred to
    the next decode's ACK, or nothing; a phased one is a single slot a
    phase at a time, the others return after ``decodes`` decodes (None:
    any number), each ACKed by the core.  Returns each epoch's reply and
    state, the finalized core with every runtime's fields and next
    draws, and the kernel's exits."""
    exits = Counter()
    counted = None
    if kernel is not None:
        def run(core, budget):
            status = kernel.run(core, budget)
            exits[core._obj.phase, status] += 1
            return status

        counted = kernel._replace(run=run)
    core = _build(recipe, counted)
    trail = []
    generation = max(terms[2] for terms in recipe["runtimes"].values())
    for budget, action, named, phased, decodes in schedule:
        if action in ("coding", "defer"):
            core.apply_plan({node: {"coding": CodingParams(blocks=6)} for node in recipe["hosted"]})
        if action in ("advance", "coding"):
            generation += 1
        events = [("advance_generation", generation)] if action in ("advance", "coding") else None
        if phased:
            reply = _finish_slot(core, core.begin_slot(events))
            happened = reply[2]
        else:
            reply = core.run_slots((budget, events, named, decodes))
            happened = [e for record in reply[1] for e in record[2]]
            if reply[2] is not None:  # a cut slot
                reply = (*reply, _finish_slot(core, reply[2]))
                happened += reply[3][2]
        decoded = [e for e in happened if e[2] == "decoded"]
        generation = max([generation, *(e[3] + 1 for e in decoded)])
        trail.append((repr(reply), state(core)))
    finalized = core.finalize()
    draws = _next_draws(core, sorted(recipe["runtimes"]))
    return trail, repr(finalized), _fields(core), draws, exits


SCHEDULES = st.lists(
    st.tuples(
        st.integers(1, 300),
        st.sampled_from((None, None, "advance", "coding", "defer")),
        st.booleans(),
        st.booleans(),
        st.sampled_from((None, None, 1, 2)),
    ),
    min_size=1,
    max_size=4,
)


def _epochs_agree(reference, compiled):
    for epoch, (expected, got) in enumerate(zip(reference[0], compiled[0])):
        assert got[0] == expected[0], f"epoch {epoch}: reply"
        for name, value in expected[1].items():
            assert got[1][name] == value, f"epoch {epoch}: {name}"
    assert compiled[1] == reference[1], "finalize()"
    assert compiled[2] == reference[2], "runtime fields"
    assert compiled[3] == reference[3], "next draws"


@needs_kernel
@given(recipe=recipes(), schedule=SCHEDULES)
@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_a_compiled_epoch_equals_the_scalar_epoch(recipe, schedule):
    reference = run_epochs(recipe, schedule, None)
    compiled = run_epochs(recipe, schedule, KERNEL)
    _epochs_agree(reference, compiled)
    assert sum(compiled[4].values()) >= 1 and not reference[4]


@needs_kernel
@given(recipe=recipes())
@settings(deadline=None, max_examples=40)
def test_the_upstream_mask_marks_what_credit_relays_count(recipe):
    # A cell of a transmitter's receiver row is marked exactly where that
    # receiver is a hosted credit relay whose upstream set holds it.
    core = _build(recipe, KERNEL)
    columns, expected = core._columns, np.zeros(core._rx_ids.shape, dtype=bool)
    for row in columns._credit_rows.tolist():
        for sender in columns.upstream[row]:
            if core._position_of[sender] >= 0:
                at = core._position_of[sender]
                expected[at] |= core._rx_ids[at] == core._owned[row]
    assert (columns._upstream == expected).all()


@st.composite
def unicast_recipes(draw):
    """An ETX core to build twice: a lossy mesh, its ETX path between two
    nodes (a bare node list where none exists), unicast runtimes along it
    and on a few bystanders, flow runtimes of a second session on a few
    more (a core may host both), and the epochs to run — each with a
    re-route, a rate swap, a new link table or nothing."""
    network = draw(lossy_meshes())
    count = network.node_count
    source, sink = draw(st.lists(st.integers(0, count - 1), min_size=2, max_size=2, unique=True))
    try:
        path = list(plan_etx_route(network, source, sink).path)
    except NodeSelectionError:
        path = [source, sink]
    others = [node for node in range(count) if node not in path]
    bystanders = draw(st.lists(st.sampled_from(others), unique=True, max_size=5)) if others else []
    split = draw(st.integers(0, len(bystanders)))
    participants = sorted(path + bystanders[:split])
    flows = {
        node: (draw(st.sampled_from(("source", "rate", "destination"))), draw(st.integers(1, 3)))
        for node in bystanders[split:]
    }
    capacity = network.capacity
    # Offered load, in shares of capacity: the source's from none (all
    # park) to well above what the path carries, a few others' a trickle.
    loads = (0.0, 0.0, 0.05, 0.3, 1.0, 2.5)
    runtimes = {}
    for node in participants:
        if node in path:
            at = path.index(node)
            hop = path[at + 1] if at + 1 < len(path) else None
        else:
            hop = draw(st.sampled_from([None, *participants]))
        share = draw(st.sampled_from(loads[1:] if node == source else loads[:3]))
        runtimes[node] = {
            "next_hop": None if hop == node else hop,
            "rate_bps": capacity * share,
            "demand_hint_bps": capacity * draw(st.sampled_from((0.0, 0.2, 0.5, 1.5))),
            "queue_limit": draw(st.sampled_from((1, 1, 2, 5, 500))),  # short queues drop
        }
    epochs = draw(st.lists(
        st.tuples(
            st.integers(1, 300),
            st.sampled_from((None, None, "route", "rate", "network")),
            st.sampled_from(participants),
            st.sampled_from([None, *participants]),
            st.integers(0, 2**16),
            st.booleans(),
        ),
        min_size=1,
        max_size=4,
    ))
    return {
        "network": network,
        "runtimes": runtimes,
        "flows": flows,
        "epochs": epochs,
        "interference": draw(st.sampled_from(("blanking", "conflict_free"))),
        "seed": draw(st.integers(0, 2**16)),
        "block": draw(st.sampled_from((1, 2, 32, StreamBank.BLOCK))),
    }


@needs_kernel
def test_a_sink_delivery_shares_a_slot_with_an_object_path_arrival():
    # Two pairs out of each other's range: ETX 0 -> 1 delivers every slot,
    # and the flow relay 3 first hears source 2, a generation ahead of
    # it, in one of them, which takes the object path.
    network = WirelessNetwork(
        np.array([[0.0, 0.0], [0.5, 0.0], [5.0, 0.0], [5.5, 0.0]]),
        {(0, 1): 1.0, (2, 3): 1.0},
        communication_range=1.0,
    )
    recipe = {
        "network": network,
        "runtimes": {
            0: {"next_hop": 1, "rate_bps": network.capacity, "demand_hint_bps": 0.0,
                "queue_limit": 5},
            1: {"next_hop": None, "rate_bps": 0.0, "demand_hint_bps": 0.0, "queue_limit": 5},
        },
        "flows": {2: ("source", 1, 1), 3: ("rate", 1)},
        "epochs": [(20, None, 0, None, 0, False), (20, None, 0, None, 0, True)],
        "interference": "blanking", "seed": 5, "block": StreamBank.BLOCK,
    }
    shared = []

    def spy(core, budget):
        status = KERNEL.run(core, budget)
        shared.append(status == native.FALLBACK and core._obj.sunk > 0)
        return status

    reference = run_unicast_epochs(recipe, None)
    assert run_unicast_epochs(recipe, KERNEL._replace(run=spy))[:4] == reference[:4]
    assert any(shared)
    assert "delivered" in reference[0][0]


def _redrawn(network, seed):
    """``network`` under a new link table: some links gone, the rest at
    new probabilities (dyadic half the time, as ``lossy_meshes`` draws)."""
    rng = random.Random(seed)
    links = {}
    for i, j, p in network.links():
        if rng.random() < 0.8:
            links[(i, j)] = rng.choice((1.0, 0.5, 0.25, p))
    return network.with_links(links)


def run_unicast_epochs(recipe, kernel):
    """The recipe's epochs on a scalar core (``kernel`` None) or on one
    that runs them compiled (a flow runtime at the generation its recipe
    names after kind and size, if any).  Returns each epoch's reply, the
    finalized core, every runtime's fields after it, the next values of
    every node's draw streams, and how often the kernel was called."""
    calls = []

    def counted(core, budget):
        calls.append(budget)
        return kernel.run(core, budget)

    log = _DecodeLog()
    runtimes = {
        node: UnicastRuntime(
            node, packet_bytes=PACKET_BYTES, on_delivered=log.deliver, **terms
        )
        for node, terms in recipe["runtimes"].items()
    }
    network = recipe["network"]
    rate = network.capacity / 2
    for node, (kind, blocks, *ahead) in recipe["flows"].items():
        if kind == "source":
            runtimes[node] = FlowSourceRuntime(node, 2, blocks, rate, PACKET_BYTES, queue_limit=3)
        elif kind == "rate":
            runtimes[node] = FlowRelayRuntime(
                node, 2, blocks, PACKET_BYTES, mode="rate", rate_bps=rate
            )
        else:
            runtimes[node] = FlowDestinationRuntime(node, 2, blocks, on_decoded=log)
        for generation in ahead:
            runtimes[node].advance_generation(generation)
    init = CoreInit(
        network, runtimes, tuple(sorted(runtimes)), PACKET_BYTES / network.capacity,
        recipe["interference"], recipe["seed"], has_unicast=True, decode_log=log,
    )
    with (
        mock.patch.object(StreamBank, "BLOCK", recipe["block"]),
        mock.patch.object(DrawBuffers, "BLOCK", recipe["block"]),
    ):
        core = _forced(kernel and kernel._replace(run=counted))(init)
        trail = []
        for budget, action, node, hop, seed, named in recipe["epochs"]:
            if action == "route":
                core.apply_plan({node: {"next_hop": None if hop == node else hop}})
            elif action == "rate":
                core.apply_plan({node: {"rate_bps": network.capacity * (seed % 4) / 3}})
            elif action == "network":
                network = _redrawn(network, seed)
                core.set_network(network)
            trail.append(repr(core.run_slots((budget, None, named, None))))
        finalized = repr(core.finalize())
        fields = {
            node: sorted((k, repr(v)) for k, v in vars(runtime).items() if not k.startswith("_on"))
            for node, runtime in runtimes.items()
        }
        draws = _next_draws(core, list(range(network.node_count)))
    return trail, finalized, fields, draws, len(calls)


@needs_kernel
@given(recipe=unicast_recipes())
@settings(deadline=None, max_examples=80, suppress_health_check=[HealthCheck.too_slow])
def test_a_compiled_unicast_epoch_equals_the_scalar_epoch(recipe):
    reference = run_unicast_epochs(recipe, None)
    compiled = run_unicast_epochs(recipe, KERNEL)
    for epoch, (expected, got) in enumerate(zip(reference[0], compiled[0])):
        assert got == expected, f"epoch {epoch}: reply"
    assert compiled[1] == reference[1], "finalize()"
    assert compiled[2] == reference[2], "runtime fields"
    assert compiled[3] == reference[3], "next draws"
    assert compiled[4] >= 1 and reference[4] == 0


def _line_recipe(hosted, block):
    """A 12-node line that reaches every exit: hosted whole or cut after
    node 6, credit relays, every other relay a generation behind the
    source, and tiny bank blocks (wide loss takes); ties at ``block`` 2."""
    network = line_network(12)
    runtimes = {0: ("source", 3, 1, {"rate": 1e4, "limit": 4})}
    for node in range(1, 11):
        kind = "credit" if node % 3 == 0 else "rate"
        runtimes[node] = (kind, 3, node % 2, {
            "rate": 9e3, "limit": 50, "tx_credit": 1.2, "upstream": (node - 1,),
        })
    runtimes[11] = ("destination", 3, 1, {"session": 1})
    return {
        "network": network, "runtimes": runtimes, "hosted": hosted,
        "interference": "blanking", "seed": 3, "block": block, "ties": block == 2,
    }


@needs_kernel
@pytest.mark.parametrize("block", [1, 2, 32])
def test_every_exit_is_exact(block):
    wide = []

    def spy(core, budget):  # loss takes the kernel served past a whole block
        status = KERNEL.run(core, budget)
        wide.append(native.Bank.from_address(core._obj.loss).unbanked)
        return status

    kernel = KERNEL._replace(run=spy)
    schedule = [
        (1, None, True, False, None), (150, None, False, False, None),
        (1, None, False, True, None), (200, "advance", True, False, None),
        (300, "coding", False, False, None), *[(1, None, False, True, None)] * 40,
    ]
    for hosted in (tuple(range(12)), tuple(range(7))):
        recipe = _line_recipe(hosted, block)
        reference = run_epochs(recipe, schedule, None)
        compiled = run_epochs(recipe, schedule, kernel)
        _epochs_agree(reference, compiled)
        exits = compiled[4]
        assert exits[native.EPOCH, native.FALLBACK] and exits[native.EPOCH, native.BUDGET]
        assert bool(exits[native.EPOCH, native.CUT]) == (len(hosted) < 12)
        assert exits[native.CONTEND, native.CUT] == 41
        assert exits[native.RESOLVE, native.BUDGET]
        assert bool(exits[native.FIRE, native.FALLBACK]) == (len(hosted) < 12)
    if block == 1:  # a line node has two receivers: a run of two is wider
        assert any(wide)  # than a block, and served whole
    # Silent relays and a destination park at the first check: asleep.
    silent = {"rate": 0.0, "limit": 5}
    recipe = {
        **_line_recipe(tuple(range(4)), block),
        "network": line_network(4),
        "runtimes": {0: ("rate", 3, 0, silent), 1: ("rate", 3, 0, silent),
                     2: ("rate", 3, 0, silent), 3: ("destination", 3, 0, {"session": 1})},
    }
    reference = run_epochs(recipe, [(50, None, False, False, None)], None)
    compiled = run_epochs(recipe, [(50, None, False, False, None)], KERNEL)
    _epochs_agree(reference, compiled)
    assert compiled[4] == {(native.EPOCH, native.ASLEEP): 1}


@needs_kernel
def test_acks_in_the_kernel_are_exact():
    # A four-node line that decodes every few slots: an epoch with several
    # ACKs in the kernel, one that returns at its decode allowance, and a
    # generation-size switch deferred to an ACK, which the objects take.
    relay = {"rate": 2e4, "limit": 50, "tx_credit": 1.2, "upstream": (0,)}
    recipe = {
        "network": line_network(4), "hosted": (0, 1, 2, 3), "interference": "blanking",
        "seed": 3, "block": 32, "ties": False,
        "runtimes": {
            0: ("source", 2, 0, {"rate": 2e4, "limit": 4}),
            1: ("rate", 2, 0, relay),
            2: ("credit", 2, 0, {**relay, "upstream": (1,)}),
            3: ("destination", 2, 0, {"session": 1}),
        },
    }
    schedule = [
        (120, None, False, False, None), (120, None, True, False, 2),
        (60, "defer", False, False, None), (120, None, False, False, None),
    ]
    calls = []

    def spy(core, budget):
        status = KERNEL.run(core, budget)
        calls.append((core._obj.phase, status, budget, core._obj.slots, core._obj.decodes,
                      core._obj.decode_limit))
        return status

    reference = run_epochs(recipe, schedule, None)
    _epochs_agree(reference, run_epochs(recipe, schedule, KERNEL._replace(run=spy)))
    epochs = [call[1:] for call in calls if call[0] == native.EPOCH]
    acked = [decodes for status, _b, _s, decodes, _l in epochs if status == native.BUDGET]
    assert max(acked) >= 2  # several ACKs in one call
    assert any(
        0 < decodes == limit and slots < budget for _, budget, slots, decodes, limit in epochs
    )
    assert native.ACK in [status for status, *_rest in epochs]


def _session_digest(interference="blanking"):
    network, _source, _destination, plan = planned_mesh()
    config = SessionConfig(
        blocks=6, block_size=256, max_seconds=30.0, target_generations=3,
        interference=interference,
    )
    return session_digest(run_coded_session(network, plan, config=config, rng=RngFactory(4)))


@needs_kernel
def test_a_compiled_coded_session_acks_in_the_kernel():
    # A MORE session to its target: every decode and its ACK stay in the
    # kernel, so no call takes the object path and the epochs run whole.
    network, source, destination, _plan = planned_mesh()
    config = SessionConfig(blocks=6, block_size=256, max_seconds=30.0, target_generations=40)
    slots = []
    run_slots, call = EngineCore.run_slots, EngineCore._call

    def counted(core, epoch):
        reply = run_slots(core, epoch)
        slots.append(len(reply[1]))
        return reply

    with (
        core_form("compiled"),
        mock.patch.object(EngineCore, "run_slots", counted),
        mock.patch.object(EngineCore, "_call", autospec=True, side_effect=call) as kernel,
        mock.patch.object(EngineCore, "apply_events") as apply_events,
        mock.patch.object(EngineCore, "_fall_back") as fall_back,
    ):
        result = run_coded_session(
            network, plan_more(network, source, destination), config=config, rng=RngFactory(4)
        )
    assert result.generations_decoded == 40
    assert not apply_events.called and not fall_back.called
    assert kernel.call_count <= math.ceil(sum(slots) / ShardedSession.EPOCH_SLOTS)


@needs_kernel
@pytest.mark.parametrize("interference", ["blanking", "conflict_free"])
def test_a_small_flow_session_runs_compiled_and_equals_both_forms(interference):
    digests = {}
    for form in ("scalar", "compiled"):
        with core_form(form):
            digests[form] = _session_digest(interference)
    assert digests["compiled"] == digests["scalar"]


@needs_kernel
def test_what_cannot_run_compiled_keeps_its_form():
    network, source, destination, plan = planned_mesh()
    cases = {
        "flow": (plan, SessionConfig(max_seconds=5.0), True),
        "unicast": (
            plan_etx_route(network, source, destination), SessionConfig(max_seconds=5.0), True
        ),
        "exact": (plan, SessionConfig(max_seconds=5.0, coding_fidelity="exact"), True),
        "capture": (plan, SessionConfig(max_seconds=5.0, interference="capture"), False),
    }
    for name, (session_plan, config, compiled) in cases.items():
        with plan_session(network, session_plan, config, RngFactory(4)) as session:
            core = session._core
            assert (core._kernel is not None) == compiled, name
    # A destination reporting to another recorder: its decodes are none of
    # the session's to ACK, which the kernel cannot tell.
    line = line_network(4)
    runtimes = line_runtimes(line, _DecodeLog())
    with ShardedSession(line, runtimes, 0.05, rng_factory=RngFactory(1)) as session:
        assert session._core._kernel is None


@pytest.fixture
def fresh_kernel(monkeypatch, tmp_path):
    """No verdict on the kernel yet, and an empty compiled-kernel cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    compiled_kernel.cache_clear()
    yield
    compiled_kernel.cache_clear()


def _line_digest():
    with line_session(line_network(24), 1) as session:
        session.run(300)
        return session._core._kernel is not None, stats_digest(session.finalize_stats())


@pytest.mark.parametrize(
    "fault", ["no compiler", "failed self-test", "no numpy archive", "no kernel source"]
)
def test_without_the_kernel_cores_keep_todays_form(
    fault, fresh_kernel, monkeypatch, caplog, tmp_path
):
    with core_form("scalar"):
        _forms, expected = _line_digest()
    if fault == "no compiler":
        monkeypatch.setenv("CC", "/nonexistent")
    elif fault == "no numpy archive":
        monkeypatch.setattr(native, "NPYRANDOM", tmp_path / "libnpyrandom.a")
    elif fault == "no kernel source":
        monkeypatch.setattr(native, "SOURCE", tmp_path / "slots.c")
    else:
        monkeypatch.setattr(engine, "_self_test", lambda run: False)
    with caplog.at_level(logging.WARNING, logger=engine.__name__):
        assert compiled_kernel() is None
        assert _line_digest() == (False, expected)
        assert _line_digest() == (False, expected)
    (record,) = [r for r in caplog.records if r.name == engine.__name__]
    assert "compiled slot loop is unavailable here" in record.getMessage()
    if fault != "failed self-test":
        assert native.load() is None


@needs_kernel
def test_the_self_test_refuses_a_wrong_kernel():
    def miscounts(core, budget):  # one slot too many of row 0's queue
        status = KERNEL.run(core, budget)
        ctypes.cast(core._obj.queue_time, ctypes.POINTER(ctypes.c_double))[0] += 1.0
        return status

    def loses_a_delivery(core, budget):  # an ETX sink's last delivery event
        status = KERNEL.run(core, budget)
        core._obj.sunk = max(core._obj.sunk - 1, 0)
        return status

    assert engine._self_test(KERNEL)
    assert not engine._self_test(KERNEL._replace(run=miscounts))
    assert not engine._self_test(KERNEL._replace(run=loses_a_delivery))


@contextmanager
def census():
    """The form every core built in the block picks, counted by the kind
    of session it serves: ``(unicast?, form)``.  The kernel is resolved
    first: its self-test builds cores of its own."""
    compiled_kernel()
    forms = Counter()
    build = EngineCore.__init__

    def spy(core, init):
        build(core, init)
        form = "compiled" if core._kernel is not None else "scalar"
        forms[init.has_unicast, form] += 1

    with mock.patch.object(EngineCore, "__init__", spy):
        yield forms


@needs_kernel
@pytest.mark.parametrize("producer", [
    lambda: fig2_campaign(jobs=1), lambda: bench_smoke("campaign_serial"),
], ids=["campaign.fig2", "bench.campaign"])
def test_a_campaign_builds_only_compiled_cores(producer):
    with census() as forms:
        producer()
    assert forms[True, "compiled"] and forms[False, "compiled"]  # ETX's and the coded ones'
    assert set(forms) == {(True, "compiled"), (False, "compiled")}


def _etx_init(**terms):
    network, source, destination, _plan = planned_mesh()
    plan = plan_etx_route(network, source, destination)
    config = SessionConfig(max_seconds=5.0, **terms)
    log = _DecodeLog()
    runtimes = build_plan_runtimes(
        network, plan, config=config, rng=RngFactory(4), on_delivered=log.deliver
    )
    slot = config.unicast_packet_bytes() / network.capacity
    return CoreInit(
        network, runtimes, tuple(sorted(runtimes)), slot, config.interference, 4,
        has_unicast=True, decode_log=log,
    )


@needs_kernel
@pytest.mark.parametrize("case", ["cut", "traced", "observed", "capture"])
def test_a_unicast_core_off_the_compiled_path_stays_scalar(case):
    init = _etx_init(interference="capture") if case == "capture" else _etx_init()
    with census() as forms:
        if case == "cut":  # either side of a path cut in two
            half = len(init.participants) // 2
            for side in (init.participants[:half], init.participants[half:]):
                EngineCore(replace(init, runtimes={n: init.runtimes[n] for n in side}))
        elif case == "observed":
            with obs.collecting():
                EngineCore(init)
        else:
            EngineCore(replace(init, traced=case == "traced"))
    assert set(forms) == {(True, "scalar")}, forms


def test_without_a_compiler_etx_runs_scalar(fresh_kernel, monkeypatch, caplog):
    monkeypatch.setenv("CC", "/nonexistent")
    with caplog.at_level(logging.WARNING, logger=engine.__name__), census() as forms:
        digests = {unicast_driver() for _ in range(2)}
    assert digests == {PINS_BY_NAME["driver.unicast"].value}
    assert set(forms) == {(True, "scalar")}
    (record,) = [r for r in caplog.records if r.name == engine.__name__]
    assert "compiled slot loop is unavailable here" in record.getMessage()


def _more_plan(network):
    """A MORE plan from node 0 with a credit relay (``late``), and another
    node to silence (``silent``); None if the mesh has none."""
    for destination in range(network.node_count - 1, 0, -1):
        try:
            plan = plan_more(network, 0, destination)
        except NodeSelectionError:
            continue
        settings_ = plan.node_settings(network, network.capacity)
        relays = [node for node, params in settings_.items() if params.get("mode") == "credit"]
        others = [
            node
            for node in range(network.node_count)
            if node not in (0, destination) and node not in relays[-1:]
        ]
        if relays and others:
            return plan, relays[-1], others[0]
    return None


@needs_kernel
@given(
    network=lossy_meshes(),
    interference=st.sampled_from(("blanking", "conflict_free")),
    seed=st.integers(0, 2**16),
)
@settings(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_what_the_relay_line_never_does(network, interference, seed):
    # Rows against runtime objects where the relay line never goes: MORE
    # credit relays with upstream sets, a source that drops, a rate swap
    # onto a parked relay, four generation advances (by hand, on top of
    # the core's ACKs), a generation-size switch, and a relay built
    # mid-run that hears newer generations than its own.
    found = _more_plan(network)
    assume(found is not None)
    plan, late, silent = found
    packet_bytes = MESH_PACKET_BYTES
    terms = RuntimeTerms(
        kind="credit",
        source=plan.source,
        destination=plan.destination,
        session_id=1,
        blocks=3,
        packet_bytes=packet_bytes,
        queue_limit=2,  # a packet a slot offered: the source drops
        fidelity="flow",
        systematic=False,
    )
    cbr = network.capacity

    def run():
        log = _DecodeLog()
        settings_ = plan.node_settings(network, cbr)
        runtimes = install_runtimes(
            {node: params for node, params in settings_.items() if node != late},
            {},
            terms,
            coding=RngFactory(seed),
            on_decoded=log,
        )
        for node in range(network.node_count):  # silent listeners elsewhere
            if node != late and node not in runtimes:
                runtimes[node] = FlowRelayRuntime(node, 1, 3, packet_bytes, mode="rate")
        advanced = 0  # the last generation advanced to by hand

        def generation():
            return max([advanced, *(decoded + 1 for decoded, _time in log.acks)])

        def advance():
            nonlocal advanced
            advanced = generation() + 1
            advance_by_hand(session, advanced)

        with ShardedSession(
            network,
            runtimes,
            packet_bytes / network.capacity,
            rng_factory=RngFactory(seed),
            interference=interference,
            decode_log=log,
        ) as session:
            session.apply_plan_updates({silent: {"mode": "rate", "rate_bps": 0.0}})
            session.run(60)
            advance()
            for _ in range(80):  # until the silenced relay parks
                if silent in session.parked_nodes():
                    break
                session.step()
            parked = session.parked_nodes()
            assume(silent in parked)
            session.apply_plan_updates({silent: {"rate_bps": network.capacity / 2}})
            session.run(60)
            session.apply_plan_updates(
                {node: {"coding": CodingParams(blocks=5)} for node in session.participants}
            )
            advance()
            session.run(60)
            # ``late`` joins at generation 0, behind everyone else.
            session.install_plan(plan, replace(terms, blocks=5), cbr)
            session.run(60)
            advance()
            session.run(60)
            advance()
            session.run(30)
            stats = session.finalize_stats()
            fields = {
                node: {
                    name: repr(value)
                    for name, value in sorted(vars(runtime).items())
                    if not name.startswith("_")
                }
                for node, runtime in session._core._runtimes.items()
            }
        assert generation() >= 4
        result = session_result(
            "more", plan, 256, stats, 1, ack_times=[time for _generation, time in log.acks]
        )
        return session_digest(result), parked, fields

    outcomes = {}
    for form in ("scalar", "compiled"):
        with core_form(form):
            outcomes[form] = run()
    assert outcomes["compiled"] == outcomes["scalar"]
    fields = outcomes["scalar"][2]
    assert {"packets_heard", "packets_accepted", "information"} <= set(fields[late])
    assert {"packets_generated", "packets_sent", "packets_dropped"} <= set(fields[plan.source])
    assert {"generations_decoded", "blocks_decoded"} <= set(fields[plan.destination])


def _two_node_etx(kernel, rate, retune=None):
    """Three slots of a two-node ETX core whose source offers ``rate``
    (then ``retune``, when given), on ``kernel`` (None: the scalar form):
    what it replies, finalizes and leaves in the source."""
    network = WirelessNetwork(
        np.array([[0.0, 0.0], [0.6, 0.0]]), {(0, 1): 0.9, (1, 0): 0.9}, 1.0, capacity=1e5
    )
    size = 1000  # a 0.01 s slot: at 1e20 B/s, 1e15 packets of credit a slot
    log = _DecodeLog()
    runtimes = {
        0: UnicastRuntime(0, 1, rate_bps=rate, packet_bytes=size),
        1: UnicastRuntime(1, None, packet_bytes=size, on_delivered=log.deliver),
    }
    core = _forced(kernel)(CoreInit(
        network, runtimes, (0, 1), size / network.capacity, "blanking", 7,
        has_unicast=True, decode_log=log,
    ))
    if retune is not None:
        try:
            core.apply_plan({0: {"rate_bps": retune}})
        finally:  # a refused retune leaves the source as it was
            assert runtimes[0]._rate == rate
    reply = core.run_slots((3, None, True, None))
    return repr((reply, core.finalize(), sorted(vars(runtimes[0]).items())))


@needs_kernel
def test_a_rate_past_exact_credit_is_refused_in_both_forms():
    # 2**53 packets of credit a slot or more: the compiled form's int64
    # counters would overflow where the scalar form's ints grow.
    assert _two_node_etx(KERNEL, 1e20) == _two_node_etx(None, 1e20)
    refused = r"node 0: rate_bps 1e\+30 earns 2\*\*53 or more packets of credit in a 0.01 s slot"
    for kernel in (None, KERNEL):
        with pytest.raises(ValueError, match=refused):
            _two_node_etx(kernel, 1e30)
        with pytest.raises(ValueError, match=refused):
            _two_node_etx(kernel, 0.0, retune=1e30)


@needs_kernel
def test_the_compiled_unicast_driver_checks_parked_rows(monkeypatch):
    checked = parked_contract_monitor(monkeypatch)
    with core_form("compiled"):
        digest = unicast_driver.__wrapped__()
    assert digest == PINS_BY_NAME["driver.unicast"].value
    assert checked["row"] >= 1 and not checked["runtime"]


@needs_kernel
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_kernel_workers_equal_the_scalar_core(shards):
    # The untraced 384-node line: flow workers run their epochs and their
    # phase slots (begin_slot, fire_resolve, fire and resolve) compiled.
    def run():
        with line_session(line_network(384), shards) as session:
            session.run(420)
            return stats_digest(session.finalize_stats())

    assert run() == _scalar_line_digest()


@functools.cache
def _scalar_line_digest():
    with core_form("scalar"), line_session(line_network(384), 1) as session:
        session.run(420)
        return stats_digest(session.finalize_stats())


# -- exact rows and composites ---------------------------------------------------


@st.composite
def exact_recipes(draw):
    """Exact runtimes of one to four sessions to build twice over a lossy
    mesh — several share each node through composites, with XOR pairs and
    one session that arrives or leaves — and the epochs to run."""
    network = draw(lossy_meshes())
    count, capacity = network.node_count, network.capacity
    sessions = {}
    for sid in range(1, draw(st.sampled_from((1, 1, 2, 3, 4))) + 1):
        source, destination = draw(
            st.lists(st.integers(0, count - 1), min_size=2, max_size=2, unique=True)
        )
        if sid > 1 and draw(st.booleans()):  # the previous session's opposite, its relays
            destination, source = sessions[sid - 1]["source"], sessions[sid - 1]["destination"]
        others = [node for node in range(count) if node not in (source, destination)]
        relays = {}
        nodes = draw(st.lists(st.sampled_from(others), unique=True, max_size=6)) if others else []
        if sid > 1 and draw(st.booleans()):
            nodes = [node for node in sessions[sid - 1]["relays"] if node in others]
        for node in nodes:
            if draw(st.booleans()):
                relays[node] = {"mode": "rate", "rate_bps": capacity * draw(
                    st.sampled_from((0.0, 0.3, 0.6, 1.0, 2.5)))}
            else:
                relays[node] = {
                    "mode": "credit",
                    "tx_credit": draw(st.sampled_from((0.4, 1.0, 1.7))),
                    "upstream": tuple(draw(
                        st.lists(st.integers(0, count - 1), max_size=4, unique=True)
                    )),
                }
        sessions[sid] = {
            "source": source,
            "destination": destination,
            "relays": relays,
            "blocks": draw(st.integers(1, 6)),
            "systematic": draw(st.booleans()),
            "rate": capacity * draw(st.sampled_from((0.1, 0.5, 1.0, 2.5))),
            "limit": draw(st.sampled_from((1, 3, 50))),
            # Where each runtime starts: a relay behind its source hears a
            # newer generation (the object path).
            "generations": {
                node: draw(st.sampled_from((0, 0, 0, 1, 2)))
                for node in (source, destination, *relays)
            },
        }
    shared = len(sessions) > 1
    # XOR pairs where a node holds both sessions of a pair, mostly.
    hosting = {
        node: [sid for sid, terms in sessions.items()
               if node in (terms["source"], terms["destination"], *terms["relays"])]
        for node in range(count)
    }
    xor = {}
    for node in (draw(st.lists(st.integers(0, count - 1), max_size=6, unique=True))
                 if shared else ()):
        held = hosting[node] if len(hosting[node]) > 1 and draw(st.integers(0, 4)) else sessions
        pairs = [(a, b) for a in held for b in held if a < b]
        xor[node] = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3, unique=True))
    # Packets queued up front at every XOR node's senders of the sessions
    # it pairs, and one node two sessions both send from made an XOR
    # relay of that pair: both queues of a pair are full at once, so the
    # XOR pop, and the peel where it lands, run early.
    seeded = draw(st.sampled_from((0, 1, 2, 3))) if shared else 0
    senders = {
        node: [sid for sid, terms in sessions.items()
               if node in (terms["source"], *terms["relays"])]
        for node in range(count)
    }
    crossing = [node for node, sids in senders.items() if len(sids) > 1]
    if seeded and crossing:
        node = draw(st.sampled_from(crossing))
        pair = tuple(sorted(draw(
            st.lists(st.sampled_from(senders[node]), min_size=2, max_size=2, unique=True)
        )))
        if pair not in xor.setdefault(node, []):
            xor[node].append(pair)
    return {
        "network": network,
        "sessions": sessions,
        "xor": xor,
        "seeded": seeded,
        "churned": draw(st.sampled_from([None, *sessions])) if shared else None,
        "arrives": draw(st.booleans()),
        "epochs": draw(st.lists(
            st.tuples(
                st.integers(1, 300),
                st.sampled_from((None, None, "advance", "churn", "coding")),
                st.booleans(),
                st.sampled_from((None, None, 1, 2)),
            ),
            min_size=1,
            max_size=4,
        )),
        "interference": draw(st.sampled_from(("blanking", "conflict_free"))),
        "seed": draw(st.integers(0, 2**16)),
    }


def _seed_queue(runtime, rng, count):
    """Queue ``count`` packets at a source or relay runtime; a relay first
    hears as many from a source encoder of its own generation."""
    if isinstance(runtime, CodedRelayRuntime):
        generation = Generation(runtime._generation_id, np.zeros((runtime._blocks, 1), np.uint8))
        encoder = SourceEncoder(runtime.session_id, generation, rng, payload=False)
        for _ in range(count):
            runtime.on_receive(encoder.next_packet(), runtime.node_id)
    elif not isinstance(runtime, CodedSourceRuntime):
        return
    runtime._credit += count
    runtime._drain()


def _build_exact(recipe, kernel):
    log = _DecodeLog()
    shared = len(recipe["sessions"]) > 1
    factory = RngFactory(recipe["seed"])
    built = {}
    for sid, terms in recipe["sessions"].items():
        rng = factory.spawn(f"session-{sid}")
        blocks, limit = terms["blocks"], terms["limit"]
        runtimes = {
            terms["source"]: CodedSourceRuntime(
                terms["source"], sid, blocks, terms["rate"], PACKET_BYTES,
                rng.derive("coding", terms["source"]), queue_limit=limit,
                systematic=terms["systematic"],
            ),
            terms["destination"]: CodedDestinationRuntime(
                terms["destination"], sid, blocks,
                functools.partial(log, session_id=sid) if shared else log,
            ),
        }
        for node, relay in terms["relays"].items():
            runtimes[node] = CodedRelayRuntime(
                node, sid, blocks, PACKET_BYTES, rng.derive("coding", node),
                queue_limit=limit, **relay,
            )
        for node, runtime in runtimes.items():
            runtime.advance_generation(terms["generations"][node])
        paired = {node for node, pairs in recipe["xor"].items() if any(sid in p for p in pairs)}
        for node in sorted(paired & runtimes.keys()):
            _seed_queue(runtimes[node], rng.derive("seeded", node), recipe["seeded"])
        built[sid] = runtimes
    if shared:
        hosted = {}
        for sid, runtimes in built.items():
            for node in sorted(runtimes):
                if node not in hosted:
                    pairs = recipe["xor"].get(node)
                    hosted[node] = (
                        InterSessionXorRelay(node, pairs) if pairs
                        else MultiSessionNodeRuntime(node)
                    )
                arriving = sid == recipe["churned"] and recipe["arrives"]
                hosted[node].add_session(sid, runtimes[node], active=not arriving)
    else:
        (hosted,) = built.values()
    network = recipe["network"]
    init = CoreInit(
        network, hosted, tuple(sorted(hosted)), PACKET_BYTES / network.capacity,
        recipe["interference"], recipe["seed"], has_unicast=False, decode_log=log,
    )
    return _forced(kernel)(init)


def _exact_state(core):
    core._flush()
    if core._columns is not None:
        core._columns.store(np.arange(len(core._owned)))
    return {
        "runtimes": {node: runtime_fields(runtime) for node, runtime in core._runtimes.items()},
        "parked": core.parked_nodes(),
        "queue_time": sorted(core._queue_time_sum.items()),
        "session_queue_time": sorted(
            (node, sorted(times.items())) for node, times in core._session_queue_time.items()
        ),
        "links": sorted(core._delivered_links),
        "transmissions": sorted(core._transmissions.items()),
    }


def run_exact_epochs(recipe, kernel):
    """:func:`run_epochs` for an exact recipe: an action is a hand-made
    ACK, an arrival or departure of the churned session (session 1's ACK
    without one), a deferred generation-size switch, or nothing."""
    core = _build_exact(recipe, kernel)
    sessions = recipe["sessions"]
    shared = len(sessions) > 1
    generation = {sid: max(terms["generations"].values()) for sid, terms in sessions.items()}
    churned, active = recipe["churned"], not recipe["arrives"]
    trail = []
    for budget, action, named, decodes in recipe["epochs"]:
        events = None
        if action == "churn" and churned is not None:
            events = [("deactivate_session" if active else "activate_session", churned)]
            active = not active
        elif action in ("advance", "churn"):
            generation[1] += 1
            events = [("advance_session_generation", 1, generation[1]) if shared
                      else ("advance_generation", generation[1])]
        elif action == "coding":
            with core._through_objects(range(len(core._owned))):
                for runtime in core._runtime_list:
                    subs = (
                        [runtime.session_runtime(sid) for sid in runtime.hosted_sessions()]
                        if shared else [runtime]
                    )
                    for sub in subs:
                        sub.apply_plan(coding=CodingParams(blocks=4, systematic=True))
        reply = core.run_slots((budget, events, named, decodes))
        for record in reply[1]:
            for event in record[2]:
                if event[2] == "decoded":
                    sid, decoded = event[3] if shared else (1, event[3])
                    generation[sid] = max(generation[sid], decoded + 1)
        trail.append((repr(reply), _exact_state(core)))
    finalized = core.finalize()
    draws = _next_draws(core, sorted(core._owned))
    return trail, repr(finalized), _exact_state(core)["runtimes"], draws


@needs_kernel
@given(recipe=exact_recipes())
@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_a_compiled_exact_epoch_equals_the_scalar_epoch(recipe):
    reference = run_exact_epochs(recipe, None)
    calls = []

    def run(core, budget):
        calls.append(budget)
        return KERNEL.run(core, budget)

    compiled = run_exact_epochs(recipe, KERNEL._replace(run=run))
    assert calls
    for epoch, (expected, got) in enumerate(zip(reference[0], compiled[0])):
        assert got[0] == expected[0], f"epoch {epoch}: reply"
        for name, value in expected[1].items():
            assert got[1][name] == value, f"epoch {epoch}: {name}"
    assert compiled[1] == reference[1], "finalize()"
    assert compiled[2] == reference[2], "runtime fields"
    assert compiled[3] == reference[3], "next draws"


@needs_kernel
def test_untraced_churn_xor_on_the_compiled_loop_is_its_pin():
    # The pin's run is traced, and so scalar; untraced, its composites,
    # XOR relay and churn run as rows of the compiled slot loop.
    with core_form("compiled"):
        outcome = churn_xor_run(None)
    assert multi_session_digest(outcome) == PINS_BY_NAME["churn_xor"].value[0]


@needs_kernel
def test_an_exact_churn_xor_run_is_the_same_in_both_forms():
    digests = []
    for form in ("scalar", "compiled"):
        with core_form(form):
            outcome = churn_xor_run(None, fidelity="exact")
        assert outcome.xor_transmissions > 0
        assert sum(result.generations_decoded for result in outcome.sessions.values()) > 1
        digests.append(multi_session_digest(outcome))
    assert digests[0] == digests[1]


@needs_kernel
def test_an_exact_multisession_repetition_runs_in_the_kernel(monkeypatch):
    # The benchmark's shape: every slot in the kernel, no awake-set sweep.
    ticks, calls = [], []
    monkeypatch.setattr(AwakeSet, "tick", lambda *args: ticks.append(args))

    def run(core, budget):
        calls.append(budget)
        return KERNEL.run(core, budget)

    with mock.patch.object(engine, "compiled_kernel", return_value=KERNEL._replace(run=run)):
        digest = bench_smoke("exact_multisession")
    assert digest == PINS_BY_NAME["bench.exact_multisession"].value
    assert calls and not ticks
