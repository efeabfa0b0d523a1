"""The compiled slot loop equals the numpy array form, and falls back.

The property runs the same epochs on a core in the numpy array form and
on one that runs them compiled, over random lossy meshes, and compares
each epoch's reply and, after it, every field a slot touches: the
columns, the awake flags and the tick count, both banks' cursors, drawn
rows and generators, the queue-time integrals, the transmissions and the
delivered links — and the runtime objects at the end.  The fallback tests
take the compiler away, or fail the load-time self-test, and expect
today's forms with one logged warning.
"""

import ctypes
import logging
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.emulator import engine, native
from repro.emulator.engine import CoreInit, EngineCore, _DecodeLog, compiled_kernel
from repro.emulator.node import FlowDestinationRuntime, FlowRelayRuntime, FlowSourceRuntime
from repro.emulator.plan import CodingParams
from repro.emulator.session import SessionConfig, run_sharded_session
from repro.emulator.shard import session_digest
from repro.protocols.etx_routing import plan_etx_route
from repro.util.rng import RngFactory, StreamBank
from tests.meshes import lossy_meshes
from tests.pins import core_form
from tests.test_active_set import (
    line_network,
    line_session,
    plan_session,
    planned_mesh,
    stats_digest,
)

KERNEL = compiled_kernel()
needs_kernel = pytest.mark.skipif(KERNEL is None, reason="the compiled slot loop is unavailable")

PACKET_BYTES = 1000


def _cores(kernel):
    """A core class on the numpy phases (``kernel`` None) or on ``kernel``,
    whatever it hosts: the form is forced, not picked."""

    class Forced(EngineCore):
        def _form(self, init):
            return True, kernel

    return Forced


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


def _tied_exponential(generator, out=None, size=None):
    """Exponential draws floored to halves: lottery keys that tie, which
    real draws never do, so the (key, position) order is exercised."""
    values = np.random.Generator.standard_exponential(generator, out=out, size=size)
    np.floor(values * 2.0, out=values)
    values *= 0.5
    return values


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
    fills = {"mac": _tied_exponential} if recipe["ties"] else {}
    with (
        mock.patch.object(StreamBank, "BLOCK", recipe["block"]),
        mock.patch.dict(StreamBank._FILLS, fills),
    ):
        return _cores(kernel)(init)


def state(core):
    """Every field a slot touches, as plain values."""
    columns = core._columns
    fields = {
        name: value.tolist()
        for name, value in vars(columns).items()
        if isinstance(value, np.ndarray)
    }
    fields["_ticks"] = columns._ticks
    for name in ("_queue_time_buf", "_fired", "_delivered"):
        fields[name] = getattr(core, name).tolist()
    for name in ("_mac_bank", "_loss_bank"):
        bank = getattr(core, name)
        # A row's values before its cursor are spent: only what is left
        # to hand out, and where its generator stands, is state.
        rows = [(node, bank._row_of[node]) for node in sorted(bank._streams)]
        fields[name] = bank._cursor.tolist(), [
            (
                node,
                bank._values[row, bank._cursor[row]:].tolist(),
                bank._streams[node].bit_generator.state,
            )
            for node, row in rows
        ]
    fields["links"] = sorted(core._delivered_links)
    fields["transmissions"] = sorted(core._transmissions.items())
    return fields


def _finish_cut_slot(core, contention):
    """Grant a cut slot over its hosted contenders and fire and resolve it
    as the cross-cut phases would, arrivals at other cores dropped."""
    _awake, keys, nodes = contention  # every node participates: position = id
    ordered = [core._positions[node] for _key, node in sorted(zip(keys, nodes))]
    granted = core._scheduler.grant_from_keyed(ordered)
    _awake, events, entries = core.fire(granted)
    hosted = [(receiver, arrivals) for receiver, arrivals in entries if receiver in core._positions]
    return granted, events, core.resolve(hosted)


def run_epochs(recipe, schedule, kernel):
    """The epochs of ``schedule`` on a fresh core: ``(budget, action,
    named)`` each, the action a generation advance, a generation-size
    switch on the hosted nodes or nothing.  Returns each epoch's reply
    and state, the finalized core, and the kernel's exits."""
    exits = Counter()
    counted = None
    if kernel is not None:
        def counted(core, budget):
            status = kernel(core, budget)
            exits[status] += 1
            return status

    core = _build(recipe, counted)
    trail = []
    generation = max(terms[2] for terms in recipe["runtimes"].values())
    for budget, action, named in schedule:
        if action == "coding":
            core.apply_plan({node: {"coding": CodingParams(blocks=6)} for node in recipe["hosted"]})
        if action is not None:
            generation += 1
        events = [("advance_generation", generation)] if action is not None else None
        reply = core.run_slots((budget, events, named))
        finished = None if reply[2] is None else _finish_cut_slot(core, reply[2])
        decoded = [e for record in reply[1] for e in record[2] if e[2] == "decoded"]
        generation = max([generation, *(e[3] + 1 for e in decoded)])
        trail.append((repr(reply), repr(finished), state(core)))
    finalized = core.finalize()
    objects = {
        node: sorted((k, repr(v)) for k, v in vars(runtime).items() if not k.startswith("_on"))
        for node, runtime in core._runtimes.items()
    }
    return trail, repr(finalized), objects, exits


SCHEDULES = st.lists(
    st.tuples(
        st.integers(1, 300),
        st.sampled_from((None, None, "advance", "coding")),
        st.booleans(),
    ),
    min_size=1,
    max_size=4,
)


@needs_kernel
@given(recipe=recipes(), schedule=SCHEDULES)
@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_a_compiled_epoch_equals_the_numpy_epoch(recipe, schedule):
    reference = run_epochs(recipe, schedule, None)
    compiled = run_epochs(recipe, schedule, KERNEL)
    for epoch, (expected, got) in enumerate(zip(reference[0], compiled[0])):
        assert got[:2] == expected[:2], f"epoch {epoch}: reply"
        for name, value in expected[2].items():
            assert got[2][name] == value, f"epoch {epoch}: {name}"
    assert compiled[1:3] == reference[1:3]
    assert sum(compiled[3].values()) >= 1


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
def test_every_exit_is_exact(block, monkeypatch):
    wide = []
    unbanked = StreamBank._take_unbanked

    def spy(bank, rows, counts):
        wide.append(len(rows))
        return unbanked(bank, rows, counts)

    monkeypatch.setattr(StreamBank, "_take_unbanked", spy)
    schedule = [(1, None, True), (150, None, False), (200, "advance", True), (300, "coding", False)]
    for hosted in (tuple(range(12)), tuple(range(7))):
        recipe = _line_recipe(hosted, block)
        reference = run_epochs(recipe, schedule, None)
        compiled = run_epochs(recipe, schedule, KERNEL)
        assert compiled[:3] == reference[:3]
        exits = compiled[3]
        assert exits[native.FALLBACK] and exits[native.BUDGET]
        assert bool(exits[native.CUT]) == (len(hosted) < 12)
    if block == 1:  # a line node has two receivers: a run of two is wider
        assert wide  # than a block, and served whole
    # Silent relays and a destination park at the first check: asleep.
    silent = {"rate": 0.0, "limit": 5}
    recipe = {
        **_line_recipe(tuple(range(4)), block),
        "network": line_network(4),
        "runtimes": {0: ("rate", 3, 0, silent), 1: ("rate", 3, 0, silent),
                     2: ("rate", 3, 0, silent), 3: ("destination", 3, 0, {"session": 1})},
    }
    reference = run_epochs(recipe, [(50, None, False)], None)
    compiled = run_epochs(recipe, [(50, None, False)], KERNEL)
    assert compiled[:3] == reference[:3]
    assert compiled[3] == {native.ASLEEP: 1}


def _session_digest(interference="blanking"):
    network, _source, _destination, plan = planned_mesh()
    config = SessionConfig(
        blocks=6, block_size=256, max_seconds=30.0, target_generations=3,
        interference=interference,
    )
    return session_digest(run_sharded_session(network, plan, config=config, rng=RngFactory(4)))


@needs_kernel
@pytest.mark.parametrize("interference", ["blanking", "conflict_free"])
def test_a_small_flow_session_runs_compiled_and_equals_both_forms(interference):
    digests = {}
    for form in ("scalar", "array", "compiled"):
        with core_form(form):
            digests[form] = _session_digest(interference)
    assert digests["compiled"] == digests["scalar"] == digests["array"]


@needs_kernel
def test_what_cannot_run_compiled_keeps_its_form():
    network, source, destination, plan = planned_mesh()
    cases = {
        "flow": (plan, SessionConfig(max_seconds=5.0), True),
        "unicast": (
            plan_etx_route(network, source, destination), SessionConfig(max_seconds=5.0), False
        ),
        "exact": (plan, SessionConfig(max_seconds=5.0, coding_fidelity="exact"), False),
        "capture": (plan, SessionConfig(max_seconds=5.0, interference="capture"), False),
    }
    for name, (session_plan, config, compiled) in cases.items():
        with plan_session(network, session_plan, config, RngFactory(4)) as session:
            core = session._core
            assert (core._packed is not None) == compiled, name
            assert core._arrays == compiled, name  # all far below ARRAY_FORM_MIN_HOSTED


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
        forms = (session._core._arrays, session._core._packed is not None)
        return forms, stats_digest(session.finalize_stats())


@pytest.mark.parametrize("fault", ["no compiler", "failed self-test"])
def test_without_the_kernel_cores_keep_todays_form(fault, fresh_kernel, monkeypatch, caplog):
    with core_form("scalar"):
        _forms, expected = _line_digest()
    if fault == "no compiler":
        monkeypatch.setenv("CC", "/nonexistent")
    else:
        monkeypatch.setattr(engine, "_self_test", lambda run: False)
    with caplog.at_level(logging.WARNING, logger=engine.__name__):
        assert compiled_kernel() is None
        assert _line_digest() == ((False, False), expected)
        assert _line_digest() == ((False, False), expected)
    (record,) = [r for r in caplog.records if r.name == engine.__name__]
    assert "compiled slot loop is unavailable here" in record.getMessage()
    if fault == "no compiler":
        assert native.load() is None


@needs_kernel
def test_the_self_test_refuses_a_wrong_kernel():
    def miscounts(core, budget):  # one slot too many of row 0's queue
        status = KERNEL(core, budget)
        ctypes.cast(core._obj.queue_time, ctypes.POINTER(ctypes.c_double))[0] += 1.0
        return status

    assert engine._self_test(KERNEL)
    assert not engine._self_test(miscounts)
