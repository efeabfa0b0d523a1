"""The array form of the lottery and the broadcast (DESIGN.md §13.1).

A core that hosts ``ARRAY_FORM_MIN_HOSTED`` runtimes or more draws its
lottery keys and loss vectors array-at-a-time from a
:class:`~repro.util.rng.StreamBank`.  It must be the scalar form bit for
bit: the bank hands every node the sequence its scalar calls would have
drawn, and the arrays make the scalar form's candidates, in its order.
The scalar form draws the same sequences from
:class:`~repro.util.rng.DrawBuffers`.
"""

import math
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.emulator import engine
from repro.emulator.engine import ARRAY_FORM_MIN_HOSTED
from repro.emulator.node import (
    FlowDestinationRuntime,
    FlowRelayRuntime,
    FlowSourceRuntime,
    RuntimeTerms,
    install_runtimes,
)
from repro.emulator.plan import CodedBroadcastPlan, CodingParams
from repro.emulator.session import (
    SessionConfig,
    run_sharded_session,
    session_result,
)
from repro.emulator.shard import ShardedSession, _DecodeLog, session_digest, trace_digest
from repro.emulator.trace import SessionTracer
from repro.protocols.etx_routing import plan_etx_route
from repro.protocols.more import plan_more
from repro.routing.node_selection import ForwarderSet, NodeSelectionError
from repro.topology.partition import partition_positions
from repro.util.rng import DrawBuffers, NodeStreams, RngFactory, StreamBank
from tests.meshes import lossy_meshes
from tests.pins import core_form
from tests.test_active_set import (
    BLOCKS,
    PACKET_BYTES,
    line_network,
    line_session,
    plan_session,
    planned_mesh,
    stats_digest,
)

#: What ``repro session --metrics`` prints of the two layers the array
#: form touches.
COUNTERS = (
    "emulator.transmissions",
    "emulator.deliveries",
    "emulator.blanked",
    "mac.contenders",
    "mac.granted_per_slot",
)

NODES = (7, 3, 9)


class TestStreamBank:
    """Any interleaving of takes is the scalar calls' sequence."""

    @given(
        block=st.sampled_from((1, 2, 32)),
        kind=st.sampled_from(("mac", "channel")),
        takes=st.lists(
            st.dictionaries(
                st.sampled_from(NODES),
                st.one_of(st.integers(0, 5), st.integers(0, 40)),
                min_size=1,
            ),
            max_size=40,
        ),
        one_each=st.booleans(),
    )
    @settings(deadline=None, max_examples=150)
    def test_takes_equal_the_scalar_sequences(self, block, kind, takes, one_each):
        with mock.patch.object(StreamBank, "BLOCK", block):
            bank = StreamBank(NodeStreams(RngFactory(5), kind))
        row_of = dict(zip(NODES, bank.rows_for(NODES).tolist()))
        scalar = NodeStreams(RngFactory(5), kind)
        for take in takes:
            rows = np.array([row_of[node] for node in take], dtype=np.intp)
            if one_each:
                counts = [1] * len(take)
                values = bank.take(rows)
            else:
                counts = list(take.values())
                values = bank.take(rows, np.array(counts, dtype=np.intp))
            expected = []
            for node, count in zip(take, counts):
                if kind == "mac":  # the lottery: one scalar call per key
                    expected += [scalar[node].standard_exponential() for _ in range(count)]
                else:  # a broadcast: one call for all its candidates
                    expected += scalar[node].random(count).tolist()
            assert values.tolist() == expected

    def test_rows_are_kept_when_more_nodes_are_asked_for(self):
        bank = StreamBank(NodeStreams(RngFactory(5), "mac"))
        first = bank.rows_for([4, 2])
        drawn = bank.take(first)
        again = bank.rows_for([2, 8, 4])
        assert again.tolist() == [first[1], 2, first[0]]
        scalar = NodeStreams(RngFactory(5), "mac")
        assert drawn.tolist() == [scalar[4].standard_exponential(), scalar[2].standard_exponential()]
        # Node 4's cursor and block survived the growth.
        assert bank.take(again[2:]).tolist() == [scalar[4].standard_exponential()]

    def test_capture_streams_cannot_be_banked(self):
        with pytest.raises(ValueError, match="cannot be banked"):
            StreamBank(NodeStreams(RngFactory(5), "capture"))


def _scalar_run(generator, kind, count):
    """The next ``count`` values of ``generator`` as the scalar form draws
    them: a lottery key per call, a broadcast's loss vector in one."""
    if kind == "mac":
        return [generator.standard_exponential() for _ in range(count)]
    return generator.random(count).tolist()


class TestDrawBuffers:
    """Any interleaving of single draws and runs is the scalar calls' sequence."""

    @given(
        block=st.sampled_from((1, 2, 32)),
        kind=st.sampled_from(("mac", "channel")),
        draws=st.lists(
            st.tuples(
                st.sampled_from(NODES),
                # None: one ``list.pop()``; a count: one run of that many.
                st.one_of(st.none(), st.integers(0, 5), st.integers(0, 80)),
            ),
            max_size=60,
        ),
    )
    @example(block=2, kind="channel", draws=[(7, 0), (7, None), (7, 5), (3, 0), (7, None)])
    @settings(deadline=None, max_examples=150)
    def test_draws_equal_the_scalar_sequences(self, block, kind, draws):
        with mock.patch.object(DrawBuffers, "BLOCK", block):
            buffers = DrawBuffers(NodeStreams(RngFactory(5), kind))
        scalar = NodeStreams(RngFactory(5), kind)
        for node, count in draws:
            if count is None:
                values = [(buffers[node] or buffers.refill(node)).pop()]
                count = 1
            else:
                values = buffers.take(node, count)
            assert values == _scalar_run(scalar[node], kind, count)

    def test_capture_streams_cannot_be_buffered(self):
        with pytest.raises(ValueError, match="cannot be buffered"):
            DrawBuffers(NodeStreams(RngFactory(5), "capture"))

    @pytest.mark.parametrize("unicast", [False, True])
    def test_a_scalar_session_calls_a_generator_once_a_block(self, unicast, monkeypatch):
        """Per node and kind, at most ⌈values consumed / BLOCK⌉ calls."""
        calls, drawn = Counter(), Counter()

        class Counting:
            def __init__(self, generator, key):
                self._generator, self._key = generator, key

            def __getattr__(self, name):
                method = getattr(self._generator, name)
                if name not in ("standard_exponential", "random"):
                    return method  # a capture tie-break

                def call(size):
                    calls[self._key] += 1
                    drawn[self._key] += size
                    return method(size=size)

                return call

        derive = NodeStreams.__missing__

        def counted(streams, node):
            stream = streams[node] = Counting(derive(streams, node), (streams.kind, node))
            return stream

        monkeypatch.setattr(NodeStreams, "__missing__", counted)
        network, source, destination, coded_plan = planned_mesh()
        plan = plan_etx_route(network, source, destination) if unicast else coded_plan
        with (
            core_form("scalar"),
            plan_session(network, plan, SessionConfig(max_seconds=30.0), RngFactory(4)) as session,
        ):
            core = session._core
            assert not core._arrays
            session.run(1500)
            buffers = {"mac": core._mac_draws, "channel": core._loss_draws}
            consumed = {
                (kind, node): count - len(buffers[kind][node])
                for (kind, node), count in drawn.items()
            }
        assert {kind for kind, _node in calls} == {"mac", "channel"}
        assert max(calls.values()) > 1
        for key, count in calls.items():
            assert count <= math.ceil(consumed[key] / DrawBuffers.BLOCK), key


def _counters(registry):
    snapshot = registry.snapshot(include_samples=True)
    return {name: snapshot.get(name) for name in COUNTERS}


def _both_forms(run):
    """``run()`` on scalar cores and on array cores, metrics collected:
    ``[(what run returned, the counters), ...]``, scalar first."""
    outcomes = []
    for form in ("scalar", "array"):
        with core_form(form), obs.collecting() as registry:
            outcomes.append((run(), _counters(registry)))
    return outcomes


class TestScalarEqualsArray:
    """The scalar form against the array form (:func:`~tests.pins.core_form`)."""

    @pytest.mark.parametrize("fidelity", ["flow", "exact"])
    @pytest.mark.parametrize("interference", ["blanking", "capture", "conflict_free"])
    def test_single_session(self, interference, fidelity):
        network, _source, _destination, plan = planned_mesh()
        config = SessionConfig(
            blocks=6,
            block_size=256,
            max_seconds=30.0,
            target_generations=3,
            interference=interference,
            coding_fidelity=fidelity,
        )

        def run():
            tracer = SessionTracer(capacity=500_000)
            result = run_sharded_session(
                network, plan, config=config, rng=RngFactory(4), tracer=tracer
            )
            assert result.generations_decoded > 0  # the run did work
            return session_digest(result), trace_digest(tracer)

        scalar, array = _both_forms(run)
        assert array == scalar
        assert scalar[1]["emulator.deliveries"]["value"] > 0

    @given(
        network=lossy_meshes(),
        interference=st.sampled_from(("blanking", "capture", "conflict_free")),
        seed=st.integers(0, 2**16),
        mixed=st.booleans(),
    )
    @settings(deadline=None, max_examples=40)
    def test_every_node_a_runtime_on_a_lossy_mesh(self, network, interference, seed, mixed):
        # A flood: a source, a destination and a rate-mode relay on every
        # other node, fast enough that neighbours contend and overlap.
        # ``mixed``: every third relay is an object row of the array core.
        last = network.node_count - 1
        rate = network.capacity / 2

        def run():
            log = _DecodeLog()
            runtimes = {
                0: FlowSourceRuntime(0, 1, BLOCKS, rate_bps=rate, packet_bytes=PACKET_BYTES),
                last: FlowDestinationRuntime(last, 1, BLOCKS, on_decoded=log),
            }
            for node in range(1, last):
                kind = _ObjectRelay if mixed and node % 3 == 0 else FlowRelayRuntime
                runtimes[node] = kind(
                    node, 1, BLOCKS, PACKET_BYTES, mode="rate", rate_bps=rate
                )
            tracer = SessionTracer(capacity=500_000)
            with ShardedSession(
                network,
                runtimes,
                PACKET_BYTES / network.capacity,
                rng_factory=RngFactory(seed),
                interference=interference,
                tracer=tracer,
                decode_log=log,
            ) as session:
                session.run(60)
                return stats_digest(session.finalize_stats()), trace_digest(tracer)

        scalar, array = _both_forms(run)
        assert array == scalar

    @given(
        network=lossy_meshes(),
        interference=st.sampled_from(("blanking", "capture", "conflict_free")),
        seed=st.integers(0, 2**16),
    )
    @settings(
        deadline=None,
        max_examples=25,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    def test_what_the_relay_line_never_does(self, network, interference, seed):
        # Column rows against runtime objects where the relay line never
        # goes: MORE credit relays with upstream sets, a source that
        # drops, a rate swap onto a parked relay, four generation
        # advances, a generation-size switch, and a relay built mid-run
        # that hears newer generations than its own.
        found = _more_plan(network)
        assume(found is not None)
        plan, late, silent = found
        terms = RuntimeTerms(
            kind="credit",
            source=plan.source,
            destination=plan.destination,
            session_id=1,
            blocks=3,
            packet_bytes=PACKET_BYTES,
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
                    runtimes[node] = FlowRelayRuntime(node, 1, 3, PACKET_BYTES, mode="rate")
            tracer = SessionTracer(capacity=500_000)
            generation = 0

            def signal(next_generation):
                nonlocal generation
                if next_generation > generation:
                    generation = next_generation
                    session.broadcast_generation_advance(generation)

            def acked():
                for decoded in log.unseen():
                    signal(decoded + 1)
                return False

            with ShardedSession(
                network,
                runtimes,
                PACKET_BYTES / network.capacity,
                rng_factory=RngFactory(seed),
                interference=interference,
                tracer=tracer,
                decode_log=log,
            ) as session:
                session.apply_plan_updates({silent: {"mode": "rate", "rate_bps": 0.0}})
                session.run(60, stop_when=acked)
                signal(generation + 1)
                for _ in range(80):  # until the silenced relay parks
                    if silent in session.parked_nodes():
                        break
                    session.step()
                    acked()
                parked = session.parked_nodes()
                assume(silent in parked)
                session.apply_plan_updates({silent: {"rate_bps": network.capacity / 2}})
                session.run(60, stop_when=acked)
                session.apply_plan_updates(
                    {node: {"coding": CodingParams(blocks=5)} for node in session.participants}
                )
                signal(generation + 1)
                session.run(60, stop_when=acked)
                # ``late`` joins at generation 0, behind everyone else.
                session.install_plan(plan, replace(terms, blocks=5), cbr)
                session.run(60, stop_when=acked)
                signal(generation + 1)
                session.run(60, stop_when=acked)
                signal(generation + 1)
                session.run(30, stop_when=acked)
                stats = session.finalize_stats()
                fields = {
                    node: {
                        name: repr(value)
                        for name, value in sorted(vars(runtime).items())
                        if not name.startswith("_")
                    }
                    for node, runtime in session._core._runtimes.items()
                }
            assert generation >= 4
            result = session_result(
                "more", plan, 256, stats, 1, ack_times=[time for _generation, time in log.acks]
            )
            return session_digest(result), trace_digest(tracer), parked, fields

        scalar, array = _both_forms(run)
        assert array == scalar
        fields = scalar[0][3]
        relay_fields = fields[late]
        assert {"packets_heard", "packets_accepted", "information"} <= set(relay_fields)
        assert {"packets_generated", "packets_sent", "packets_dropped"} <= set(
            fields[plan.source]
        )
        assert {"generations_decoded", "blocks_decoded"} <= set(fields[plan.destination])


class _ObjectRelay(FlowRelayRuntime):
    """A flow relay the columns do not hold: only the exact classes are
    column rows, so this one stays an object on the awake set."""


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


#: Line nodes: strips of 192 (two shards) are array cores, strips of 96
#: (four) scalar ones.
LINE = 384


def relay_line_across_forms(shards, start_method=None):
    """The 384-node line for 420 slots; its pin was recorded on the commit
    before the array form existed."""
    # 420 slots: the front passes node 192, so both two-shard cores run
    # slots of their own and slots across the cut.
    tracer = SessionTracer(capacity=500_000)
    with line_session(
        line_network(LINE), shards, tracer=tracer, start_method=start_method
    ) as session:
        session.run(420)
        stats = session.finalize_stats()
    assert max(sender for sender, _receiver in stats.delivered_links) > LINE // 2
    return stats_digest(stats), trace_digest(tracer)


class TestFormSelection:
    """Picked once, from the hosted count and the absence of unicast."""

    def test_the_line_straddles_the_constant(self):
        for shards, arrays in ((1, True), (2, True), (4, False)):
            owner = partition_positions(line_network(LINE).positions, shards)
            hosted = np.bincount(owner)
            assert all(count >= ARRAY_FORM_MIN_HOSTED for count in hosted) == arrays
            assert any(count >= ARRAY_FORM_MIN_HOSTED for count in hosted) == arrays

    def test_a_unicast_session_stays_scalar(self, monkeypatch):
        # Without the compiled slot loop: the numpy phases take no unicast row.
        monkeypatch.setattr(engine, "ARRAY_FORM_MIN_HOSTED", 0)
        monkeypatch.setattr(engine, "compiled_kernel", lambda: None)
        network, source, destination, coded_plan = planned_mesh()
        plans = {True: coded_plan, False: plan_etx_route(network, source, destination)}
        for arrays, plan in plans.items():
            with plan_session(network, plan, SessionConfig(max_seconds=10.0), RngFactory(4)) as session:
                assert session._core._arrays == arrays
                session.run(50)


def _line_plan(network, keep=lambda _node: True):
    """The plan ``line_runtimes`` follow, with the relays ``keep`` rejects
    dropped: the source at 10 kB/s (the offered load), the rest at 8."""
    last = network.node_count - 1
    rates = {0: 1e4, **{relay: 8e3 for relay in range(1, last) if keep(relay)}}
    forwarders = ForwarderSet(0, last, frozenset(range(last + 1)), {}, ())
    return CodedBroadcastPlan(forwarders, rates, predicted_throughput=0.0)


def _install(session, plan):
    terms = RuntimeTerms(
        kind=plan.kind,
        source=plan.source,
        destination=plan.destination,
        session_id=1,
        blocks=BLOCKS,
        packet_bytes=PACKET_BYTES,
        queue_limit=500,
        fidelity="flow",
        systematic=False,
    )
    session.install_plan(plan, terms, cbr=1e4)


class TestRefresh:
    """``set_network`` and ``install_plan`` renew the arrays, not the banks,
    and on a scalar core renew the lists, not the draw buffers."""

    @staticmethod
    def _banks(core):
        return [
            (bank, bank._values, bank._values.copy(), bank._cursor.copy())
            for bank in (core._mac_bank, core._loss_bank)
        ]

    def _assert_banks_untouched(self, core, before):
        for (bank, values, content, cursor), now in zip(before, (core._mac_bank, core._loss_bank)):
            assert now is bank and bank._values is values
            # Bit for bit: rows no node has drawn into yet hold whatever
            # ``np.empty`` left there, NaN patterns included.
            assert values.tobytes() == content.tobytes()
            assert np.array_equal(bank._cursor, cursor)

    @staticmethod
    def _buffers(core):
        return [
            (buffers, {node: (values, list(values)) for node, values in buffers.items()})
            for buffers in (core._mac_draws, core._loss_draws)
        ]

    def _assert_buffers_untouched(self, core, before):
        for (buffers, lists), now in zip(before, (core._mac_draws, core._loss_draws)):
            assert now is buffers and buffers.keys() == lists.keys()
            for node, (values, content) in lists.items():
                assert buffers[node] is values and values == content

    def test_structures_follow_the_network_and_buffers_stay(self):
        network = line_network(64)
        weaker = network.with_links({(i, j): 0.5 for i, j, _p in network.links()})
        with core_form("scalar"), line_session(network, 1) as session:
            core = session._core
            assert not core._arrays
            session.run(120)
            before = self._buffers(core)
            # Mid-block: some node holds values it has not consumed yet.
            assert any(values for buffers, lists in before for values, _ in lists.values())
            assert core._rx_pairs[1] == [(0, 0.8), (2, 0.8)]
            session.set_network(weaker)
            assert core._rx_pairs[1] == [(0, 0.5), (2, 0.5)]
            self._assert_buffers_untouched(core, before)
            session.run(60)
            before, pairs = self._buffers(core), core._rx_pairs
            _install(session, _line_plan(network))
            assert core._rx_pairs is not pairs and core._rx_pairs == pairs
            self._assert_buffers_untouched(core, before)

    def test_structures_follow_the_network_and_banks_stay(self):
        network = line_network(256)
        weaker = network.with_links({(i, j): 0.5 for i, j, _p in network.links()})

        def drive(session):
            session.run(120)
            session.set_network(weaker)
            session.run(60)
            _install(session, _line_plan(network))
            session.run(60)
            return stats_digest(session.finalize_stats())

        with core_form("scalar"), line_session(network, 1) as session:
            scalar = drive(session)
        with core_form("array"), line_session(network, 1) as session:
            core = session._core
            assert core._arrays
            session.run(120)
            before = self._banks(core)
            assert set(np.unique(core._rx_p)) == {0.0, 0.8}
            session.set_network(weaker)
            assert set(np.unique(core._rx_p)) == {0.0, 0.5}
            self._assert_banks_untouched(core, before)
            session.run(60)
            before, ids = self._banks(core), core._rx_ids
            # Re-installing the plan the line runs: the same hosted set.
            _install(session, _line_plan(network))
            assert core._rx_ids is not ids and np.array_equal(core._rx_ids, ids)
            self._assert_banks_untouched(core, before)
            session.run(60)
            assert stats_digest(session.finalize_stats()) == scalar

    def test_a_replaced_hosted_set_keeps_each_nodes_row(self):
        network = line_network(256)

        def run(form):
            with core_form(form), line_session(network, 1) as session:
                core = session._core
                session.run(150)
                # Each survivor's row, cursor and values; on a scalar core
                # every node's list, dropped ones included.
                snapshot, untouched = (
                    (self._banks, self._assert_banks_untouched)
                    if core._arrays
                    else (self._buffers, self._assert_buffers_untouched)
                )
                before = snapshot(core)
                # Every other node beyond 100 goes: hosted positions shift.
                _install(session, _line_plan(network, keep=lambda node: node < 100 or node % 2))
                assert len(core._owned) < 256
                untouched(core, before)
                session.run(150)
                return core, stats_digest(session.finalize_stats())

        _scalar_core, scalar = run("scalar")
        core, array = run("array")
        assert array == scalar
        assert core._arrays
        # The first hosted set was every node in order, so row = node id.
        assert core._mac_rows.tolist() == list(core._owned) == core._loss_rows.tolist()
